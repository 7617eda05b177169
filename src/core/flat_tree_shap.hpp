// Exact TreeSHAP for tree ensembles: the library's one TreeSHAP, over a
// structure-of-arrays ensemble layout, with everything the instance cannot
// change computed once, at build time.
//
// The value function is the path-dependent one of Lundberg et al. (2018):
// v(S) = EXPVALUE(x, S) follows x for features in S and splits by training
// cover for the rest.  v(S) decomposes over leaves, and a leaf's reach
// probability factorises per distinct path feature j into a_j (x passes
// every split on j) when j is in S and b_j (the product of the j-edges'
// cover ratios) when it is not, so each leaf's Shapley sums come from a
// polynomial DP over its m distinct path features.  Features off the path
// get nothing from that leaf.
//
// Why a build step: the plain recursive walk of that algorithm
// (tests/tree_shap_oracle.hpp, the tests' reference) pointer-chases 48-byte
// TreeNode structs, re-collapses the path and allocates at every leaf, and
// rebuilds each leaf's subset-size polynomials per request.  Only the leaf's
// 0/1 indicator pattern depends on x.  build() therefore records, per model:
//   * the node arrays of every tree, concatenated (int32 feature / child
//     ids, double threshold / leaf value), plus each split node's slot: the
//     position of its feature on the collapsed path (distinct features in
//     first-occurrence order) of every leaf below it;
//   * one record per leaf: its collapsed feature list and the cover-ratio
//     products b_j of those features;
//   * the model's base value: per tree, the sum of leaf value × Π b_j in
//     leaf visit order, aggregated across the ensemble;
//   * for each leaf with m <= kMaxTableWidth distinct features, a table of
//     m·2^(m−1) Shapley contributions, one per feature i and per 0/1
//     pattern of the other m − 1 indicators, folded with the walker's own
//     polynomial DP.  That is at most 80 doubles per leaf, all in one
//     allocation sized before it is filled (0.34 MiB for the served
//     100-tree forest, 0.13 MiB for the served GBT).  The limit is 5, not
//     6, for the serving benchmark's 10 % peak-RSS bound: 6 would take the
//     forest's tables to 0.56 MiB (measurements in DESIGN.md §16).
//
// The per-instance walk only descends: an explicit stack of (node, mask)
// frames, where bit j of a frame's mask is indicator a_j of slot j (1 iff x
// passes every split on that feature so far).  A narrow leaf adds
// leaf_value · (a_i − b_i) · table[i][pattern of the others] per feature; a
// wider leaf keeps the polynomial over features 0..i−1 and replays only the
// suffix for each i.  Masks are as many 64-bit words as the widest path
// needs, so no path is truncated.
//
// Determinism contract (DESIGN.md §16): every indicator is exactly 0.0 or
// 1.0, so a table entry is the very double the DP yields for that pattern,
// and folding a shared prefix once is the same operation sequence as folding
// it per feature.  Leaf visit order, per-leaf feature order, the lgamma
// Shapley weights and the ensemble aggregation order are the recursive
// walker's, so attributions, base values and predictions are bitwise-equal
// to the oracle's at any thread count.  tests/test_fast_path.cpp pins this,
// on wide paths and against hex-float goldens recorded from the walker.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/explanation.hpp"
#include "mlcore/matrix.hpp"
#include "mlcore/model.hpp"

namespace xnfv::ml {
struct TreeNode;
}

namespace xnfv::xai {

/// Preallocated per-thread working state for FlatTreeShap walks.  resize()
/// once (or let explain() do it lazily); every subsequent walk reuses the
/// buffers without touching the allocator.
struct FlatShapScratch {
    /// Sizes every buffer for a model with `num_features` features whose
    /// deepest tree has `max_depth` edges on a root-to-leaf path.  Idempotent
    /// and cheap when already large enough.
    void resize(std::size_t num_features, std::size_t max_depth);

    // Explicit DFS stack: frame k is a node id and its indicator mask, which
    // occupies words [k·W, (k+1)·W) of frame_mask for the model's mask width W.
    std::vector<std::int32_t> frame_node;
    std::vector<std::uint64_t> frame_mask;

    std::vector<double> poly;      ///< prefix + suffix polynomials (wide leaves)
    std::vector<double> phi;       ///< ensemble attribution accumulator
    std::vector<double> tree_phi;  ///< per-tree buffer (GBT scaling)
};

/// Immutable SoA snapshot of a tree ensemble prepared for fast exact SHAP.
/// Self-contained: holds copies of the node data (plus the ensemble scalars
/// needed for aggregation and prediction), so it does not retain a model
/// pointer and can outlive or be shared across model snapshots.
class FlatTreeShap {
public:
    enum class Kind : std::uint8_t { tree, forest, gbt };

    /// Builds from a DecisionTree, RandomForest, or GradientBoostedTrees.
    /// Returns nullptr for any other model type (the router falls back to
    /// probe explainers).  Throws std::invalid_argument on an unfitted
    /// ensemble.
    [[nodiscard]] static std::shared_ptr<const FlatTreeShap> build(
        const xnfv::ml::Model& model);

    [[nodiscard]] Kind kind() const noexcept { return kind_; }
    [[nodiscard]] std::size_t num_features() const noexcept { return num_features_; }
    [[nodiscard]] std::size_t num_trees() const noexcept { return roots_.size(); }
    [[nodiscard]] std::size_t num_nodes() const noexcept { return feature_.size(); }
    [[nodiscard]] std::size_t max_depth() const noexcept { return max_depth_; }

    /// Leaves with at most this many distinct path features are served from
    /// a precomputed contribution table; wider leaves fold per request.
    static constexpr std::size_t kMaxTableWidth = 5;

    /// Exact SHAP attributions + prediction for one instance, bitwise equal
    /// to the recursive walker's.  Once `scratch` is warm, the returned
    /// attribution vector is the only allocation
    /// (tests/test_probe_alloc.cpp).  Throws std::invalid_argument on size
    /// mismatch.
    [[nodiscard]] Explanation explain(std::span<const double> x,
                                      FlatShapScratch& scratch) const;

    /// Explains every row, tree-major-blocked and row-parallel; each row's
    /// result is bitwise identical to explain() at any thread count.
    [[nodiscard]] std::vector<Explanation> explain_batch(
        const xnfv::ml::Matrix& instances, std::size_t threads = 0) const;

private:
    FlatTreeShap() = default;

    /// One leaf's x-independent state.
    struct Leaf {
        std::uint32_t path = 0;   ///< offset into path_feature_ / path_cover_
        std::uint32_t width = 0;  ///< m: distinct features on the path
        std::uint32_t table = 0;  ///< offset into table_ (m <= kMaxTableWidth)
    };

    /// Appends one tree's nodes and leaf records; returns the tree's base
    /// value (Σ leaf value × Π b_j in leaf visit order).
    double add_tree(std::span<const xnfv::ml::TreeNode> nodes);
    void build_weight_table();
    void build_tables();

    /// One tree's walk: accumulates the tree's attributions into phi.
    void walk_tree(std::size_t tree, std::span<const double> x, FlatShapScratch& s,
                   std::span<double> phi) const;

    /// Adds one leaf's attributions given its frame's indicator mask.
    void add_leaf(std::size_t node, const std::uint64_t* mask, FlatShapScratch& s,
                  std::span<double> phi) const;

    /// Leaf value reached by descending tree `tree` at x (the scalar
    /// DecisionTree::predict descent over the flat arrays).
    [[nodiscard]] double tree_value(std::size_t tree, std::span<const double> x) const;

    /// Ensemble prediction replicated bitwise from the source model:
    /// tree → leaf value, forest → mean of tree values, gbt → margin.
    [[nodiscard]] double predict(std::span<const double> x) const;

    /// Per-instance explanation with ensemble aggregation, given warm scratch.
    void explain_into(std::span<const double> x, FlatShapScratch& s,
                      Explanation& e) const;

    // Node SoA, all trees concatenated; child ids rebased to absolute.
    std::vector<std::int32_t> feature_;    ///< split feature; -1 marks a leaf
    std::vector<double> threshold_;        ///< left iff x[feature] <= threshold
    std::vector<std::int32_t> left_;
    std::vector<std::int32_t> right_;
    std::vector<double> value_;            ///< leaf value (junk for internal)
    std::vector<std::int32_t> slot_;       ///< split's collapsed-path slot (junk for leaves)
    std::vector<std::int32_t> leaf_;       ///< index into leaves_ (junk for internal)
    std::vector<std::int32_t> roots_;      ///< absolute root id per tree

    // Per-leaf records, leaves in visit order.
    std::vector<Leaf> leaves_;
    std::vector<std::int32_t> path_feature_;  ///< collapsed features, path order
    std::vector<double> path_cover_;          ///< b_j: cover-ratio product per feature
    /// Narrow leaves' contributions: entry i·2^(m−1) + p of a leaf is feature
    /// i's Shapley sum when bit t of p is the indicator of the t-th other
    /// feature in path order.
    std::vector<double> table_;

    // Triangular Shapley-weight table: weight(k, m) = k!(m-k-1)!/m! for
    // m in 1..max_depth_, k in 0..m-1, computed with the same lgamma
    // expression as the recursive walker so the bits match.
    std::vector<double> weight_;
    std::vector<std::size_t> weight_off_;  ///< row offset per m

    Kind kind_ = Kind::tree;
    std::size_t num_features_ = 0;
    std::size_t max_depth_ = 0;
    std::size_t max_width_ = 0;
    std::size_t mask_words_ = 1;  ///< 64-bit words per frame mask
    double base_value_ = 0.0;     ///< the explanation's base value, x-independent
    double base_score_ = 0.0;     ///< GBT only
    double learning_rate_ = 0.0;  ///< GBT only
};

/// The tree_shap Explainer.  It holds no kernel between calls: explain()
/// builds the flat kernel for the model it is given and walks it, and
/// explain_batch() builds once per call.  A kernel cached by model address
/// would explain a model re-fit in place, or a new model built in the same
/// storage, with the old trees.  A caller that explains many rows of one
/// model uses explain_batch() or keeps a FlatTreeShap::build() result, as
/// the server does in each model snapshot.  Throws std::invalid_argument
/// for a model that is not a supported tree ensemble.
///
/// For GBT classifiers the attribution is computed in margin (log-odds)
/// space, where the ensemble is additive: `prediction` and `base_value` are
/// margins, and the efficiency identity holds in that space.  Compare
/// rankings, not magnitudes, against probability-space explainers (as
/// experiment T2 does).
class TreeShap final : public Explainer {
public:
    TreeShap() = default;
    explicit TreeShap(std::size_t threads) : threads_(threads) {}

    [[nodiscard]] Explanation explain(const xnfv::ml::Model& model,
                                      std::span<const double> x) override;

    [[nodiscard]] std::vector<Explanation> explain_batch(
        const xnfv::ml::Model& model, const xnfv::ml::Matrix& instances) override;

    [[nodiscard]] std::string name() const override { return "tree_shap"; }

private:
    std::size_t threads_ = 0;
};

}  // namespace xnfv::xai
