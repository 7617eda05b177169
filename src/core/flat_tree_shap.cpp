#include "core/flat_tree_shap.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/exact_shapley.hpp"
#include "core/parallel.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/tree.hpp"

namespace xnfv::xai {

using xnfv::ml::DecisionTree;
using xnfv::ml::GradientBoostedTrees;
using xnfv::ml::RandomForest;
using xnfv::ml::TreeNode;

namespace {

/// Shapley factorial weight k!(m-k-1)!/m! — the exact expression of the
/// recursive walker, so the table entries are bitwise identical to its
/// on-the-fly values.
double shapley_weight(std::size_t k, std::size_t m) {
    return std::exp(log_gamma(static_cast<double>(k) + 1.0) +
                    log_gamma(static_cast<double>(m - k)) -
                    log_gamma(static_cast<double>(m) + 1.0));
}

/// Multiplies the subset-size polynomial of degree `used` by (b + a·z), in
/// place (descending k keeps poly[k-1] at its pre-multiply value).  The
/// recursive walker's expression: build-time tables and per-request wide
/// leaves both fold through here, so the same operands give the same double.
inline void fold(double* poly, std::size_t used, double a, double b) {
    for (std::size_t k = used + 2; k-- > 0;)
        poly[k] = poly[k] * b + (k > 0 ? poly[k - 1] * a : 0.0);
}

/// Shapley-weighted sum of the m subset-size terms, in the walker's order.
inline double weigh(const double* w, const double* poly, std::size_t m) {
    double contribution = 0.0;
    for (std::size_t k = 0; k < m; ++k) contribution += w[k] * poly[k];
    return contribution;
}

/// Indicator a_j of slot j in a frame mask, as the walker's exact 0.0 / 1.0.
inline double indicator(const std::uint64_t* mask, std::size_t j) {
    return (mask[j / 64] >> (j % 64)) & 1U ? 1.0 : 0.0;
}

/// 64-bit words a mask needs for `width` slots.
std::size_t mask_words(std::size_t width) { return std::max<std::size_t>(1, (width + 63) / 64); }

}  // namespace

void FlatShapScratch::resize(std::size_t num_features, std::size_t max_depth) {
    // A path's distinct features never outnumber its edges, so a depth-sized
    // mask fits any model of this depth.
    const std::size_t frames = max_depth + 1;
    const std::size_t words = frames * mask_words(max_depth);
    if (frame_node.size() < frames) frame_node.resize(frames);
    if (frame_mask.size() < words) frame_mask.resize(words);
    if (poly.size() < 2 * max_depth) poly.resize(2 * max_depth);
    if (phi.size() < num_features) phi.resize(num_features);
    if (tree_phi.size() < num_features) tree_phi.resize(num_features);
}

std::shared_ptr<const FlatTreeShap> FlatTreeShap::build(const xnfv::ml::Model& model) {
    std::shared_ptr<FlatTreeShap> out(new FlatTreeShap());
    std::vector<std::span<const TreeNode>> trees;
    if (const auto* tree = dynamic_cast<const DecisionTree*>(&model)) {
        if (tree->nodes().empty())
            throw std::invalid_argument("tree_shap: unfitted tree");
        out->kind_ = Kind::tree;
        trees.emplace_back(tree->nodes());
    } else if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
        if (forest->trees().empty())
            throw std::invalid_argument("TreeShap: unfitted forest");
        out->kind_ = Kind::forest;
        for (const auto& t : forest->trees()) trees.emplace_back(t.nodes());
    } else if (const auto* gbt = dynamic_cast<const GradientBoostedTrees*>(&model)) {
        if (gbt->trees().empty())
            throw std::invalid_argument("TreeShap: unfitted gbt");
        out->kind_ = Kind::gbt;
        out->base_score_ = gbt->base_score();
        out->learning_rate_ = gbt->learning_rate();
        for (const auto& t : gbt->trees()) trees.emplace_back(t.nodes());
    } else {
        return nullptr;
    }
    out->num_features_ = model.num_features();

    // The base value in the ensemble aggregation order of the recursive
    // TreeShap::explain.
    double base = out->kind_ == Kind::gbt ? out->base_score_ : 0.0;
    for (const auto t : trees) {
        const double tree_base = out->add_tree(t);
        base += out->kind_ == Kind::gbt ? out->learning_rate_ * tree_base : tree_base;
    }
    out->base_value_ =
        out->kind_ == Kind::forest ? base * (1.0 / static_cast<double>(trees.size())) : base;
    out->mask_words_ = mask_words(out->max_width_);
    out->build_weight_table();
    out->build_tables();
    return out;
}

double FlatTreeShap::add_tree(std::span<const TreeNode> nodes) {
    const auto rebase = static_cast<std::int32_t>(feature_.size());
    roots_.push_back(rebase);
    for (const TreeNode& n : nodes) {
        feature_.push_back(n.feature);
        threshold_.push_back(n.threshold);
        value_.push_back(n.value);
        left_.push_back(n.is_leaf() ? -1 : rebase + n.left);
        right_.push_back(n.is_leaf() ? -1 : rebase + n.right);
        slot_.push_back(-1);
        leaf_.push_back(-1);
    }

    // Visit the nodes in the recursive walker's order (left subtree first)
    // and collapse each node's root path per distinct feature, exactly as
    // the walker does at a leaf: the first edge on a feature opens its slot,
    // later ones multiply into it, in path order.
    struct Edge {
        int feature = -1;
        double ratio = 1.0;  ///< cover(child) / cover(parent), guarded as the walker does
    };
    struct Pending {
        std::size_t node = 0;
        std::size_t depth = 0;
        Edge in;  ///< the edge into `node` (unused at the root)
    };
    std::vector<Pending> stack{{}};
    std::vector<Edge> path;
    std::vector<std::int32_t> features;
    std::vector<double> covers;
    double base = 0.0;
    while (!stack.empty()) {
        const Pending p = stack.back();
        stack.pop_back();
        path.resize(p.depth);
        if (p.depth > 0) path.back() = p.in;
        features.clear();
        covers.clear();
        for (const Edge& e : path) {
            const auto at = std::find(features.begin(), features.end(), e.feature);
            if (at == features.end()) {
                features.push_back(e.feature);
                covers.push_back(e.ratio);
            } else {
                covers[static_cast<std::size_t>(at - features.begin())] *= e.ratio;
            }
        }
        const TreeNode& n = nodes[p.node];
        const auto id = static_cast<std::size_t>(rebase) + p.node;
        if (n.is_leaf()) {
            max_depth_ = std::max(max_depth_, p.depth);
            max_width_ = std::max(max_width_, features.size());
            leaf_[id] = static_cast<std::int32_t>(leaves_.size());
            leaves_.push_back(Leaf{.path = static_cast<std::uint32_t>(path_feature_.size()),
                                   .width = static_cast<std::uint32_t>(features.size())});
            path_feature_.insert(path_feature_.end(), features.begin(), features.end());
            path_cover_.insert(path_cover_.end(), covers.begin(), covers.end());
            double prob_all_b = 1.0;
            for (const double bj : covers) prob_all_b *= bj;
            base += n.value * prob_all_b;
            continue;
        }
        slot_[id] = static_cast<std::int32_t>(
            std::find(features.begin(), features.end(), n.feature) - features.begin());
        const double denom = n.cover > 0.0 ? n.cover : 1.0;
        const auto left = static_cast<std::size_t>(n.left);
        const auto right = static_cast<std::size_t>(n.right);
        stack.push_back({right, p.depth + 1, {n.feature, nodes[right].cover / denom}});
        stack.push_back({left, p.depth + 1, {n.feature, nodes[left].cover / denom}});
    }
    return base;
}

void FlatTreeShap::build_weight_table() {
    weight_off_.assign(max_depth_ + 1, 0);
    weight_.clear();
    for (std::size_t m = 1; m <= max_depth_; ++m) {
        weight_off_[m] = weight_.size();
        for (std::size_t k = 0; k < m; ++k) weight_.push_back(shapley_weight(k, m));
    }
}

void FlatTreeShap::build_tables() {
    // Sized before it is filled, in one allocation: the peak resident set is
    // the tables themselves, not a doubling vector's transient.
    std::size_t total = 0;
    for (Leaf& leaf : leaves_) {
        if (leaf.width == 0 || leaf.width > kMaxTableWidth) continue;
        leaf.table = static_cast<std::uint32_t>(total);
        total += std::size_t{leaf.width} << (leaf.width - 1);
    }
    table_.resize(total);

    double poly[kMaxTableWidth];
    for (const Leaf& leaf : leaves_) {
        const std::size_t m = leaf.width;
        if (m == 0 || m > kMaxTableWidth) continue;
        const double* b = path_cover_.data() + leaf.path;
        const double* w = weight_.data() + weight_off_[m];
        const std::size_t patterns = std::size_t{1} << (m - 1);
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t p = 0; p < patterns; ++p) {
                // The walker's from-scratch fold over the features other
                // than i; bit t of p is the t-th one's indicator.
                std::fill_n(poly, m, 0.0);
                poly[0] = 1.0;
                std::size_t used = 0;
                for (std::size_t j = 0; j < m; ++j) {
                    if (j == i) continue;
                    fold(poly, used, (p >> used) & 1U ? 1.0 : 0.0, b[j]);
                    ++used;
                }
                table_[leaf.table + i * patterns + p] = weigh(w, poly, m);
            }
        }
    }
}

void FlatTreeShap::walk_tree(std::size_t tree, std::span<const double> x,
                             FlatShapScratch& s, std::span<double> phi) const {
    const std::size_t words = mask_words_;
    std::int32_t* node = s.frame_node.data();
    std::uint64_t* mask = s.frame_mask.data();
    node[0] = roots_[tree];
    std::fill_n(mask, words, ~std::uint64_t{0});
    for (std::size_t top = 0;;) {
        const auto n = static_cast<std::size_t>(node[top]);
        std::uint64_t* bits = mask + top * words;
        if (feature_[n] < 0) {
            add_leaf(n, bits, s, phi);
            if (top == 0) return;
            --top;
            continue;
        }
        // The right child takes over this frame and the left child the one
        // above, so the left subtree is walked first (the recursive walker's
        // leaf order).  The child on the side x does not take clears the
        // bit of the split's slot.
        std::uint64_t* left_bits = bits + words;
        std::copy_n(bits, words, left_bits);
        const auto slot = static_cast<std::size_t>(slot_[n]);
        const std::uint64_t cleared = bits[slot / 64] & ~(std::uint64_t{1} << (slot % 64));
        if (x[static_cast<std::size_t>(feature_[n])] <= threshold_[n])
            bits[slot / 64] = cleared;
        else
            left_bits[slot / 64] = cleared;
        node[top] = right_[n];
        node[top + 1] = left_[n];
        ++top;
    }
}

void FlatTreeShap::add_leaf(std::size_t node, const std::uint64_t* mask, FlatShapScratch& s,
                            std::span<double> phi) const {
    const Leaf& leaf = leaves_[static_cast<std::size_t>(leaf_[node])];
    const std::size_t m = leaf.width;
    if (m == 0) return;
    const double leaf_value = value_[node];
    const std::int32_t* feat = path_feature_.data() + leaf.path;
    const double* b = path_cover_.data() + leaf.path;
    if (m <= kMaxTableWidth) {
        const std::uint64_t a = mask[0];
        const std::size_t patterns = std::size_t{1} << (m - 1);
        const double* table = table_.data() + leaf.table;
        for (std::size_t i = 0; i < m; ++i) {
            // The other indicators in path order: bits below i, then the
            // bits above i shifted down over it.
            const std::uint64_t below = a & ((std::uint64_t{1} << i) - 1);
            const std::uint64_t others = (below | ((a >> (i + 1)) << i)) & (patterns - 1);
            phi[static_cast<std::size_t>(feat[i])] +=
                leaf_value * (indicator(mask, i) - b[i]) * table[i * patterns + others];
        }
        return;
    }
    // Wide leaf: feature i's polynomial first folds features 0..i-1, which
    // is feature i-1's prefix with one more fold; keep it and replay only
    // features i+1..m-1 on a copy.
    const double* w = weight_.data() + weight_off_[m];
    double* prefix = s.poly.data();
    double* suffix = prefix + m;
    std::fill_n(prefix, m, 0.0);
    prefix[0] = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
        std::copy_n(prefix, m, suffix);
        for (std::size_t j = i + 1; j < m; ++j) fold(suffix, j - 1, indicator(mask, j), b[j]);
        const double a = indicator(mask, i);
        phi[static_cast<std::size_t>(feat[i])] += leaf_value * (a - b[i]) * weigh(w, suffix, m);
        if (i + 1 < m) fold(prefix, i, a, b[i]);
    }
}

double FlatTreeShap::tree_value(std::size_t tree, std::span<const double> x) const {
    auto idx = static_cast<std::size_t>(roots_[tree]);
    while (feature_[idx] >= 0) {
        idx = static_cast<std::size_t>(
            x[static_cast<std::size_t>(feature_[idx])] <= threshold_[idx] ? left_[idx]
                                                                          : right_[idx]);
    }
    return value_[idx];
}

double FlatTreeShap::predict(std::span<const double> x) const {
    switch (kind_) {
        case Kind::tree:
            return tree_value(0, x);
        case Kind::forest: {
            double sum = 0.0;
            for (std::size_t t = 0; t < roots_.size(); ++t) sum += tree_value(t, x);
            return sum / static_cast<double>(roots_.size());
        }
        case Kind::gbt: {
            double m = base_score_;
            for (std::size_t t = 0; t < roots_.size(); ++t)
                m += learning_rate_ * tree_value(t, x);
            return m;  // margin space, matching TreeShap::explain
        }
    }
    return 0.0;  // unreachable
}

void FlatTreeShap::explain_into(std::span<const double> x, FlatShapScratch& s,
                                Explanation& e) const {
    const std::size_t d = num_features_;
    e.method = "tree_shap";
    e.attributions.assign(d, 0.0);
    switch (kind_) {
        case Kind::tree:
            walk_tree(0, x, s, e.attributions);
            break;
        case Kind::forest: {
            std::fill(s.phi.begin(), s.phi.end(), 0.0);
            for (std::size_t t = 0; t < roots_.size(); ++t) walk_tree(t, x, s, s.phi);
            const double inv = 1.0 / static_cast<double>(roots_.size());
            for (std::size_t i = 0; i < d; ++i) e.attributions[i] = s.phi[i] * inv;
            break;
        }
        case Kind::gbt: {
            std::fill(s.phi.begin(), s.phi.end(), 0.0);
            for (std::size_t t = 0; t < roots_.size(); ++t) {
                std::fill(s.tree_phi.begin(), s.tree_phi.end(), 0.0);
                walk_tree(t, x, s, s.tree_phi);
                for (std::size_t i = 0; i < d; ++i)
                    s.phi[i] += learning_rate_ * s.tree_phi[i];
            }
            for (std::size_t i = 0; i < d; ++i) e.attributions[i] = s.phi[i];
            break;
        }
    }
    e.base_value = base_value_;
    e.prediction = predict(x);
}

Explanation FlatTreeShap::explain(std::span<const double> x,
                                  FlatShapScratch& scratch) const {
    if (x.size() != num_features_)
        throw std::invalid_argument("TreeShap: input size mismatch");
    scratch.resize(num_features_, max_depth_);
    Explanation e;
    explain_into(x, scratch, e);
    return e;
}

std::vector<Explanation> FlatTreeShap::explain_batch(const xnfv::ml::Matrix& instances,
                                                     std::size_t threads) const {
    if (instances.cols() != num_features_)
        throw std::invalid_argument("TreeShap: input size mismatch");
    const std::size_t d = num_features_;
    std::vector<Explanation> out(instances.rows());
    // Instances per tree-major block: the whole block's phi stripe
    // (kInstanceBlock × d doubles) stays resident while one tree's node
    // arrays stream through cache; per-instance accumulators are private, so
    // each row's operation sequence is the tree-ascending order of
    // explain() regardless of blocking or thread count.
    constexpr std::size_t kInstanceBlock = 32;
    xnfv::parallel_for_chunks(instances.rows(), threads, [&](std::size_t begin,
                                                             std::size_t end) {
        FlatShapScratch s;
        s.resize(d, max_depth_);
        std::vector<double> block_phi(kInstanceBlock * d);
        for (std::size_t b0 = begin; b0 < end; b0 += kInstanceBlock) {
            const std::size_t bn = std::min(kInstanceBlock, end - b0);
            std::fill(block_phi.begin(), block_phi.begin() + static_cast<std::ptrdiff_t>(bn * d), 0.0);
            for (std::size_t t = 0; t < roots_.size(); ++t) {
                for (std::size_t i = 0; i < bn; ++i) {
                    const auto x = instances.row(b0 + i);
                    std::span<double> phi(block_phi.data() + i * d, d);
                    if (kind_ == Kind::gbt) {
                        std::fill(s.tree_phi.begin(), s.tree_phi.end(), 0.0);
                        walk_tree(t, x, s, s.tree_phi);
                        for (std::size_t j = 0; j < d; ++j)
                            phi[j] += learning_rate_ * s.tree_phi[j];
                    } else {
                        walk_tree(t, x, s, phi);
                    }
                }
            }
            for (std::size_t i = 0; i < bn; ++i) {
                Explanation& e = out[b0 + i];
                const auto x = instances.row(b0 + i);
                const std::span<const double> phi(block_phi.data() + i * d, d);
                e.method = "tree_shap";
                e.attributions.assign(d, 0.0);
                if (kind_ == Kind::forest) {
                    const double inv = 1.0 / static_cast<double>(roots_.size());
                    for (std::size_t j = 0; j < d; ++j) e.attributions[j] = phi[j] * inv;
                } else {
                    for (std::size_t j = 0; j < d; ++j) e.attributions[j] = phi[j];
                }
                e.base_value = base_value_;
                e.prediction = predict(x);
            }
        }
    });
    return out;
}

const FlatTreeShap& FlatTreeShapExplainer::ensure(const xnfv::ml::Model& model) {
    if (flat_ == nullptr || cached_model_ != &model) {
        auto flat = FlatTreeShap::build(model);
        if (flat == nullptr)
            throw std::invalid_argument("TreeShap: model '" + model.name() +
                                        "' is not a supported tree ensemble");
        flat_ = std::move(flat);
        cached_model_ = &model;
        scratch_.resize(flat_->num_features(), flat_->max_depth());
    }
    return *flat_;
}

Explanation FlatTreeShapExplainer::explain(const xnfv::ml::Model& model,
                                           std::span<const double> x) {
    if (x.size() != model.num_features())
        throw std::invalid_argument("TreeShap: input size mismatch");
    return ensure(model).explain(x, scratch_);
}

std::vector<Explanation> FlatTreeShapExplainer::explain_batch(
    const xnfv::ml::Model& model, const xnfv::ml::Matrix& instances) {
    return ensure(model).explain_batch(instances, threads_);
}

}  // namespace xnfv::xai
