// The recursive TreeSHAP walker: the tests' reference for the flat kernel.
//
// The library explains trees with one kernel, core/flat_tree_shap.hpp.  This
// walker is the algorithm in its plainest form, kept only as an oracle: the
// flat kernel's pins (tests/test_fast_path.cpp), its brute-force checks
// (tests/test_tree_shap.cpp) and bench_s5_fastpath's bitwise gate compare
// against it, and the hex-float goldens were recorded from its arithmetic.
// No library links it.
//
// Uses the path-dependent value function of Lundberg et al. (2018):
//     v(S) = EXPVALUE(x, S) — walk the tree, following x for features in S
//     and distributing over both children by training-cover ratios for
//     features outside S.
// Key observation enabling an exact polynomial algorithm: v(S) decomposes
// over leaves, and each leaf's reach probability factorizes per distinct
// path feature j into
//     a_j  (indicator that x satisfies every split on j along the path)  if j ∈ S
//     b_j  (product of cover ratios of the j-edges along the path)        if j ∉ S
// so the Shapley sum for a leaf reduces to elementary-symmetric-style sums
// computed by an O(m^2) polynomial DP over the m ≤ depth distinct path
// features (O(m^3) per leaf total).  Features off the path are dummies and
// receive nothing from that leaf.  The result is *exact* — no sampling — and
// the unit tests verify it against brute-force enumeration of the same value
// function.
//
// Complexity: O(leaves * depth^3) per instance per tree.
#pragma once

#include "core/explanation.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/tree.hpp"

namespace xnfv::oracle {

/// Attributions for a single decision tree; returns the base value (the
/// cover-weighted expectation of the tree) and adds phi into `phi` (must be
/// sized num_features, caller-zeroed or accumulating an ensemble).
double tree_shap_single(const xnfv::ml::DecisionTree& tree, std::span<const double> x,
                        std::span<double> phi);

/// Path-dependent expected value EXPVALUE(x, S) of a tree — the value
/// function attributed by tree_shap_single; exposed for verification.
[[nodiscard]] double tree_expected_value(const xnfv::ml::DecisionTree& tree,
                                         std::span<const double> x,
                                         const std::vector<bool>& in_coalition);

/// Explainer wrapper dispatching on the concrete tree model type
/// (DecisionTree, RandomForest, or GradientBoostedTrees).
///
/// For GBT classifiers the attribution is computed in margin (log-odds)
/// space, where the ensemble is additive: `prediction` and `base_value` in
/// the returned Explanation are margins, and the efficiency identity holds
/// in that space.
class RecursiveTreeShap final : public xnfv::xai::Explainer {
public:
    RecursiveTreeShap() = default;

    /// Throws std::invalid_argument if the model is not a supported tree
    /// ensemble.
    [[nodiscard]] xnfv::xai::Explanation explain(const xnfv::ml::Model& model,
                                                 std::span<const double> x) override;

    [[nodiscard]] std::string name() const override { return "tree_shap"; }
};

}  // namespace xnfv::oracle
