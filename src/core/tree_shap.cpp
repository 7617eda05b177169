#include "core/tree_shap.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/exact_shapley.hpp"

namespace xnfv::xai {

using xnfv::ml::DecisionTree;
using xnfv::ml::GradientBoostedTrees;
using xnfv::ml::RandomForest;
using xnfv::ml::TreeNode;

namespace {

/// One edge of the current root-to-node path.
struct PathEdge {
    int feature = -1;
    double indicator = 1.0;    ///< 1 if x satisfies this split, else 0
    double cover_ratio = 1.0;  ///< cover(child) / cover(parent)
};

/// Shapley factorial weight k!(m-k-1)!/m!.
double shapley_weight(std::size_t k, std::size_t m) {
    return std::exp(log_gamma(static_cast<double>(k) + 1.0) +
                    log_gamma(static_cast<double>(m - k)) -
                    log_gamma(static_cast<double>(m) + 1.0));
}

struct LeafAccumulator {
    std::span<double> phi;
    double base = 0.0;

    /// Processes one leaf given the per-distinct-feature factors.
    void add_leaf(double leaf_value, const std::vector<int>& features,
                  const std::vector<double>& a, const std::vector<double>& b) {
        const std::size_t m = features.size();

        // Base value: leaf reached with nothing conditioned.
        double prob_all_b = 1.0;
        for (double bj : b) prob_all_b *= bj;
        base += leaf_value * prob_all_b;
        if (m == 0) return;

        // For each path feature i, the Shapley sum over subsets of the other
        // m-1 features, grouped by subset size via a polynomial DP:
        //   poly[k] = sum_{S subset of U\i, |S|=k} prod_{j in S} a_j *
        //             prod_{j in U\i\S} b_j
        std::vector<double> poly(m);
        for (std::size_t i = 0; i < m; ++i) {
            poly.assign(m, 0.0);
            poly[0] = 1.0;
            std::size_t used = 0;
            for (std::size_t j = 0; j < m; ++j) {
                if (j == i) continue;
                // Multiply the polynomial by (b_j + a_j * z): after this the
                // polynomial has degree used+1, so indices used+1 .. 0 must
                // all be refreshed (descending order keeps the update
                // in-place: poly[k-1] is still the pre-multiply value).
                for (std::size_t k = used + 2; k-- > 0;) {
                    poly[k] = poly[k] * b[j] + (k > 0 ? poly[k - 1] * a[j] : 0.0);
                }
                ++used;
            }
            double contribution = 0.0;
            for (std::size_t k = 0; k < m; ++k)
                contribution += shapley_weight(k, m) * poly[k];
            phi[static_cast<std::size_t>(features[i])] +=
                leaf_value * (a[i] - b[i]) * contribution;
        }
    }
};

void recurse(const std::vector<TreeNode>& nodes, std::size_t idx, std::span<const double> x,
             std::vector<PathEdge>& path, LeafAccumulator& acc) {
    const TreeNode& node = nodes[idx];
    if (node.is_leaf()) {
        // Collapse the path per distinct feature: indicators multiply (all
        // splits on the feature must pass) and cover ratios multiply (the
        // unconditioned probability of tracing these edges).
        std::vector<int> features;
        std::vector<double> a, b;
        for (const PathEdge& edge : path) {
            std::size_t pos = features.size();
            for (std::size_t i = 0; i < features.size(); ++i)
                if (features[i] == edge.feature) { pos = i; break; }
            if (pos == features.size()) {
                features.push_back(edge.feature);
                a.push_back(edge.indicator);
                b.push_back(edge.cover_ratio);
            } else {
                a[pos] *= edge.indicator;
                b[pos] *= edge.cover_ratio;
            }
        }
        acc.add_leaf(node.value, features, a, b);
        return;
    }

    const auto f = static_cast<std::size_t>(node.feature);
    const bool goes_left = x[f] <= node.threshold;
    const TreeNode& left = nodes[static_cast<std::size_t>(node.left)];
    const TreeNode& right = nodes[static_cast<std::size_t>(node.right)];
    const double denom = node.cover > 0.0 ? node.cover : 1.0;

    path.push_back(PathEdge{.feature = node.feature,
                            .indicator = goes_left ? 1.0 : 0.0,
                            .cover_ratio = left.cover / denom});
    recurse(nodes, static_cast<std::size_t>(node.left), x, path, acc);
    path.back() = PathEdge{.feature = node.feature,
                           .indicator = goes_left ? 0.0 : 1.0,
                           .cover_ratio = right.cover / denom};
    recurse(nodes, static_cast<std::size_t>(node.right), x, path, acc);
    path.pop_back();
}

}  // namespace

double tree_shap_single(const DecisionTree& tree, std::span<const double> x,
                        std::span<double> phi) {
    if (tree.nodes().empty()) throw std::invalid_argument("tree_shap: unfitted tree");
    if (phi.size() != tree.num_features() || x.size() != tree.num_features())
        throw std::invalid_argument("tree_shap: size mismatch");
    LeafAccumulator acc{.phi = phi};
    std::vector<PathEdge> path;
    recurse(tree.nodes(), 0, x, path, acc);
    return acc.base;
}

double tree_expected_value(const DecisionTree& tree, std::span<const double> x,
                           const std::vector<bool>& in_coalition) {
    if (x.size() != tree.num_features() || in_coalition.size() != tree.num_features())
        throw std::invalid_argument("tree_expected_value: size mismatch");
    const auto& nodes = tree.nodes();
    // Weighted DFS: (node, weight) pairs.
    double total = 0.0;
    std::vector<std::pair<std::size_t, double>> stack{{0, 1.0}};
    while (!stack.empty()) {
        const auto [idx, wgt] = stack.back();
        stack.pop_back();
        const TreeNode& node = nodes[idx];
        if (node.is_leaf()) {
            total += wgt * node.value;
            continue;
        }
        const auto f = static_cast<std::size_t>(node.feature);
        if (in_coalition[f]) {
            const int child = x[f] <= node.threshold ? node.left : node.right;
            stack.emplace_back(static_cast<std::size_t>(child), wgt);
        } else {
            const double denom = node.cover > 0.0 ? node.cover : 1.0;
            const TreeNode& left = nodes[static_cast<std::size_t>(node.left)];
            const TreeNode& right = nodes[static_cast<std::size_t>(node.right)];
            stack.emplace_back(static_cast<std::size_t>(node.left),
                               wgt * left.cover / denom);
            stack.emplace_back(static_cast<std::size_t>(node.right),
                               wgt * right.cover / denom);
        }
    }
    return total;
}

Explanation TreeShap::explain(const xnfv::ml::Model& model, std::span<const double> x) {
    const std::size_t d = model.num_features();
    if (x.size() != d) throw std::invalid_argument("TreeShap: input size mismatch");

    Explanation e;
    e.method = name();
    e.attributions.assign(d, 0.0);

    if (const auto* tree = dynamic_cast<const DecisionTree*>(&model)) {
        e.base_value = tree_shap_single(*tree, x, e.attributions);
        e.prediction = tree->predict(x);
        return e;
    }
    if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
        if (forest->trees().empty())
            throw std::invalid_argument("TreeShap: unfitted forest");
        std::vector<double> phi(d, 0.0);
        double base = 0.0;
        for (const auto& tree : forest->trees()) base += tree_shap_single(tree, x, phi);
        const double inv = 1.0 / static_cast<double>(forest->trees().size());
        for (std::size_t i = 0; i < d; ++i) e.attributions[i] = phi[i] * inv;
        e.base_value = base * inv;
        e.prediction = forest->predict(x);
        return e;
    }
    if (const auto* gbt = dynamic_cast<const GradientBoostedTrees*>(&model)) {
        if (gbt->trees().empty()) throw std::invalid_argument("TreeShap: unfitted gbt");
        std::vector<double> phi(d, 0.0);
        double base = gbt->base_score();
        for (const auto& tree : gbt->trees()) {
            std::vector<double> tree_phi(d, 0.0);
            base += gbt->learning_rate() * tree_shap_single(tree, x, tree_phi);
            for (std::size_t i = 0; i < d; ++i)
                phi[i] += gbt->learning_rate() * tree_phi[i];
        }
        e.attributions = std::move(phi);
        e.base_value = base;
        e.prediction = gbt->predict_margin(x);  // margin space; see class docs
        return e;
    }
    throw std::invalid_argument("TreeShap: model '" + model.name() +
                                "' is not a supported tree ensemble");
}

}  // namespace xnfv::xai
