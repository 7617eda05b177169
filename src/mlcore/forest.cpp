#include "mlcore/forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace xnfv::ml {

void RandomForest::fit(const Dataset& d, Rng& rng) {
    if (d.size() == 0) throw std::invalid_argument("RandomForest::fit: empty dataset");
    if (config_.num_trees == 0)
        throw std::invalid_argument("RandomForest::fit: num_trees must be > 0");
    d.validate();
    num_features_ = d.num_features();

    DecisionTree::Config tree_cfg = config_.tree;
    if (tree_cfg.max_features == 0) {
        // Conventional default: sqrt(d) features per split.
        tree_cfg.max_features = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::sqrt(static_cast<double>(num_features_))));
    }

    const auto n_boot = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.bootstrap_fraction *
                                    static_cast<double>(d.size())));
    trees_.clear();
    trees_.reserve(config_.num_trees);
    std::vector<std::size_t> rows(n_boot);
    for (std::size_t t = 0; t < config_.num_trees; ++t) {
        Rng tree_rng = rng.split();
        for (auto& r : rows) r = tree_rng.uniform_index(d.size());
        DecisionTree tree(tree_cfg);
        tree.fit_rows(d, rows, &tree_rng);
        trees_.push_back(std::move(tree));
    }
    rebuild_flat();
}

void RandomForest::rebuild_flat() {
    flat_.clear();
    std::size_t total_nodes = 0;
    for (const auto& t : trees_) total_nodes += t.nodes().size();
    flat_.reserve(trees_.size(), total_nodes);
    for (const auto& t : trees_) flat_.add_tree(t.nodes());
}

double RandomForest::predict(std::span<const double> x) const {
    if (trees_.empty()) throw std::logic_error("RandomForest::predict before fit");
    double sum = 0.0;
    for (const auto& t : trees_) sum += t.predict(x);
    return sum / static_cast<double>(trees_.size());
}

void RandomForest::predict_batch(const Matrix& x, std::span<double> out) const {
    if (x.rows() == 0) return;
    if (out.size() != x.rows())
        throw std::invalid_argument("RandomForest::predict_batch: output size mismatch");
    if (trees_.empty()) throw std::logic_error("RandomForest::predict before fit");
    if (x.cols() != num_features_)
        throw std::invalid_argument("DecisionTree::predict: size mismatch");
    const double n_trees = static_cast<double>(trees_.size());
    std::fill(out.begin(), out.end(), 0.0);
    flat_.accumulate(x, 1.0, out);
    // Same final division the scalar loop performs (sum / T, not
    // sum * (1/T)) so the rounding is identical.
    for (double& v : out) v /= n_trees;
}

std::vector<double> RandomForest::feature_importances() const {
    std::vector<double> acc(num_features_, 0.0);
    for (const auto& t : trees_) {
        const auto imp = t.feature_importances();
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += imp[i];
    }
    double total = 0.0;
    for (double v : acc) total += v;
    if (total > 0.0)
        for (double& v : acc) v /= total;
    return acc;
}

}  // namespace xnfv::ml
