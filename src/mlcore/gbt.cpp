#include "mlcore/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "mlcore/linear.hpp"  // sigmoid

namespace xnfv::ml {

void GradientBoostedTrees::fit(const Dataset& d, Rng& rng) {
    if (d.size() == 0) throw std::invalid_argument("GBT::fit: empty dataset");
    d.validate();
    num_features_ = d.num_features();
    task_ = d.task;
    trees_.clear();
    trees_.reserve(config_.num_rounds);

    const std::size_t n = d.size();

    // Base score: mean for regression, prior log-odds for classification.
    if (task_ == Task::binary_classification) {
        double pos = 0.0;
        for (double v : d.y) pos += v;
        const double p = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
        base_score_ = std::log(p / (1.0 - p));
    } else {
        double sum = 0.0;
        for (double v : d.y) sum += v;
        base_score_ = sum / static_cast<double>(n);
    }

    std::vector<double> margin(n, base_score_);

    // Working dataset whose labels are replaced by pseudo-residuals each
    // round.  Declared as regression so the trees split on variance.
    Dataset work;
    work.task = Task::regression;
    work.feature_names = d.feature_names;
    work.x = d.x;
    work.y.assign(n, 0.0);

    const auto n_sub = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.subsample * static_cast<double>(n)));

    for (std::size_t round = 0; round < config_.num_rounds; ++round) {
        // Negative gradient of the loss w.r.t. the margin.
        for (std::size_t i = 0; i < n; ++i) {
            if (task_ == Task::binary_classification) {
                work.y[i] = d.y[i] - sigmoid(margin[i]);
            } else {
                work.y[i] = d.y[i] - margin[i];
            }
        }

        Rng tree_rng = rng.split();
        std::vector<std::size_t> rows;
        if (n_sub < n) {
            rows = tree_rng.sample_without_replacement(n, n_sub);
        } else {
            rows.resize(n);
            std::iota(rows.begin(), rows.end(), std::size_t{0});
        }

        DecisionTree tree(config_.tree);
        tree.fit_rows(work, rows, config_.tree.max_features > 0 ? &tree_rng : nullptr);

        if (task_ == Task::binary_classification) {
            // Newton leaf refinement: leaf value = sum(g) / sum(h) with
            // g = y - p and h = p(1-p), computed over the fitted rows.
            auto& nodes = tree.mutable_nodes();
            std::vector<double> g_sum(nodes.size(), 0.0);
            std::vector<double> h_sum(nodes.size(), 0.0);
            for (std::size_t r : rows) {
                const std::size_t leaf = tree.leaf_index(d.x.row(r));
                const double p = sigmoid(margin[r]);
                g_sum[leaf] += d.y[r] - p;
                h_sum[leaf] += std::max(p * (1.0 - p), 1e-12);
            }
            for (std::size_t li = 0; li < nodes.size(); ++li) {
                if (nodes[li].is_leaf() && h_sum[li] > 0.0)
                    nodes[li].value = g_sum[li] / h_sum[li];
            }
        }

        for (std::size_t i = 0; i < n; ++i)
            margin[i] += config_.learning_rate * tree.predict(d.x.row(i));
        trees_.push_back(std::move(tree));
    }
    rebuild_flat();
}

void GradientBoostedTrees::rebuild_flat() {
    flat_.clear();
    std::size_t total_nodes = 0;
    for (const auto& t : trees_) total_nodes += t.nodes().size();
    flat_.reserve(trees_.size(), total_nodes);
    for (const auto& t : trees_) flat_.add_tree(t.nodes());
}

double GradientBoostedTrees::predict_margin(std::span<const double> x) const {
    if (trees_.empty()) throw std::logic_error("GBT::predict before fit");
    double m = base_score_;
    for (const auto& t : trees_) m += config_.learning_rate * t.predict(x);
    return m;
}

double GradientBoostedTrees::predict(std::span<const double> x) const {
    const double m = predict_margin(x);
    return task_ == Task::binary_classification ? sigmoid(m) : m;
}

void GradientBoostedTrees::predict_batch(const Matrix& x, std::span<double> out) const {
    if (x.rows() == 0) return;
    if (out.size() != x.rows())
        throw std::invalid_argument("GBT::predict_batch: output size mismatch");
    if (trees_.empty()) throw std::logic_error("GBT::predict before fit");
    if (x.cols() != num_features_)
        throw std::invalid_argument("DecisionTree::predict: size mismatch");
    std::fill(out.begin(), out.end(), base_score_);
    // acc += learning_rate * leaf, tree by tree — the same expression
    // and order as the scalar predict_margin() loop.
    flat_.accumulate(x, config_.learning_rate, out);
    if (task_ == Task::binary_classification)
        for (double& v : out) v = sigmoid(v);
}

std::vector<double> GradientBoostedTrees::feature_importances() const {
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
