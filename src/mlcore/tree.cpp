#include "mlcore/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace xnfv::ml {

namespace {

/// Impurity of a label multiset given its count, sum and sum of squares.
/// For regression this is the variance; for binary classification Gini
/// impurity 2p(1-p).  Both are computed from the same sufficient statistics.
double impurity(Task task, double n, double sum, double sum_sq) {
    if (n <= 0.0) return 0.0;
    const double mu = sum / n;
    if (task == Task::binary_classification) {
        return 2.0 * mu * (1.0 - mu);
    }
    return std::max(0.0, sum_sq / n - mu * mu);
}

}  // namespace

struct DecisionTree::BuildContext {
    const Dataset& d;
    Rng* rng;
    /// Scratch buffer reused across nodes for sorting row indices by feature.
    std::vector<std::size_t> scratch;
};

void DecisionTree::fit(const Dataset& d, Rng* rng) {
    std::vector<std::size_t> rows(d.size());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    fit_rows(d, rows, rng);
}

void DecisionTree::fit_rows(const Dataset& d, std::span<const std::size_t> rows, Rng* rng) {
    if (rows.empty()) throw std::invalid_argument("DecisionTree::fit: no rows");
    d.validate();
    nodes_.clear();
    num_features_ = d.num_features();
    task_ = d.task;
    importance_raw_.assign(num_features_, 0.0);
    if (config_.max_features > 0 && rng == nullptr)
        throw std::invalid_argument("DecisionTree::fit: max_features needs an Rng");

    BuildContext ctx{.d = d, .rng = rng, .scratch = {}};
    std::vector<std::size_t> mutable_rows(rows.begin(), rows.end());
    build_node(ctx, mutable_rows, 0);
    rebuild_flat();
}

void DecisionTree::rebuild_flat() {
    flat_.clear();
    if (!nodes_.empty()) {
        flat_.reserve(1, nodes_.size());
        flat_.add_tree(nodes_);
    }
}

int DecisionTree::build_node(BuildContext& ctx, std::vector<std::size_t>& rows, int depth) {
    const Dataset& d = ctx.d;
    const double n = static_cast<double>(rows.size());
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t r : rows) {
        sum += d.y[r];
        sum_sq += d.y[r] * d.y[r];
    }
    const double node_impurity = impurity(task_, n, sum, sum_sq);

    const int node_index = static_cast<int>(nodes_.size());
    nodes_.push_back(TreeNode{.value = sum / n, .cover = n});

    const bool can_split = depth < config_.max_depth &&
                           rows.size() >= config_.min_samples_split &&
                           node_impurity > 0.0;
    if (!can_split) return node_index;

    // Candidate features: all, or a random subset (forest mode).
    std::vector<std::size_t> features;
    if (config_.max_features > 0 && config_.max_features < num_features_) {
        features = ctx.rng->sample_without_replacement(num_features_, config_.max_features);
    } else {
        features.resize(num_features_);
        std::iota(features.begin(), features.end(), std::size_t{0});
    }

    // Exhaustive best-split search: for each candidate feature, sort the
    // node's rows by that feature and scan split points between distinct
    // values, tracking prefix label statistics.
    double best_gain = config_.min_impurity_decrease;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;

    auto& sorted = ctx.scratch;
    for (std::size_t f : features) {
        sorted = rows;
        std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
            return d.x(a, f) < d.x(b, f);
        });
        double left_n = 0.0, left_sum = 0.0, left_sq = 0.0;
        for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
            const double yi = d.y[sorted[i]];
            left_n += 1.0;
            left_sum += yi;
            left_sq += yi * yi;
            const double xv = d.x(sorted[i], f);
            const double xnext = d.x(sorted[i + 1], f);
            if (xv == xnext) continue;  // can't split between equal values
            const std::size_t left_count = i + 1;
            const std::size_t right_count = sorted.size() - left_count;
            if (left_count < config_.min_samples_leaf ||
                right_count < config_.min_samples_leaf)
                continue;
            const double right_n = n - left_n;
            const double right_sum = sum - left_sum;
            const double right_sq = sum_sq - left_sq;
            const double gain =
                node_impurity - (left_n / n) * impurity(task_, left_n, left_sum, left_sq) -
                (right_n / n) * impurity(task_, right_n, right_sum, right_sq);
            if (gain > best_gain) {
                best_gain = gain;
                best_feature = f;
                // Midpoint threshold is robust to unseen values between the
                // two training points.
                best_threshold = 0.5 * (xv + xnext);
            }
        }
    }

    if (best_gain <= config_.min_impurity_decrease) return node_index;

    std::vector<std::size_t> left_rows, right_rows;
    left_rows.reserve(rows.size());
    right_rows.reserve(rows.size());
    for (std::size_t r : rows) {
        (d.x(r, best_feature) <= best_threshold ? left_rows : right_rows).push_back(r);
    }
    // Defensive: a degenerate partition means the threshold failed to
    // separate anything (can only happen with NaN inputs); keep the leaf.
    if (left_rows.empty() || right_rows.empty()) return node_index;

    rows.clear();
    rows.shrink_to_fit();  // release before recursing to bound peak memory

    importance_raw_[best_feature] += n * best_gain;
    const int left_child = build_node(ctx, left_rows, depth + 1);
    const int right_child = build_node(ctx, right_rows, depth + 1);
    TreeNode& me = nodes_[node_index];
    me.feature = static_cast<int>(best_feature);
    me.threshold = best_threshold;
    me.left = left_child;
    me.right = right_child;
    return node_index;
}

double DecisionTree::predict(std::span<const double> x) const {
    return nodes_[leaf_index(x)].value;
}

void DecisionTree::predict_batch(const Matrix& x, std::span<double> out) const {
    if (x.rows() == 0) return;
    if (out.size() != x.rows())
        throw std::invalid_argument("DecisionTree::predict_batch: output size mismatch");
    if (nodes_.empty()) throw std::logic_error("DecisionTree::predict before fit");
    if (x.cols() != num_features_)
        throw std::invalid_argument("DecisionTree::predict: size mismatch");
    if (flat_.empty()) {  // stale after mutable_nodes(); scalar path is still correct
        Model::predict_batch(x, out);
        return;
    }
    std::fill(out.begin(), out.end(), 0.0);
    flat_.accumulate(x, 1.0, out);
}

std::size_t DecisionTree::leaf_index(std::span<const double> x) const {
    if (nodes_.empty()) throw std::logic_error("DecisionTree::predict before fit");
    if (x.size() != num_features_)
        throw std::invalid_argument("DecisionTree::predict: size mismatch");
    std::size_t idx = 0;
    while (!nodes_[idx].is_leaf()) {
        const TreeNode& nd = nodes_[idx];
        idx = static_cast<std::size_t>(
            x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right);
    }
    return idx;
}

int DecisionTree::depth() const noexcept {
    if (nodes_.empty()) return 0;
    // Iterative depth computation over the flat array.
    std::vector<std::pair<std::size_t, int>> stack{{0, 1}};
    int best = 0;
    while (!stack.empty()) {
        const auto [idx, dep] = stack.back();
        stack.pop_back();
        best = std::max(best, dep);
        const TreeNode& nd = nodes_[idx];
        if (!nd.is_leaf()) {
            stack.emplace_back(static_cast<std::size_t>(nd.left), dep + 1);
            stack.emplace_back(static_cast<std::size_t>(nd.right), dep + 1);
        }
    }
    return best - 1;  // root alone = depth 0
}

std::size_t DecisionTree::num_leaves() const noexcept {
    std::size_t leaves = 0;
    for (const auto& nd : nodes_) leaves += nd.is_leaf() ? 1 : 0;
    return leaves;
}

std::vector<double> DecisionTree::feature_importances() const {
    std::vector<double> out = importance_raw_;
    double total = 0.0;
    for (double v : out) total += v;
    if (total > 0.0)
        for (double& v : out) v /= total;
    return out;
}

std::string DecisionTree::to_text(std::span<const std::string> names) const {
    std::ostringstream os;
    os.precision(4);
    auto fname = [&](int f) {
        const auto idx = static_cast<std::size_t>(f);
        return idx < names.size() ? names[idx] : "x[" + std::to_string(f) + "]";
    };
    std::vector<std::pair<std::size_t, int>> stack{{0, 0}};
    // Depth-first, right child pushed first so the left branch prints first.
    std::vector<std::tuple<std::size_t, int, bool>> work{{0, 0, false}};
    work.clear();
    work.emplace_back(0, 0, true);
    while (!work.empty()) {
        auto [idx, indent, is_left] = work.back();
        work.pop_back();
        for (int i = 0; i < indent; ++i) os << "  ";
        const TreeNode& nd = nodes_[idx];
        if (nd.is_leaf()) {
            os << "leaf value=" << nd.value << " cover=" << nd.cover << '\n';
        } else {
            os << fname(nd.feature) << " <= " << nd.threshold << " ? (cover=" << nd.cover
               << ")\n";
            work.emplace_back(static_cast<std::size_t>(nd.right), indent + 1, false);
            work.emplace_back(static_cast<std::size_t>(nd.left), indent + 1, true);
        }
        (void)is_left;
    }
    return os.str();
}

}  // namespace xnfv::ml
