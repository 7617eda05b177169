#include "core/flat_tree_shap.hpp"

#include <algorithm>
#include <cmath>
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

/// EXTEND: apply one path edge to the collapsed per-distinct-feature state,
/// logging what UNWIND must undo.  Multiplications happen in descent (path)
/// order, exactly like the from-scratch collapse the recursive walker runs
/// at every leaf.
void push_edge(FlatShapScratch& s, std::int32_t f, double indicator, double ratio) {
    const std::size_t m = s.feat.size();
    std::size_t pos = 0;
    while (pos < m && s.feat[pos] != f) ++pos;
    if (pos == m) {
        s.feat.push_back(f);
        s.a.push_back(indicator);
        s.b.push_back(ratio);
        s.edge_pos.push_back(static_cast<std::int32_t>(pos));
        s.edge_created.push_back(1);
        s.edge_saved_a.push_back(0.0);
        s.edge_saved_b.push_back(0.0);
    } else {
        s.edge_pos.push_back(static_cast<std::int32_t>(pos));
        s.edge_created.push_back(0);
        s.edge_saved_a.push_back(s.a[pos]);
        s.edge_saved_b.push_back(s.b[pos]);
        s.a[pos] *= indicator;
        s.b[pos] *= ratio;
    }
}

/// UNWIND: restore the exact prior bits (saved copies, not recomputation),
/// so the state after unwinding equals a fresh collapse of the shorter path.
void pop_edge(FlatShapScratch& s) {
    if (s.edge_created.back() != 0) {
        s.feat.pop_back();
        s.a.pop_back();
        s.b.pop_back();
    } else {
        const auto pos = static_cast<std::size_t>(s.edge_pos.back());
        s.a[pos] = s.edge_saved_a.back();
        s.b[pos] = s.edge_saved_b.back();
    }
    s.edge_pos.pop_back();
    s.edge_created.pop_back();
    s.edge_saved_a.pop_back();
    s.edge_saved_b.pop_back();
}

}  // namespace

void FlatShapScratch::resize(std::size_t num_features, std::size_t max_depth) {
    const std::size_t cap = max_depth + 2;
    frame_node.reserve(cap);
    frame_phase.reserve(cap);
    edge_pos.reserve(cap);
    edge_created.reserve(cap);
    edge_saved_a.reserve(cap);
    edge_saved_b.reserve(cap);
    feat.reserve(cap);
    a.reserve(cap);
    b.reserve(cap);
    if (poly.size() < std::max<std::size_t>(max_depth, 1))
        poly.resize(std::max<std::size_t>(max_depth, 1));
    if (phi.size() < num_features) phi.resize(num_features);
    if (tree_phi.size() < num_features) tree_phi.resize(num_features);
}

std::shared_ptr<const FlatTreeShap> FlatTreeShap::build(const xnfv::ml::Model& model) {
    std::shared_ptr<FlatTreeShap> out(new FlatTreeShap());
    if (const auto* tree = dynamic_cast<const DecisionTree*>(&model)) {
        if (tree->nodes().empty())
            throw std::invalid_argument("tree_shap: unfitted tree");
        out->kind_ = Kind::tree;
        out->add_tree(tree->nodes());
    } else if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
        if (forest->trees().empty())
            throw std::invalid_argument("TreeShap: unfitted forest");
        out->kind_ = Kind::forest;
        for (const auto& t : forest->trees()) out->add_tree(t.nodes());
    } else if (const auto* gbt = dynamic_cast<const GradientBoostedTrees*>(&model)) {
        if (gbt->trees().empty())
            throw std::invalid_argument("TreeShap: unfitted gbt");
        out->kind_ = Kind::gbt;
        out->base_score_ = gbt->base_score();
        out->learning_rate_ = gbt->learning_rate();
        for (const auto& t : gbt->trees()) out->add_tree(t.nodes());
    } else {
        return nullptr;
    }
    out->num_features_ = model.num_features();
    out->build_weight_table();
    return out;
}

void FlatTreeShap::add_tree(std::span<const TreeNode> nodes) {
    const auto rebase = static_cast<std::int32_t>(feature_.size());
    roots_.push_back(rebase);
    for (const TreeNode& n : nodes) {
        feature_.push_back(n.feature);
        threshold_.push_back(n.threshold);
        value_.push_back(n.value);
        if (n.is_leaf()) {
            left_.push_back(-1);
            right_.push_back(-1);
            ratio_left_.push_back(0.0);
            ratio_right_.push_back(0.0);
        } else {
            left_.push_back(rebase + n.left);
            right_.push_back(rebase + n.right);
            // Same denominator guard and division operands the recursive
            // walker evaluates per visit; precomputing yields the same bits.
            const double denom = n.cover > 0.0 ? n.cover : 1.0;
            ratio_left_.push_back(nodes[static_cast<std::size_t>(n.left)].cover / denom);
            ratio_right_.push_back(nodes[static_cast<std::size_t>(n.right)].cover / denom);
        }
    }
    std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
    while (!stack.empty()) {
        const auto [i, depth] = stack.back();
        stack.pop_back();
        const TreeNode& n = nodes[i];
        if (n.is_leaf()) {
            max_depth_ = std::max(max_depth_, depth);
        } else {
            stack.emplace_back(static_cast<std::size_t>(n.left), depth + 1);
            stack.emplace_back(static_cast<std::size_t>(n.right), depth + 1);
        }
    }
}

void FlatTreeShap::build_weight_table() {
    weight_off_.assign(max_depth_ + 1, 0);
    weight_.clear();
    for (std::size_t m = 1; m <= max_depth_; ++m) {
        weight_off_[m] = weight_.size();
        for (std::size_t k = 0; k < m; ++k) weight_.push_back(shapley_weight(k, m));
    }
}

double FlatTreeShap::walk_tree(std::size_t tree, std::span<const double> x,
                               FlatShapScratch& s, std::span<double> phi) const {
    s.frame_node.clear();
    s.frame_phase.clear();
    s.edge_pos.clear();
    s.edge_created.clear();
    s.edge_saved_a.clear();
    s.edge_saved_b.clear();
    s.feat.clear();
    s.a.clear();
    s.b.clear();

    double base = 0.0;
    s.frame_node.push_back(roots_[tree]);
    s.frame_phase.push_back(0);
    while (!s.frame_node.empty()) {
        const auto n = static_cast<std::size_t>(s.frame_node.back());
        if (feature_[n] < 0) {
            // Leaf: the collapsed state is exactly the recursive walker's
            // from-scratch path collapse (see push_edge/pop_edge).
            const double leaf_value = value_[n];
            const std::size_t m = s.feat.size();
            double prob_all_b = 1.0;
            for (std::size_t j = 0; j < m; ++j) prob_all_b *= s.b[j];
            base += leaf_value * prob_all_b;
            if (m != 0) {
                const double* w = weight_.data() + weight_off_[m];
                const double* a = s.a.data();
                const double* b = s.b.data();
                double* poly = s.poly.data();
                for (std::size_t i = 0; i < m; ++i) {
                    std::fill(poly, poly + m, 0.0);
                    poly[0] = 1.0;
                    std::size_t used = 0;
                    for (std::size_t j = 0; j < m; ++j) {
                        if (j == i) continue;
                        for (std::size_t k = used + 2; k-- > 0;)
                            poly[k] = poly[k] * b[j] + (k > 0 ? poly[k - 1] * a[j] : 0.0);
                        ++used;
                    }
                    double contribution = 0.0;
                    for (std::size_t k = 0; k < m; ++k) contribution += w[k] * poly[k];
                    phi[static_cast<std::size_t>(s.feat[i])] +=
                        leaf_value * (a[i] - b[i]) * contribution;
                }
            }
            s.frame_node.pop_back();
            s.frame_phase.pop_back();
            continue;
        }

        const auto f = static_cast<std::size_t>(feature_[n]);
        const std::uint8_t phase = s.frame_phase.back();
        if (phase == 0) {
            push_edge(s, feature_[n], x[f] <= threshold_[n] ? 1.0 : 0.0, ratio_left_[n]);
            s.frame_phase.back() = 1;
            s.frame_node.push_back(left_[n]);
            s.frame_phase.push_back(0);
        } else if (phase == 1) {
            pop_edge(s);
            push_edge(s, feature_[n], x[f] <= threshold_[n] ? 0.0 : 1.0, ratio_right_[n]);
            s.frame_phase.back() = 2;
            s.frame_node.push_back(right_[n]);
            s.frame_phase.push_back(0);
        } else {
            pop_edge(s);
            s.frame_node.pop_back();
            s.frame_phase.pop_back();
        }
    }
    return base;
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
            e.base_value = walk_tree(0, x, s, e.attributions);
            break;
        case Kind::forest: {
            std::fill(s.phi.begin(), s.phi.end(), 0.0);
            double base = 0.0;
            for (std::size_t t = 0; t < roots_.size(); ++t)
                base += walk_tree(t, x, s, s.phi);
            const double inv = 1.0 / static_cast<double>(roots_.size());
            for (std::size_t i = 0; i < d; ++i) e.attributions[i] = s.phi[i] * inv;
            e.base_value = base * inv;
            break;
        }
        case Kind::gbt: {
            std::fill(s.phi.begin(), s.phi.end(), 0.0);
            double base = base_score_;
            for (std::size_t t = 0; t < roots_.size(); ++t) {
                std::fill(s.tree_phi.begin(), s.tree_phi.end(), 0.0);
                base += learning_rate_ * walk_tree(t, x, s, s.tree_phi);
                for (std::size_t i = 0; i < d; ++i)
                    s.phi[i] += learning_rate_ * s.tree_phi[i];
            }
            for (std::size_t i = 0; i < d; ++i) e.attributions[i] = s.phi[i];
            e.base_value = base;
            break;
        }
    }
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
        std::vector<double> block_base(kInstanceBlock);
        for (std::size_t b0 = begin; b0 < end; b0 += kInstanceBlock) {
            const std::size_t bn = std::min(kInstanceBlock, end - b0);
            std::fill(block_phi.begin(), block_phi.begin() + static_cast<std::ptrdiff_t>(bn * d), 0.0);
            for (std::size_t i = 0; i < bn; ++i)
                block_base[i] = kind_ == Kind::gbt ? base_score_ : 0.0;
            for (std::size_t t = 0; t < roots_.size(); ++t) {
                for (std::size_t i = 0; i < bn; ++i) {
                    const auto x = instances.row(b0 + i);
                    std::span<double> phi(block_phi.data() + i * d, d);
                    if (kind_ == Kind::gbt) {
                        std::fill(s.tree_phi.begin(), s.tree_phi.end(), 0.0);
                        block_base[i] += learning_rate_ * walk_tree(t, x, s, s.tree_phi);
                        for (std::size_t j = 0; j < d; ++j)
                            phi[j] += learning_rate_ * s.tree_phi[j];
                    } else {
                        block_base[i] += walk_tree(t, x, s, phi);
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
                    e.base_value = block_base[i] * inv;
                } else {
                    for (std::size_t j = 0; j < d; ++j) e.attributions[j] = phi[j];
                    e.base_value = block_base[i];
                }
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
