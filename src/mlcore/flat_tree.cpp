#include "mlcore/flat_tree.hpp"

#include <algorithm>

#include "mlcore/tree.hpp"

namespace xnfv::ml {

void FlatEnsemble::clear() noexcept {
    feature_.clear();
    threshold_.clear();
    kids_.clear();
    value_.clear();
    roots_.clear();
    depth_.clear();
}

void FlatEnsemble::reserve(std::size_t trees, std::size_t nodes) {
    roots_.reserve(trees);
    depth_.reserve(trees);
    feature_.reserve(nodes);
    threshold_.reserve(nodes);
    kids_.reserve(2 * nodes);
    value_.reserve(nodes);
}

void FlatEnsemble::add_tree(std::span<const TreeNode> nodes) {
    const auto base = static_cast<std::int32_t>(feature_.size());
    roots_.push_back(base);
    for (const TreeNode& n : nodes) {
        const auto self = static_cast<std::int32_t>(feature_.size());
        feature_.push_back(n.feature);
        threshold_.push_back(n.threshold);
        // Leaves self-loop: a lane that has already reached its leaf can keep
        // "stepping" until the deepest lane finishes, without a branch.
        kids_.push_back(n.is_leaf() ? self : base + n.left);
        kids_.push_back(n.is_leaf() ? self : base + n.right);
        value_.push_back(n.value);
    }
    // Max root-to-leaf depth, iteratively (mutable_nodes() callers may hand
    // us trees whose node order no longer guarantees children-after-parent).
    std::int32_t max_depth = 0;
    std::vector<std::pair<std::int32_t, std::int32_t>> stack{{0, 0}};
    while (!stack.empty()) {
        const auto [id, d] = stack.back();
        stack.pop_back();
        const TreeNode& n = nodes[static_cast<std::size_t>(id)];
        if (n.is_leaf()) {
            max_depth = std::max(max_depth, d);
        } else {
            stack.emplace_back(n.left, d + 1);
            stack.emplace_back(n.right, d + 1);
        }
    }
    depth_.push_back(max_depth);
}

void FlatEnsemble::accumulate(const Matrix& x, double scale,
                              std::span<double> acc) const {
    const std::int32_t* const feat = feature_.data();
    const double* const thr = threshold_.data();
    const std::int32_t* const kids = kids_.data();
    const double* const val = value_.data();

    // Leaf feature ids are -1; masking the sign away yields a safe (and
    // irrelevant, because leaf children self-loop) row index, so a finished
    // lane can keep stepping without a branch.
    const auto safe = [](std::int32_t f) noexcept { return f & ~(f >> 31); };

    constexpr std::size_t kLanes = 8;
    const std::size_t rows = x.rows();
    for (std::size_t b0 = 0; b0 < rows; b0 += kRowBlock) {
        const std::size_t b1 = std::min(b0 + kRowBlock, rows);
        for (std::size_t t = 0; t < roots_.size(); ++t) {
            const std::int32_t root = roots_[t];
            const std::int32_t depth = depth_[t];
            std::size_t r = b0;
            // Eight independent descents in flight per tree: a single row's
            // traversal is a serial chain of data-dependent loads, so
            // interleaving rows is what fills the memory pipeline.  The step
            // count is the tree's max depth — a fixed trip count with a
            // branchless body (`!(x <= thr)` indexes the child pair, exactly
            // the scalar walk's comparison), so the random split outcomes
            // never touch the branch predictor.  Lanes that reach their leaf
            // early self-loop until the deepest lane lands.
            for (; r + kLanes <= b1; r += kLanes) {
                const double* rw[kLanes];
                std::int32_t n[kLanes];
                for (std::size_t k = 0; k < kLanes; ++k) {
                    rw[k] = x.row(r + k).data();
                    n[k] = root;
                }
                for (std::int32_t s = 0; s < depth; ++s)
                    for (std::size_t k = 0; k < kLanes; ++k)
                        n[k] = kids[2 * n[k] +
                                    static_cast<std::int32_t>(
                                        !(rw[k][safe(feat[n[k]])] <= thr[n[k]]))];
                for (std::size_t k = 0; k < kLanes; ++k)
                    acc[r + k] += scale * val[n[k]];
            }
            for (; r < b1; ++r) {
                const double* const row = x.row(r).data();
                std::int32_t m = root;
                for (std::int32_t s = 0; s < depth; ++s)
                    m = kids[2 * m + static_cast<std::int32_t>(
                                         !(row[safe(feat[m])] <= thr[m]))];
                acc[r] += scale * val[m];
            }
        }
    }
}

}  // namespace xnfv::ml
