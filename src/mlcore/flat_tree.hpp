// Flattened structure-of-arrays storage for tree ensembles.
//
// DecisionTree keeps its nodes as a vector of TreeNode structs — convenient
// for fitting and for the TreeSHAP walker, but poor for batch inference: each
// descent pointer-chases 48-byte structs and every row pays a virtual
// Model::predict() call.  FlatEnsemble re-packs one or more trees into
// parallel arrays (int32 feature, double threshold, interleaved int32 child
// pair, double leaf value) indexed by a single absolute node id, and its
// accumulate() kernel walks a *block of rows per tree* so each tree's arrays
// stay hot in cache across the whole block.  The descent itself is
// branchless (child pair indexed by the comparison result) and runs eight
// rows in lockstep for exactly depth(tree) steps, so there is no
// data-dependent branch anywhere in the hot loop — see DESIGN.md §11.
// Built eagerly at the end of fit()/load().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mlcore/matrix.hpp"

namespace xnfv::ml {

struct TreeNode;

/// One or more flattened trees sharing contiguous SoA node storage.
class FlatEnsemble {
public:
    /// Appends one tree given its flat TreeNode vector (node 0 = root).
    /// Child indices are rebased onto the shared arrays.
    void add_tree(std::span<const TreeNode> nodes);

    void clear() noexcept;
    void reserve(std::size_t trees, std::size_t nodes);

    [[nodiscard]] bool empty() const noexcept { return roots_.empty(); }
    [[nodiscard]] std::size_t num_trees() const noexcept { return roots_.size(); }
    [[nodiscard]] std::size_t num_nodes() const noexcept { return feature_.size(); }

    /// For every row r of x (acc.size() == x.rows()):
    ///     acc[r] += scale * leaf_value(tree, x.row(r))
    /// summed over trees in insertion order — per row this is exactly the
    /// tree-order sum the scalar predict() loops compute, so results are
    /// bitwise identical to them.  Iteration is tree-major over row blocks of
    /// kRowBlock for cache locality.
    void accumulate(const Matrix& x, double scale, std::span<double> acc) const;

    /// Rows per inner block of accumulate().  Each tree's node arrays are
    /// streamed through cache once per block, so larger blocks amortize that
    /// cost over more descents; 1024 rows keeps the 8 KiB accumulator stripe
    /// comfortably in L1 while capturing nearly all of the amortization win
    /// measured on multi-hundred-tree ensembles.
    static constexpr std::size_t kRowBlock = 1024;

private:
    std::vector<std::int32_t> feature_;    ///< split feature; -1 marks a leaf
    std::vector<double> threshold_;        ///< left iff x[feature] <= threshold
    /// Interleaved child pairs: kids_[2n] = left, kids_[2n+1] = right, so the
    /// comparison result selects the next node without a branch.  Leaves
    /// store their own id in both slots (a finished lane self-loops).
    std::vector<std::int32_t> kids_;
    std::vector<double> value_;            ///< leaf prediction (junk for internal)
    std::vector<std::int32_t> roots_;      ///< absolute root id per tree
    std::vector<std::int32_t> depth_;      ///< max root-to-leaf depth per tree
};

}  // namespace xnfv::ml
