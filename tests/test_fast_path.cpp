// Fast-path explainer pins (DESIGN.md §16).
//
// 1. FlatTreeShap must be *bitwise identical* to the recursive walker
//    (tests/tree_shap_oracle.hpp) on DecisionTree / RandomForest / GBT — every
//    attribution, base value and prediction compared with exact double
//    equality, single-threaded and through the tree-major-blocked batch
//    kernel at several thread counts.  The cases cover leaves wider than the
//    kernel's precomputed tables, rows on split thresholds, and a path wider
//    than one 64-bit indicator mask; hex-float goldens pin the absolute bits.
//    The TreeShap adapter must follow the model it is handed, not its
//    address.
// 2. Integrated Gradients must satisfy the completeness axiom
//    (sum phi = f(x) − f(baseline)): ulp-scaled on a linear-regime MLP
//    (constant gradient ⇒ the midpoint Riemann sum is exact up to rounding)
//    and at the discretization-limited tolerance on a trained nonlinear MLP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/flat_tree_shap.hpp"
#include "core/gradient.hpp"
#include "golden_scenario.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/mlp.hpp"
#include "mlcore/model.hpp"
#include "test_util.hpp"
#include "tree_shap_oracle.hpp"

namespace ml = xnfv::ml;
namespace oracle = xnfv::oracle;
namespace xai = xnfv::xai;
using xnfv::testutil::make_linear_dataset;
using xnfv::testutil::make_xor_dataset;

namespace {

ml::Dataset nonlinear_dataset(std::size_t n, std::size_t d, ml::Rng& rng) {
    ml::Dataset data;
    data.task = ml::Task::regression;
    std::vector<double> row(d);
    for (std::size_t i = 0; i < n; ++i) {
        for (auto& v : row) v = rng.uniform(-1.0, 1.0);
        double y = 3.0 * row[0];
        if (d > 1) y += (row[0] > 0 ? 2.0 : -1.0) * row[1];
        if (d > 2) y += std::abs(row[2]);
        data.add(row, y);
    }
    return data;
}

ml::Matrix probe_points(std::size_t n, std::size_t d, ml::Rng& rng) {
    ml::Matrix x(n, d);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform(-1.0, 1.0);
    return x;
}

void expect_bitwise(const xai::Explanation& flat, const xai::Explanation& ref,
                    const char* what) {
    EXPECT_EQ(flat.method, ref.method) << what;
    EXPECT_EQ(flat.prediction, ref.prediction) << what;
    EXPECT_EQ(flat.base_value, ref.base_value) << what;
    ASSERT_EQ(flat.attributions.size(), ref.attributions.size()) << what;
    for (std::size_t j = 0; j < ref.attributions.size(); ++j)
        EXPECT_EQ(flat.attributions[j], ref.attributions[j])
            << what << " feature " << j;
}

/// Pins flat == recursive per row, then batch at each thread count ==
/// per-row explain — all exact.
void pin_flat_vs_recursive(const ml::Model& model, const ml::Matrix& points,
                           const char* what,
                           std::initializer_list<std::size_t> thread_counts = {1, 8}) {
    const auto flat = xai::FlatTreeShap::build(model);
    ASSERT_NE(flat, nullptr) << what;
    oracle::RecursiveTreeShap recursive;
    xai::FlatShapScratch scratch;
    std::vector<xai::Explanation> singles(points.rows());
    for (std::size_t i = 0; i < points.rows(); ++i) {
        singles[i] = flat->explain(points.row(i), scratch);
        expect_bitwise(singles[i], recursive.explain(model, points.row(i)), what);
    }
    for (const std::size_t threads : thread_counts) {
        const auto batch = flat->explain_batch(points, threads);
        ASSERT_EQ(batch.size(), points.rows()) << what;
        for (std::size_t i = 0; i < batch.size(); ++i)
            expect_bitwise(batch[i], singles[i], what);
    }
}

}  // namespace

TEST(FlatTreeShap, BitwiseEqualsRecursiveOnDecisionTree) {
    ml::Rng rng(21);
    const auto data = nonlinear_dataset(1200, 4, rng);
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = 8,
                                                   .min_samples_leaf = 2,
                                                   .min_samples_split = 4});
    tree.fit(data);
    pin_flat_vs_recursive(tree, probe_points(40, 4, rng), "tree");
}

TEST(FlatTreeShap, BitwiseEqualsRecursiveOnForest) {
    ml::Rng rng(22);
    const auto data = nonlinear_dataset(900, 5, rng);
    ml::RandomForest forest(ml::RandomForest::Config{.num_trees = 17});
    forest.fit(data, rng);
    pin_flat_vs_recursive(forest, probe_points(40, 5, rng), "forest");
}

TEST(FlatTreeShap, BitwiseEqualsRecursiveOnGbtRegression) {
    ml::Rng rng(23);
    const auto data = nonlinear_dataset(900, 4, rng);
    ml::GradientBoostedTrees gbt(ml::GradientBoostedTrees::Config{.num_rounds = 35});
    gbt.fit(data, rng);
    pin_flat_vs_recursive(gbt, probe_points(40, 4, rng), "gbt");
}

TEST(FlatTreeShap, BitwiseEqualsRecursiveOnGbtClassifierMarginSpace) {
    ml::Rng rng(24);
    const auto data = make_xor_dataset(1200, rng);
    ml::GradientBoostedTrees gbt(ml::GradientBoostedTrees::Config{.num_rounds = 25});
    gbt.fit(data, rng);
    pin_flat_vs_recursive(gbt, probe_points(40, 2, rng), "gbt-classifier");
}

TEST(FlatTreeShap, StumpRootLeafMatchesRecursive) {
    // Constant labels: no split clears min_impurity_decrease, so the fitted
    // tree is a single root leaf (the m == 0 collapse path).
    ml::Dataset data;
    data.task = ml::Task::regression;
    for (int i = 0; i < 50; ++i)
        data.add(std::vector<double>{static_cast<double>(i), 1.0}, 7.5);
    ml::DecisionTree stump;
    stump.fit(data);
    ASSERT_TRUE(stump.nodes().front().is_leaf());
    ml::Rng rng(25);
    pin_flat_vs_recursive(stump, probe_points(4, 2, rng), "stump");
}

TEST(FlatTreeShap, ScratchReusableAcrossModelsOfDifferentShape) {
    ml::Rng rng(26);
    const auto small_data = nonlinear_dataset(500, 2, rng);
    const auto big_data = nonlinear_dataset(500, 6, rng);
    ml::DecisionTree small_tree(ml::DecisionTree::Config{.max_depth = 3});
    small_tree.fit(small_data);
    ml::RandomForest big_forest(ml::RandomForest::Config{.num_trees = 9});
    big_forest.fit(big_data, rng);
    const auto small_flat = xai::FlatTreeShap::build(small_tree);
    const auto big_flat = xai::FlatTreeShap::build(big_forest);
    oracle::RecursiveTreeShap recursive;
    xai::FlatShapScratch shared;  // alternates between both shapes
    const auto small_x = probe_points(6, 2, rng);
    const auto big_x = probe_points(6, 6, rng);
    for (std::size_t i = 0; i < 6; ++i) {
        expect_bitwise(small_flat->explain(small_x.row(i), shared),
                       recursive.explain(small_tree, small_x.row(i)), "small");
        expect_bitwise(big_flat->explain(big_x.row(i), shared),
                       recursive.explain(big_forest, big_x.row(i)), "big");
    }
}

// --- Wide paths, threshold ties, absolute bits -----------------------------

namespace {

/// Label that depends on every feature, so depth-8 trees spread their splits
/// over many features and revisit some of them.
ml::Dataset wide_dataset(std::size_t n, std::size_t d, ml::Rng& rng) {
    ml::Dataset data;
    data.task = ml::Task::regression;
    std::vector<double> row(d);
    for (std::size_t i = 0; i < n; ++i) {
        for (auto& v : row) v = rng.uniform(-1.0, 1.0);
        double y = row[0] * row[1];
        for (std::size_t j = 0; j < d; ++j)
            y += static_cast<double>(j + 1) / static_cast<double>(d) * std::sin(2.5 * row[j]);
        data.add(row, y);
    }
    return data;
}

/// Shape of the collapsed root-to-leaf paths of a set of trees, read from the
/// model's own nodes.
struct PathShape {
    std::size_t max_distinct = 0;  ///< most distinct features on one path
    bool repeats = false;          ///< some path splits twice on one feature
};

void scan_paths(const std::vector<ml::TreeNode>& nodes, PathShape& shape) {
    struct Pending {
        std::size_t node;
        std::vector<int> features;  ///< split features above `node`, in path order
    };
    std::vector<Pending> stack{{0, {}}};
    while (!stack.empty()) {
        Pending p = std::move(stack.back());
        stack.pop_back();
        const ml::TreeNode& n = nodes[p.node];
        if (n.is_leaf()) {
            auto distinct = p.features;
            std::sort(distinct.begin(), distinct.end());
            distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
            shape.max_distinct = std::max(shape.max_distinct, distinct.size());
            shape.repeats = shape.repeats || distinct.size() < p.features.size();
            continue;
        }
        p.features.push_back(n.feature);
        stack.push_back({static_cast<std::size_t>(n.left), p.features});
        stack.push_back({static_cast<std::size_t>(n.right), std::move(p.features)});
    }
}

template <typename Trees>
PathShape path_shape(const Trees& trees) {
    PathShape shape;
    for (const auto& t : trees) scan_paths(t.nodes(), shape);
    return shape;
}

/// Rows whose features sit exactly on split thresholds the model uses, where
/// `x == threshold` must go left in both walkers: row r takes, per feature,
/// the (r + feature)-th threshold any tree splits that feature on.
template <typename Trees>
ml::Matrix threshold_rows(const Trees& trees, std::size_t d, std::size_t n, ml::Rng& rng) {
    std::vector<std::vector<double>> thresholds(d);
    for (const auto& t : trees)
        for (const ml::TreeNode& node : t.nodes())
            if (!node.is_leaf())
                thresholds[static_cast<std::size_t>(node.feature)].push_back(node.threshold);
    ml::Matrix x(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t j = 0; j < d; ++j)
            x(r, j) = thresholds[j].empty()
                          ? rng.uniform(-1.0, 1.0)
                          : thresholds[j][(r + j) % thresholds[j].size()];
    return x;
}

}  // namespace

TEST(FlatTreeShap, WideForestPathsMatchRecursive) {
    // Depth-8 trees on 14 features: leaves wider than the precomputed
    // tables take the prefix-polynomial path.
    ml::Rng rng(41);
    const auto data = wide_dataset(1200, 14, rng);
    ml::RandomForest forest(ml::RandomForest::Config{
        .num_trees = 10,
        .tree = {.max_depth = 8, .min_samples_leaf = 2, .min_samples_split = 4}});
    forest.fit(data, rng);
    const auto shape = path_shape(forest.trees());
    ASSERT_GT(shape.max_distinct, xai::FlatTreeShap::kMaxTableWidth);
    ASSERT_TRUE(shape.repeats);
    pin_flat_vs_recursive(forest, probe_points(40, 14, rng), "wide forest", {1, 4});
    pin_flat_vs_recursive(forest, threshold_rows(forest.trees(), 14, 24, rng),
                          "wide forest, rows on thresholds", {1, 4});
}

TEST(FlatTreeShap, WideGbtPathsMatchRecursive) {
    ml::Rng rng(42);
    const auto data = wide_dataset(1200, 12, rng);
    ml::GradientBoostedTrees gbt(ml::GradientBoostedTrees::Config{
        .num_rounds = 10,
        .tree = {.max_depth = 8, .min_samples_leaf = 2, .min_samples_split = 4}});
    gbt.fit(data, rng);
    const auto shape = path_shape(gbt.trees());
    ASSERT_GT(shape.max_distinct, xai::FlatTreeShap::kMaxTableWidth);
    ASSERT_TRUE(shape.repeats);
    pin_flat_vs_recursive(gbt, probe_points(40, 12, rng), "wide gbt", {1, 4});
    pin_flat_vs_recursive(gbt, threshold_rows(gbt.trees(), 12, 24, rng),
                          "wide gbt, rows on thresholds", {1, 4});
}

TEST(FlatTreeShap, PathWiderThanOneMaskWordMatchesRecursive) {
    // A hand-built caterpillar: spine node s splits on feature s (then on a
    // few features again), its left child is a leaf and its right child the
    // next spine node.  The deepest leaves see 70 distinct features, so
    // their indicators span two 64-bit mask words.
    constexpr int kFeatures = 70;
    std::vector<int> spine(kFeatures);
    for (int f = 0; f < kFeatures; ++f) spine[static_cast<std::size_t>(f)] = f;
    for (const int again : {3, 66, 0, 69}) spine.push_back(again);
    const auto splits = static_cast<int>(spine.size());
    std::ostringstream text;
    text.precision(17);
    text << "tree " << kFeatures << " 0 " << 2 * splits + 1 << '\n';
    double cover = 1.0e6;
    for (int s = 0; s < splits; ++s) {
        // Node 2s is spine node s, node 2s + 1 its left leaf.
        const double right_cover = std::floor(cover * (0.9 + 0.004 * (s % 11)));
        const double threshold = 0.1 * ((s * 7) % 9 - 4);
        text << spine[static_cast<std::size_t>(s)] << ' ' << threshold << ' ' << 2 * s + 1
             << ' ' << 2 * s + 2 << " 0 " << cover << '\n';
        text << "-1 0 -1 -1 " << std::sin(1.3 * s) << ' ' << cover - right_cover << '\n';
        cover = right_cover;
    }
    text << "-1 0 -1 -1 2.5 " << cover << '\n' << kFeatures;
    for (int f = 0; f < kFeatures; ++f) text << " 0";
    text << '\n';
    ml::DecisionTree tree;
    std::istringstream in(text.str());
    tree.load(in);
    PathShape shape;
    scan_paths(tree.nodes(), shape);
    ASSERT_GE(shape.max_distinct, 65u);
    ASSERT_TRUE(shape.repeats);

    ml::Rng rng(43);
    auto points = probe_points(12, kFeatures, rng);
    // Two rows that follow the spine to the deepest leaf, one of them then
    // failing only the splits in the second mask word.
    for (const std::size_t r : {std::size_t{0}, std::size_t{1}})
        for (int f = 0; f < kFeatures; ++f) points(r, static_cast<std::size_t>(f)) = 1.0;
    for (int f = 64; f < kFeatures; f += 2) points(1, static_cast<std::size_t>(f)) = -1.0;
    pin_flat_vs_recursive(tree, points, "caterpillar", {1, 4});
}

TEST(FlatTreeShap, GoldenBitsOnFixedForestAndGbt) {
    // Hex floats recorded from the recursive walker and the flat kernel of
    // the commit before per-leaf tables, on tests/golden_scenario.hpp's
    // models: {base_value, prediction, {attributions}} per row.
    struct Golden {
        std::size_t row;
        double base_value;
        double prediction;
        std::vector<double> attributions;
    };
    const auto data = xnfv::golden::make_dataset();
    const auto forest = xnfv::golden::make_forest(data);
    const auto gbt = xnfv::golden::make_gbt(data);
    const std::vector<Golden> forest_golden{
        {3, 0x1.15f49e33260d9p+0, 0x1.5c8b1db671ae4p+0,
         {-0x1.3c66e1da2016cp-1, 0x1.887fe9880db8ap+0, -0x1.553af8145aab7p-2,
          -0x1.9e7e65934d86ap-3, -0x1.00225c6e25831p-2, 0x1.2b8945dabd7f9p-3}},
        {57, 0x1.15f49e33260d9p+0, 0x1.36f2b6531cfe8p+2,
         {0x1.86c283840648ep+0, 0x1.5961a43eb3c45p+0, 0x1.51f039ab5c67fp-1,
          0x1.761d79d5a2331p-4, 0x1.201f150d7adccp-3, 0x1.543c41dc2c84bp-8}},
        {121, 0x1.15f49e33260d9p+0, 0x1.6409898806779p+2,
         {0x1.9f1315a3eadd6p+0, 0x1.ad542ea8cc55ap+0, 0x1.997da0d8bf366p-1,
          0x1.b62729829e441p-3, 0x1.f355bd90f0415p-5, 0x1.aabe01701b7bap-4}}};
    const std::vector<Golden> gbt_golden{
        {3, 0x1.2ea74099d7d1ep+0, 0x1.7f17351b36a4ap+0,
         {-0x1.d210bd0670674p-1, 0x1.f648a4fd4ca34p+0, -0x1.12dd3013f19b4p-2,
          -0x1.1ce45f73d6cd5p-4, -0x1.831356f937303p-3, -0x1.af42a8eaa71bep-3}},
        {57, 0x1.2ea74099d7d1ep+0, 0x1.24c7981d1d619p+2,
         {0x1.bda48ba06189bp+0, 0x1.26836d7f90023p+0, 0x1.85964f3fd0b56p-3,
          -0x1.1048d1f8d8b87p-6, 0x1.0667b5f09a786p-2, 0x1.243929e6ed6a3p-4}},
        {121, 0x1.2ea74099d7d1ep+0, 0x1.76b804cdb02d7p+2,
         {0x1.508c8bcfd7494p+1, 0x1.e1d99719906f3p+0, 0x1.72394c54be988p-3,
          -0x1.9ca1fac3ff3a8p-5, -0x1.1c3a268ccdb1cp-5, 0x1.0c5db6398771ap-4}}};
    const auto check = [&](const ml::Model& model, const std::vector<Golden>& golden,
                           const char* what) {
        const auto flat = xai::FlatTreeShap::build(model);
        ASSERT_NE(flat, nullptr) << what;
        xai::FlatShapScratch scratch;
        oracle::RecursiveTreeShap recursive;
        std::vector<std::size_t> rows;
        for (const Golden& g : golden) rows.push_back(g.row);
        const auto points = data.x.take_rows(rows);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            const auto batch = flat->explain_batch(points, threads);
            for (std::size_t i = 0; i < golden.size(); ++i) {
                const Golden& g = golden[i];
                SCOPED_TRACE(std::string(what) + " row " + std::to_string(g.row) +
                             " threads " + std::to_string(threads));
                xai::Explanation pinned;
                pinned.method = "tree_shap";
                pinned.prediction = g.prediction;
                pinned.base_value = g.base_value;
                pinned.attributions = g.attributions;
                expect_bitwise(flat->explain(points.row(i), scratch), pinned, what);
                expect_bitwise(batch[i], pinned, what);
                expect_bitwise(recursive.explain(model, points.row(i)), pinned, what);
            }
        }
    };
    check(forest, forest_golden, "golden forest");
    check(gbt, gbt_golden, "golden gbt");
}

TEST(FlatTreeShapExplainer, AdapterMatchesRecursiveAndKeepsName) {
    ml::Rng rng(27);
    const auto data = nonlinear_dataset(800, 3, rng);
    ml::RandomForest forest(ml::RandomForest::Config{.num_trees = 11});
    forest.fit(data, rng);
    xai::TreeShap fast;
    oracle::RecursiveTreeShap recursive;
    EXPECT_EQ(fast.name(), recursive.name());
    const auto x = probe_points(8, 3, rng);
    for (std::size_t i = 0; i < 8; ++i)
        expect_bitwise(fast.explain(forest, x.row(i)),
                       recursive.explain(forest, x.row(i)), "adapter");
    const auto batch = fast.explain_batch(forest, x);
    for (std::size_t i = 0; i < 8; ++i)
        expect_bitwise(batch[i], recursive.explain(forest, x.row(i)), "adapter-batch");
}

TEST(FlatTreeShapExplainer, FollowsAModelRefitOrReplacedInTheSameStorage) {
    // One adapter instance sees three models at one address: a forest, the
    // same object re-fit on other data, and a second forest emplaced in the
    // same storage.  Each must be explained with its own trees.
    ml::Rng rng(28);
    const auto first = nonlinear_dataset(600, 4, rng);
    const auto second = nonlinear_dataset(600, 4, rng);
    const auto x = probe_points(6, 4, rng);
    xai::TreeShap fast;
    oracle::RecursiveTreeShap recursive;
    const auto pin = [&](const ml::Model& model, const char* what) {
        const auto batch = fast.explain_batch(model, x);
        for (std::size_t i = 0; i < x.rows(); ++i) {
            const auto ref = recursive.explain(model, x.row(i));
            expect_bitwise(fast.explain(model, x.row(i)), ref, what);
            expect_bitwise(batch[i], ref, what);
        }
        return recursive.explain(model, x.row(0)).base_value;
    };
    std::optional<ml::RandomForest> forest;
    forest.emplace(ml::RandomForest::Config{.num_trees = 20});
    forest->fit(first, rng);
    const ml::Model* const address = &*forest;
    const double first_base = pin(*forest, "first fit");
    forest->fit(second, rng);
    const double refit_base = pin(*forest, "re-fit");
    forest.emplace(ml::RandomForest::Config{.num_trees = 9});
    forest->fit(first, rng);
    ASSERT_EQ(&*forest, address);
    const double emplaced_base = pin(*forest, "emplaced");
    // The three models differ, so a kernel reused by address would show.
    EXPECT_NE(refit_base, first_base);
    EXPECT_NE(emplaced_base, refit_base);
}

TEST(FlatTreeShapExplainer, RejectsNonTreeModelsWithRecursiveErrorText) {
    const ml::LambdaModel model(2, [](std::span<const double>) { return 0.0; });
    xai::TreeShap fast;
    try {
        (void)fast.explain(model, std::vector<double>{0, 0});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "TreeShap: model 'lambda' is not a supported tree ensemble");
    }
    EXPECT_EQ(xai::FlatTreeShap::build(model), nullptr);
    ml::DecisionTree unfitted;
    EXPECT_THROW((void)fast.explain(unfitted, std::vector<double>{}),
                 std::invalid_argument);
}

// --- Integrated Gradients completeness axiom -------------------------------

namespace {

/// tol = `ulps` units in the last place of the accumulated magnitude.
void expect_complete(const xai::Explanation& e, double ulps_or_abs, bool ulp_scaled) {
    double magnitude = std::abs(e.prediction) + std::abs(e.base_value);
    for (double phi : e.attributions) magnitude += std::abs(phi);
    const double tol =
        ulp_scaled ? ulps_or_abs * DBL_EPSILON * magnitude : ulps_or_abs;
    EXPECT_NEAR(e.additive_reconstruction(), e.prediction, tol);
}

}  // namespace

TEST(IntegratedGradientsCompleteness, UlpScaledOnLinearRegimeMlp) {
    // No hidden layers ⇒ the MLP is exactly linear, its analytic gradient is
    // constant along the path, and the midpoint Riemann sum integrates it
    // exactly — completeness must hold to rounding error, not just to the
    // O(1/steps^2) discretization bound.
    ml::Rng rng(31);
    const std::vector<double> w{2.0, -3.0, 0.5};
    const auto data = make_linear_dataset(w, 1.0, 300, rng);
    ml::Mlp mlp(ml::Mlp::Config{.hidden_layers = {}, .epochs = 30});
    mlp.fit(data, rng);
    xai::IntegratedGradients ig{xai::BackgroundData(data.x, 64)};
    for (int rep = 0; rep < 10; ++rep) {
        std::vector<double> x(3);
        for (auto& v : x) v = rng.uniform(-1.0, 1.0);
        const auto e = ig.explain(mlp, x);
        expect_complete(e, 256.0, /*ulp_scaled=*/true);
    }
}

TEST(IntegratedGradientsCompleteness, DiscretizationBoundOnTrainedMlp) {
    // tanh keeps the integrand smooth (midpoint error O(1/steps^2)); relu
    // kinks would degrade that to O(1/steps) and need far more steps.
    ml::Rng rng(32);
    const auto data = make_xor_dataset(900, rng);
    ml::Mlp mlp(ml::Mlp::Config{.hidden_layers = {16, 16},
                                .activation = ml::Activation::tanh,
                                .epochs = 60});
    mlp.fit(data, rng);
    xai::IntegratedGradients ig{xai::BackgroundData(data.x, 64),
                                xai::IntegratedGradients::Config{.steps = 200}};
    for (int rep = 0; rep < 5; ++rep) {
        std::vector<double> x{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        expect_complete(ig.explain(mlp, x), 1e-3, /*ulp_scaled=*/false);
    }
}

TEST(IntegratedGradientsCompleteness, MoreStepsTightenTheBound) {
    ml::Rng rng(33);
    const auto data = make_xor_dataset(900, rng);
    ml::Mlp mlp(ml::Mlp::Config{.hidden_layers = {16}, .epochs = 60});
    mlp.fit(data, rng);
    const xai::BackgroundData background(data.x, 64);
    const std::vector<double> x{0.6, -0.4};
    auto gap = [&](std::size_t steps) {
        xai::IntegratedGradients ig{background, xai::IntegratedGradients::Config{steps}};
        const auto e = ig.explain(mlp, x);
        return std::abs(e.additive_reconstruction() - e.prediction);
    };
    // Not strictly monotone per-point in general, but 4 → 256 steps must
    // shrink the completeness gap (or both are already at rounding level).
    const double coarse = gap(4), fine = gap(256);
    EXPECT_LE(fine, coarse + 1e-12);
}
