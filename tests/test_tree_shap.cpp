#include "tree_shap_oracle.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/linear.hpp"
#include "test_util.hpp"

namespace oracle = xnfv::oracle;
namespace ml = xnfv::ml;
using xnfv::testutil::make_linear_dataset;
using xnfv::testutil::make_xor_dataset;
using xnfv::testutil::max_abs_diff;

namespace {

/// Brute-force Shapley values of the *path-dependent* value function
/// tree_expected_value — the ground truth tree_shap_single must match.
std::vector<double> brute_force_tree_shapley(const ml::DecisionTree& tree,
                                             std::span<const double> x) {
    const std::size_t d = tree.num_features();
    const std::size_t n_subsets = std::size_t{1} << d;
    std::vector<double> v(n_subsets);
    std::vector<bool> mask(d);
    for (std::size_t m = 0; m < n_subsets; ++m) {
        for (std::size_t j = 0; j < d; ++j) mask[j] = (m >> j) & 1u;
        v[m] = oracle::tree_expected_value(tree, x, mask);
    }
    std::vector<double> weight(d);
    for (std::size_t s = 0; s < d; ++s)
        weight[s] = std::exp(std::lgamma(double(s) + 1.0) + std::lgamma(double(d - s)) -
                             std::lgamma(double(d) + 1.0));
    std::vector<double> phi(d, 0.0);
    for (std::size_t m = 0; m < n_subsets; ++m) {
        const auto s = static_cast<std::size_t>(std::popcount(m));
        for (std::size_t i = 0; i < d; ++i) {
            if ((m >> i) & 1u) continue;
            phi[i] += weight[s] * (v[m | (std::size_t{1} << i)] - v[m]);
        }
    }
    return phi;
}

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

}  // namespace

TEST(TreeExpectedValue, FullCoalitionIsPrediction) {
    ml::Rng rng(1);
    const auto data = nonlinear_dataset(400, 3, rng);
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = 5});
    tree.fit(data);
    const std::vector<double> x{0.3, -0.4, 0.8};
    EXPECT_NEAR(oracle::tree_expected_value(tree, x, std::vector<bool>(3, true)),
                tree.predict(x), 1e-12);
}

TEST(TreeExpectedValue, EmptyCoalitionIsCoverWeightedMean) {
    ml::Rng rng(2);
    const auto data = nonlinear_dataset(400, 2, rng);
    ml::DecisionTree tree;
    tree.fit(data);
    // Cover-weighted mean over leaves == training-set mean of predictions.
    double mean = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) mean += tree.predict(data.x.row(i));
    mean /= static_cast<double>(data.size());
    EXPECT_NEAR(oracle::tree_expected_value(tree, std::vector<double>{0, 0},
                                         std::vector<bool>(2, false)),
                mean, 1e-9);
}

TEST(TreeShapSingle, MatchesBruteForceOnSmallTrees) {
    ml::Rng rng(3);
    const auto data = nonlinear_dataset(600, 3, rng);
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = 4});
    tree.fit(data);
    for (const auto& x : {std::vector<double>{0.5, 0.5, 0.5},
                          std::vector<double>{-0.9, 0.1, -0.3},
                          std::vector<double>{0.0, -1.0, 1.0}}) {
        std::vector<double> phi(3, 0.0);
        (void)oracle::tree_shap_single(tree, x, phi);
        const auto truth = brute_force_tree_shapley(tree, x);
        EXPECT_LT(max_abs_diff(phi, truth), 1e-9) << "at x0=" << x[0];
    }
}

TEST(TreeShapSingle, MatchesBruteForceOnDeeperTreesManyPoints) {
    ml::Rng rng(4);
    const auto data = nonlinear_dataset(1500, 4, rng);
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = 7, .min_samples_leaf = 3,
                                                   .min_samples_split = 6});
    tree.fit(data);
    std::vector<double> x(4);
    for (int rep = 0; rep < 20; ++rep) {
        for (auto& v : x) v = rng.uniform(-1.0, 1.0);
        std::vector<double> phi(4, 0.0);
        (void)oracle::tree_shap_single(tree, x, phi);
        EXPECT_LT(max_abs_diff(phi, brute_force_tree_shapley(tree, x)), 1e-9);
    }
}

TEST(TreeShapSingle, EfficiencyAxiom) {
    ml::Rng rng(5);
    const auto data = nonlinear_dataset(800, 3, rng);
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = 6});
    tree.fit(data);
    const std::vector<double> x{0.2, 0.7, -0.6};
    std::vector<double> phi(3, 0.0);
    const double base = oracle::tree_shap_single(tree, x, phi);
    double sum = base;
    for (double p : phi) sum += p;
    EXPECT_NEAR(sum, tree.predict(x), 1e-9);
}

TEST(TreeShapSingle, UnusedFeatureGetsZero) {
    ml::Rng rng(6);
    // Only feature 0 is informative; feature 1 never splits.
    ml::Dataset data;
    data.task = ml::Task::regression;
    for (int i = 0; i < 400; ++i) {
        const double a = rng.uniform(-1, 1);
        data.add(std::vector<double>{a, rng.uniform(-1, 1)}, a > 0 ? 4.0 : -4.0);
    }
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = 2});
    tree.fit(data);
    std::vector<double> phi(2, 0.0);
    (void)oracle::tree_shap_single(tree, std::vector<double>{0.5, 0.5}, phi);
    EXPECT_NEAR(phi[1], 0.0, 1e-12);
    EXPECT_GT(std::abs(phi[0]), 1.0);
}

TEST(TreeShapExplainer, SingleTreeDispatch) {
    ml::Rng rng(7);
    const auto data = nonlinear_dataset(500, 3, rng);
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = 5});
    tree.fit(data);
    oracle::RecursiveTreeShap ts;
    const std::vector<double> x{0.1, 0.2, 0.3};
    const auto e = ts.explain(tree, x);
    EXPECT_EQ(e.attributions.size(), 3u);
    EXPECT_NEAR(e.additive_reconstruction(), e.prediction, 1e-9);
}

TEST(TreeShapExplainer, ForestEfficiencyAndAveraging) {
    ml::Rng rng(8);
    const auto data = nonlinear_dataset(800, 3, rng);
    ml::RandomForest forest(ml::RandomForest::Config{.num_trees = 25});
    forest.fit(data, rng);
    oracle::RecursiveTreeShap ts;
    const std::vector<double> x{0.4, -0.2, 0.6};
    const auto e = ts.explain(forest, x);
    EXPECT_NEAR(e.additive_reconstruction(), forest.predict(x), 1e-9);
}

TEST(TreeShapExplainer, GbtRegressionEfficiency) {
    ml::Rng rng(9);
    const auto data = nonlinear_dataset(800, 3, rng);
    ml::GradientBoostedTrees gbt(ml::GradientBoostedTrees::Config{.num_rounds = 40});
    gbt.fit(data, rng);
    oracle::RecursiveTreeShap ts;
    const std::vector<double> x{-0.3, 0.5, 0.1};
    const auto e = ts.explain(gbt, x);
    EXPECT_NEAR(e.additive_reconstruction(), gbt.predict(x), 1e-9);
}

TEST(TreeShapExplainer, GbtClassifierWorksInMarginSpace) {
    ml::Rng rng(10);
    const auto data = make_xor_dataset(1000, rng);
    ml::GradientBoostedTrees gbt(ml::GradientBoostedTrees::Config{.num_rounds = 30});
    gbt.fit(data, rng);
    oracle::RecursiveTreeShap ts;
    const std::vector<double> x{0.5, -0.5};
    const auto e = ts.explain(gbt, x);
    // Efficiency must hold in margin (log-odds) space.
    EXPECT_NEAR(e.additive_reconstruction(), gbt.predict_margin(x), 1e-9);
    EXPECT_NEAR(ml::sigmoid(e.prediction), gbt.predict(x), 1e-12);
}

TEST(TreeShapExplainer, RejectsNonTreeModels) {
    oracle::RecursiveTreeShap ts;
    const ml::LambdaModel model(2, [](std::span<const double>) { return 0.0; });
    EXPECT_THROW((void)ts.explain(model, std::vector<double>{0, 0}),
                 std::invalid_argument);
    ml::DecisionTree unfitted;
    EXPECT_THROW((void)ts.explain(unfitted, std::vector<double>{}),
                 std::invalid_argument);
}

TEST(TreeShapExplainer, InformativeFeatureDominatesXorForest) {
    ml::Rng rng(11);
    // XOR + a third dummy feature: attributions on the dummy must be small.
    ml::Dataset data;
    data.task = ml::Task::binary_classification;
    for (int i = 0; i < 1500; ++i) {
        const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1),
                     c = rng.uniform(-1, 1);
        data.add(std::vector<double>{a, b, c}, (a > 0) != (b > 0) ? 1.0 : 0.0);
    }
    ml::RandomForest forest(ml::RandomForest::Config{.num_trees = 40});
    forest.fit(data, rng);
    oracle::RecursiveTreeShap ts;
    double dummy_mass = 0.0, info_mass = 0.0;
    for (int rep = 0; rep < 20; ++rep) {
        const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1),
                                    rng.uniform(-1, 1)};
        const auto e = ts.explain(forest, x);
        info_mass += std::abs(e.attributions[0]) + std::abs(e.attributions[1]);
        dummy_mass += std::abs(e.attributions[2]);
    }
    EXPECT_GT(info_mass, 5.0 * dummy_mass);
}

// Sweep: brute-force agreement across tree depths.
class TreeShapDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreeShapDepthSweep, MatchesBruteForceAtDepth) {
    ml::Rng rng(40 + GetParam());
    const auto data = nonlinear_dataset(900, 4, rng);
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = GetParam(),
                                                   .min_samples_leaf = 2,
                                                   .min_samples_split = 4});
    tree.fit(data);
    std::vector<double> x(4);
    for (int rep = 0; rep < 5; ++rep) {
        for (auto& v : x) v = rng.uniform(-1.0, 1.0);
        std::vector<double> phi(4, 0.0);
        (void)oracle::tree_shap_single(tree, x, phi);
        EXPECT_LT(max_abs_diff(phi, brute_force_tree_shapley(tree, x)), 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeShapDepthSweep, ::testing::Values(1, 2, 3, 5, 8));
