#include <gtest/gtest.h>

#include "core/drift.hpp"
#include "core/exact_shapley.hpp"
#include "core/flat_tree_shap.hpp"
#include "core/report.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/linear.hpp"
#include "test_util.hpp"

namespace xai = xnfv::xai;
namespace ml = xnfv::ml;
using xnfv::testutil::make_uniform_background;

namespace {

xai::GlobalAttribution make_global(std::vector<double> mass) {
    xai::GlobalAttribution g;
    g.mean_abs = std::move(mass);
    g.mean_signed.assign(g.mean_abs.size(), 0.0);
    g.num_instances = 10;
    return g;
}

}  // namespace

TEST(Drift, IdenticalWindowsAreStable) {
    const auto g = make_global({0.5, 0.3, 0.1, 0.05});
    const auto report = xai::attribution_drift(g, g);
    EXPECT_FALSE(report.drifted);
    EXPECT_NEAR(report.rank_correlation, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(report.top3_jaccard, 1.0);
    EXPECT_NEAR(report.mass_shift, 0.0, 1e-12);
}

TEST(Drift, ScalingInvariance) {
    // Uniform scaling of attribution magnitudes (e.g. a recalibrated model)
    // is not drift: shares are compared, not absolute values.
    const auto a = make_global({0.5, 0.3, 0.1});
    const auto b = make_global({5.0, 3.0, 1.0});
    const auto report = xai::attribution_drift(a, b);
    EXPECT_FALSE(report.drifted);
    EXPECT_NEAR(report.mass_shift, 0.0, 1e-12);
}

TEST(Drift, ReorderedTopFeaturesFlagDrift) {
    const auto before = make_global({0.6, 0.25, 0.1, 0.03, 0.02});
    const auto after = make_global({0.02, 0.03, 0.1, 0.25, 0.6});  // reversed
    const auto report = xai::attribution_drift(before, after);
    EXPECT_TRUE(report.drifted);
    EXPECT_LT(report.rank_correlation, 0.0);
}

TEST(Drift, MassMigrationFlagsDriftEvenWithSameTopFeature) {
    // Top feature unchanged, but half the mass moved elsewhere.
    const auto before = make_global({0.9, 0.05, 0.05});
    const auto after = make_global({0.5, 0.45, 0.05});
    const auto report = xai::attribution_drift(before, after);
    EXPECT_GT(report.mass_shift, 0.3);
    EXPECT_TRUE(report.drifted);
}

TEST(Drift, TopMoversIdentifyTheShiftedFeature) {
    const auto before = make_global({0.8, 0.1, 0.1});
    const auto after = make_global({0.2, 0.7, 0.1});
    const auto report = xai::attribution_drift(before, after);
    ASSERT_FALSE(report.top_movers.empty());
    // Feature 1 gained the most share.
    EXPECT_EQ(report.top_movers[0].first, 1u);
    EXPECT_GT(report.top_movers[0].second, 0.0);
}

TEST(Drift, ToStringMentionsStatusAndMovers) {
    const auto before = make_global({0.8, 0.2});
    const auto after = make_global({0.2, 0.8});
    const auto report = xai::attribution_drift(before, after);
    const std::vector<std::string> names{"cpu", "link"};
    const auto text = report.to_string(names);
    EXPECT_NE(text.find("DRIFTED"), std::string::npos);
    EXPECT_NE(text.find("cpu"), std::string::npos);
}

TEST(Drift, RejectsMismatchedFeatureSets) {
    const auto a = make_global({0.5, 0.5});
    const auto b = make_global({0.5, 0.3, 0.2});
    EXPECT_THROW((void)xai::attribution_drift(a, b), std::invalid_argument);
    EXPECT_THROW((void)xai::attribution_drift(make_global({}), make_global({})),
                 std::invalid_argument);
}

TEST(Drift, EndToEndDetectsRetrainedModelShift) {
    // Two forests trained on different generating processes produce drifted
    // attribution profiles over the same instances.
    ml::Rng rng(1);
    ml::Dataset d_cpu, d_link;
    d_cpu.task = d_link.task = ml::Task::regression;
    for (int i = 0; i < 600; ++i) {
        const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
        d_cpu.add(std::vector<double>{a, b}, 8.0 * a);   // feature 0 matters
        d_link.add(std::vector<double>{a, b}, 8.0 * b);  // feature 1 matters
    }
    ml::RandomForest m_cpu(ml::RandomForest::Config{.num_trees = 20});
    ml::RandomForest m_link(ml::RandomForest::Config{.num_trees = 20});
    m_cpu.fit(d_cpu, rng);
    m_link.fit(d_link, rng);

    const auto instances = make_uniform_background(30, 2, rng);
    xai::TreeShap ts;
    const std::vector<std::string> names{"f0", "f1"};
    const auto g_cpu = xai::aggregate_explanations(ts, m_cpu, instances, names);
    const auto g_link = xai::aggregate_explanations(ts, m_link, instances, names);

    EXPECT_FALSE(xai::attribution_drift(g_cpu, g_cpu).drifted);
    EXPECT_TRUE(xai::attribution_drift(g_cpu, g_link).drifted);
}

TEST(Report, ContainsDriversAndStatus) {
    ml::Rng rng(2);
    const xai::BackgroundData background(make_uniform_background(64, 2, rng));
    const ml::LambdaModel model(2, [](std::span<const double> x) {
        return ml::sigmoid(5.0 * x[0] + x[1]);
    });
    xai::ExactShapley shap(background);
    const std::vector<std::string> names{"cpu_util", "link_util"};
    const std::vector<double> x{0.9, 0.1};
    const auto text = xai::incident_report(model, shap, x, names, background, rng);
    EXPECT_NE(text.find("ALERT"), std::string::npos);
    EXPECT_NE(text.find("cpu_util"), std::string::npos);
    EXPECT_NE(text.find("pushes toward alert"), std::string::npos);
}

TEST(Report, OkStatusBelowThreshold) {
    ml::Rng rng(3);
    const xai::BackgroundData background(make_uniform_background(32, 2, rng));
    const ml::LambdaModel model(2, [](std::span<const double>) { return 0.1; });
    xai::ExactShapley shap(background);
    const std::vector<std::string> names{"a", "b"};
    const auto text = xai::incident_report(model, shap, std::vector<double>{0, 0}, names,
                                           background, rng);
    EXPECT_NE(text.find("status: ok"), std::string::npos);
    EXPECT_EQ(text.find("ALERT"), std::string::npos);
}

TEST(Report, CounterfactualSectionAppears) {
    ml::Rng rng(4);
    const xai::BackgroundData background(make_uniform_background(64, 2, rng));
    const ml::LambdaModel model(2, [](std::span<const double> x) {
        return ml::sigmoid(4.0 * x[0] + 2.0 * x[1]);
    });
    xai::ExactShapley shap(background);
    const std::vector<std::string> names{"a", "b"};
    xai::ReportOptions options;
    options.counterfactual = xai::CounterfactualOptions{};
    const auto text = xai::incident_report(model, shap, std::vector<double>{0.6, 0.4},
                                           names, background, rng, options);
    EXPECT_NE(text.find("suggested remediation"), std::string::npos);
    EXPECT_NE(text.find("->"), std::string::npos);
}

TEST(Report, RejectsSizeMismatch) {
    ml::Rng rng(5);
    const xai::BackgroundData background(make_uniform_background(16, 2, rng));
    const ml::LambdaModel model(2, [](std::span<const double>) { return 0.0; });
    xai::ExactShapley shap(background);
    const std::vector<std::string> names{"a", "b"};
    EXPECT_THROW((void)xai::incident_report(model, shap, std::vector<double>{0.0}, names,
                                            background, rng),
                 std::invalid_argument);
}
