// Cross-cutting property sweeps.
//
// Earlier test files validate each component in isolation; this file sweeps
// *shared contracts* across whole families:
//   - every additive explainer satisfies efficiency on random models,
//   - every explainer is invariant to dummy features,
//   - every trainable model round-trips through serialization,
//   - simulator monotonicities hold across every chain template,
//   - agreement metrics are reflexive for every explainer.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>

#include "core/exact_shapley.hpp"
#include "core/flat_tree_shap.hpp"
#include "core/gradient.hpp"
#include "core/kernel_shap.hpp"
#include "core/lime.hpp"
#include "core/occlusion.hpp"
#include "core/sampling_shapley.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/linear.hpp"
#include "mlcore/mlp.hpp"
#include "mlcore/serialize.hpp"
#include "nfv/placement.hpp"
#include "nfv/simulator.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace xai = xnfv::xai;
namespace ml = xnfv::ml;
namespace nfv = xnfv::nfv;
namespace wl = xnfv::wl;
using xnfv::testutil::make_uniform_background;

// ---------------------------------------------------------------------------
// Efficiency axiom across the additive explainer family.
// ---------------------------------------------------------------------------

namespace {

enum class Method { exact, kernel, sampling, tree };

std::string method_name(Method m) {
    switch (m) {
        case Method::exact: return "exact";
        case Method::kernel: return "kernel";
        case Method::sampling: return "sampling";
        case Method::tree: return "tree";
    }
    return "?";
}

/// gtest value printer: ctest's "# GetParam() = ..." annotation shows the
/// method name instead of "4-byte object <..>".
void PrintTo(Method m, std::ostream* os) { *os << method_name(m); }

}  // namespace

class EfficiencySweep : public ::testing::TestWithParam<Method> {};

TEST_P(EfficiencySweep, AdditiveReconstructionMatchesPrediction) {
    ml::Rng rng(99);
    const std::size_t d = 4;
    const auto bg = make_uniform_background(24, d, rng);
    const xai::BackgroundData background(bg);

    // A forest gives every method (incl. TreeSHAP) a common target.
    ml::Dataset data;
    data.task = ml::Task::regression;
    for (int i = 0; i < 600; ++i) {
        std::vector<double> row(d);
        for (auto& v : row) v = rng.uniform(-1, 1);
        data.add(row, row[0] * row[1] + 2.0 * row[2] - std::abs(row[3]));
    }
    ml::RandomForest forest(ml::RandomForest::Config{.num_trees = 15});
    forest.fit(data, rng);

    std::unique_ptr<xai::Explainer> explainer;
    double tolerance = 1e-8;
    switch (GetParam()) {
        case Method::exact:
            explainer = std::make_unique<xai::ExactShapley>(background);
            break;
        case Method::kernel:
            explainer = std::make_unique<xai::KernelShap>(
                background, ml::Rng(1), xai::KernelShap::Config{.max_coalitions = 14});
            break;
        case Method::sampling:
            explainer = std::make_unique<xai::SamplingShapley>(
                background, ml::Rng(2),
                xai::SamplingShapley::Config{.num_permutations = 50});
            break;
        case Method::tree:
            explainer = std::make_unique<xai::TreeShap>();
            break;
    }

    for (int rep = 0; rep < 5; ++rep) {
        std::vector<double> x(d);
        for (auto& v : x) v = rng.uniform(-1, 1);
        const auto e = explainer->explain(forest, x);
        EXPECT_NEAR(e.additive_reconstruction(), e.prediction, tolerance)
            << method_name(GetParam());
        EXPECT_EQ(e.attributions.size(), d);
    }
}

INSTANTIATE_TEST_SUITE_P(Explainers, EfficiencySweep,
                         ::testing::Values(Method::exact, Method::kernel,
                                           Method::sampling, Method::tree),
                         [](const auto& param_info) { return method_name(param_info.param); });

// ---------------------------------------------------------------------------
// Dummy-feature invariance across every explainer (incl. the non-additive
// ones): a feature the model never reads gets (near-)zero attribution.
// ---------------------------------------------------------------------------

class DummySweep : public ::testing::TestWithParam<int> {};

TEST_P(DummySweep, UnusedFeatureReceivesNoAttribution) {
    ml::Rng rng(123 + GetParam());
    const std::size_t d = 5;  // feature 4 is the dummy
    const xai::BackgroundData background(make_uniform_background(32, d, rng));
    const ml::LambdaModel model(d, [](std::span<const double> x) {
        return x[0] * x[1] + std::tanh(x[2]) - 0.5 * x[3];
    });
    const std::vector<double> x{0.4, -0.6, 0.9, 0.1, 0.7};

    std::unique_ptr<xai::Explainer> explainer;
    double tolerance = 1e-6;
    switch (GetParam()) {
        case 0: explainer = std::make_unique<xai::ExactShapley>(background); break;
        case 1:
            explainer = std::make_unique<xai::KernelShap>(
                background, ml::Rng(3), xai::KernelShap::Config{.max_coalitions = 30});
            break;
        case 2:
            explainer = std::make_unique<xai::SamplingShapley>(
                background, ml::Rng(4),
                xai::SamplingShapley::Config{.num_permutations = 100});
            break;
        case 3: explainer = std::make_unique<xai::Occlusion>(background); break;
        case 4:
            explainer = std::make_unique<xai::IntegratedGradients>(
                background, xai::IntegratedGradients::Config{.steps = 30});
            break;
        case 5:
            explainer = std::make_unique<xai::SmoothGrad>(background, ml::Rng(5));
            break;
        case 6:
            explainer = std::make_unique<xai::Lime>(
                background, ml::Rng(6), xai::Lime::Config{.num_samples = 3000});
            tolerance = 0.05;  // sampling noise in the surrogate fit
            break;
    }
    const auto e = explainer->explain(model, x);
    EXPECT_NEAR(e.attributions[4], 0.0, tolerance) << explainer->name();
}

INSTANTIATE_TEST_SUITE_P(AllExplainers, DummySweep, ::testing::Range(0, 7));

// ---------------------------------------------------------------------------
// Serialization round-trip across every trainable model family.
// ---------------------------------------------------------------------------

class SerializeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSweep, PredictionsSurviveRoundTrip) {
    ml::Rng rng(55);
    const auto clf = xnfv::testutil::make_xor_dataset(400, rng);
    const auto reg = xnfv::testutil::make_linear_dataset(
        std::vector<double>{1.0, -2.0}, 0.5, 400, rng, 0.1);

    std::unique_ptr<ml::Model> model;
    switch (GetParam()) {
        case 0: {
            auto m = std::make_unique<ml::LinearRegression>();
            m->fit(reg);
            model = std::move(m);
            break;
        }
        case 1: {
            auto m = std::make_unique<ml::LogisticRegression>();
            m->fit(clf);
            model = std::move(m);
            break;
        }
        case 2: {
            auto m = std::make_unique<ml::DecisionTree>();
            m->fit(clf);
            model = std::move(m);
            break;
        }
        case 3: {
            auto m = std::make_unique<ml::RandomForest>(
                ml::RandomForest::Config{.num_trees = 8});
            m->fit(clf, rng);
            model = std::move(m);
            break;
        }
        case 4: {
            auto m = std::make_unique<ml::GradientBoostedTrees>(
                ml::GradientBoostedTrees::Config{.num_rounds = 12});
            m->fit(reg, rng);
            model = std::move(m);
            break;
        }
        case 5: {
            auto m = std::make_unique<ml::Mlp>(
                ml::Mlp::Config{.hidden_layers = {6}, .epochs = 10});
            m->fit(reg, rng);
            model = std::move(m);
            break;
        }
    }
    std::stringstream ss;
    ml::save_model(*model, ss);
    const auto restored = ml::load_model(ss);
    for (int rep = 0; rep < 10; ++rep) {
        const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
        EXPECT_DOUBLE_EQ(restored->predict(x), model->predict(x));
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, SerializeSweep, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Simulator monotonicity across every chain template.
// ---------------------------------------------------------------------------

class TemplateSweep : public ::testing::TestWithParam<wl::ChainTemplate> {};

TEST_P(TemplateSweep, LatencyMonotoneInLoadAndCapacity) {
    auto build = [&](double cores) {
        nfv::Infrastructure infra =
            nfv::Infrastructure::homogeneous_pop(2, nfv::Server{});
        nfv::Deployment dep;
        nfv::make_chain(dep, "c", wl::chain_types(GetParam()), cores);
        ml::Rng rng(1);
        nfv::place(dep, infra, nfv::PlacementStrategy::first_fit, rng);
        return std::pair{std::move(dep), std::move(infra)};
    };
    const auto load = [](double pps) {
        return nfv::OfferedLoad{.pps = pps, .active_flows = 5e3};
    };

    // Monotone in load.
    {
        auto [dep, infra] = build(2.0);
        double prev = 0.0;
        for (double pps : {1e4, 4e4, 1.6e5}) {
            const auto r = nfv::simulate_epoch(dep, infra, {load(pps)});
            EXPECT_GT(r.chains[0].latency_s, prev);
            prev = r.chains[0].latency_s;
        }
    }
    // Anti-monotone in CPU allocation.
    {
        double prev = std::numeric_limits<double>::infinity();
        for (double cores : {0.5, 1.0, 2.0, 4.0}) {
            auto [dep, infra] = build(cores);
            const auto r = nfv::simulate_epoch(dep, infra, {load(8e4)});
            EXPECT_LT(r.chains[0].latency_s, prev);
            prev = r.chains[0].latency_s;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Templates, TemplateSweep,
                         ::testing::Values(wl::ChainTemplate::web_gateway,
                                           wl::ChainTemplate::secure_enterprise,
                                           wl::ChainTemplate::video_cdn,
                                           wl::ChainTemplate::iot_ingest,
                                           wl::ChainTemplate::vpn_tunnel),
                         [](const auto& param_info) {
                             return std::string(wl::to_string(param_info.param));
                         });

// ---------------------------------------------------------------------------
// GBT explains identically through TreeShap before/after serialization —
// covers the full save/load of structure + covers + link parameters.
// ---------------------------------------------------------------------------

TEST(Properties, TreeShapIdenticalAfterGbtRoundTrip) {
    ml::Rng rng(77);
    const auto data = xnfv::testutil::make_xor_dataset(800, rng);
    ml::GradientBoostedTrees gbt(ml::GradientBoostedTrees::Config{.num_rounds = 20});
    gbt.fit(data, rng);
    std::stringstream ss;
    ml::save_model(gbt, ss);
    const auto restored = ml::load_model(ss);
    xai::TreeShap ts;
    const std::vector<double> x{0.3, -0.8};
    const auto before = ts.explain(gbt, x);
    const auto after = ts.explain(*restored, x);
    for (std::size_t j = 0; j < 2; ++j)
        EXPECT_DOUBLE_EQ(before.attributions[j], after.attributions[j]);
    EXPECT_DOUBLE_EQ(before.base_value, after.base_value);
}
