// End-to-end integration: NFV simulation -> dataset -> model -> explanation.
//
// These tests exercise the full pipeline the paper describes and assert the
// *semantic* property everything else exists for: when we inject a known
// root cause into the simulated NFV deployment, the explanation of the
// model's SLA-violation prediction points at telemetry features consistent
// with that cause.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/aggregate.hpp"
#include "core/counterfactual.hpp"
#include "core/flat_tree_shap.hpp"
#include "core/kernel_shap.hpp"
#include "core/surrogate.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/metrics.hpp"
#include "workload/dataset_builder.hpp"

namespace xai = xnfv::xai;
namespace ml = xnfv::ml;
namespace nfv = xnfv::nfv;
namespace wl = xnfv::wl;

namespace {

struct Pipeline {
    wl::BuiltDataset built;
    ml::Dataset train, test;
    ml::RandomForest model;
    xai::BackgroundData background;
};

Pipeline run_pipeline(const wl::ScenarioSpec& spec, std::size_t n, std::uint64_t seed) {
    Pipeline p;
    ml::Rng rng(seed);
    wl::BuildOptions opt;
    opt.num_samples = n;
    p.built = wl::build_dataset(spec, opt, rng);
    auto split = ml::train_test_split(p.built.data, 0.25, rng);
    p.train = std::move(split.train);
    p.test = std::move(split.test);
    p.model = ml::RandomForest(ml::RandomForest::Config{.num_trees = 60});
    p.model.fit(p.train, rng);
    p.background = xai::BackgroundData(p.train.x, 128);
    return p;
}

std::size_t fidx(const std::string& name) {
    return nfv::feature_index(nfv::FeatureSet::full_telemetry, name);
}

}  // namespace

TEST(Integration, ModelLearnsSlaViolationsFromTelemetry) {
    const auto p = run_pipeline(wl::standard_scenarios()[4], 1500, 1);
    const double auc = ml::roc_auc(p.test.y, p.model.predict_batch(p.test.x));
    EXPECT_GT(auc, 0.85);
}

TEST(Integration, CpuFaultExplanationsPointAtCpuCounters) {
    const auto p = run_pipeline(wl::fault_scenario(wl::FaultKind::cpu_starvation), 1500, 2);
    xai::TreeShap ts;

    // Aggregate |SHAP| over violating instances from CPU-starved deployments.
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < p.built.data.size(); ++i)
        if (p.built.fault[i] == wl::FaultKind::cpu_starvation && p.built.data.y[i] == 1.0)
            rows.push_back(i);
    ASSERT_GT(rows.size(), 20u);
    rows.resize(std::min<std::size_t>(rows.size(), 60));

    const auto instances = p.built.data.x.take_rows(rows);
    const auto g = xai::aggregate_explanations(ts, p.model, instances,
                                               p.built.data.feature_names);
    // A CPU-utilization counter must rank among the top 3 features.
    const auto order = g.ranking();
    const std::set<std::size_t> top(order.begin(), order.begin() + 3);
    const bool cpu_on_top = top.count(fidx("max_vnf_cpu_util")) ||
                            top.count(fidx("mean_vnf_cpu_util")) ||
                            top.count(fidx("min_cpu_cores")) ||
                            top.count(fidx("max_server_cpu"));
    EXPECT_TRUE(cpu_on_top) << g.to_string(6);
}

TEST(Integration, BurstFaultExplanationsPointAtBurstiness) {
    const auto p = run_pipeline(wl::fault_scenario(wl::FaultKind::traffic_burst), 1500, 3);
    xai::TreeShap ts;
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < p.built.data.size(); ++i)
        if (p.built.fault[i] == wl::FaultKind::traffic_burst && p.built.data.y[i] == 1.0)
            rows.push_back(i);
    ASSERT_GT(rows.size(), 20u);
    rows.resize(std::min<std::size_t>(rows.size(), 60));
    const auto g = xai::aggregate_explanations(ts, p.model, p.built.data.x.take_rows(rows),
                                               p.built.data.feature_names);
    const auto order = g.ranking();
    const std::set<std::size_t> top(order.begin(), order.begin() + 4);
    // Burstiness or a utilization proxy of it must surface.
    EXPECT_TRUE(top.count(fidx("burstiness_ca2")) || top.count(fidx("max_vnf_cpu_util")))
        << g.to_string(8);
}

TEST(Integration, TreeShapAndKernelShapAgreeOnTopFeature) {
    const auto p = run_pipeline(wl::standard_scenarios()[0], 900, 4);
    xai::TreeShap ts;
    xai::KernelShap ks(p.background, ml::Rng(5),
                       xai::KernelShap::Config{.max_coalitions = 700});
    int agreements = 0;
    const int n_checked = 10;
    for (int i = 0; i < n_checked; ++i) {
        const auto x = p.test.x.row(i);
        const auto et = ts.explain(p.model, x);
        const auto ek = ks.explain(p.model, x);
        const auto tt = et.top_k(2);
        const auto tk = ek.top_k(2);
        agreements += (std::find(tk.begin(), tk.end(), tt[0]) != tk.end()) ? 1 : 0;
    }
    EXPECT_GE(agreements, 6);  // majority agreement on the dominant feature
}

TEST(Integration, CounterfactualSuggestsActionableFix) {
    const auto p = run_pipeline(wl::fault_scenario(wl::FaultKind::cpu_starvation), 1200, 6);

    // Actionable features: allocations, placement, and the utilization
    // counters that capacity-scaling actions directly move.  Traffic
    // descriptors (offered load, burstiness, packet size) stay frozen — the
    // operator does not control the weather.
    std::vector<bool> actionable(p.built.data.num_features(), false);
    actionable[fidx("min_cpu_cores")] = true;
    actionable[fidx("total_cpu_cores")] = true;
    actionable[fidx("total_rules")] = true;
    actionable[fidx("colocated_vnfs")] = true;
    actionable[fidx("hop_count")] = true;
    actionable[fidx("max_vnf_cpu_util")] = true;
    actionable[fidx("mean_vnf_cpu_util")] = true;
    actionable[fidx("max_server_cpu")] = true;

    ml::Rng rng(7);
    int found = 0, tried = 0;
    for (std::size_t i = 0; i < p.test.size() && tried < 20; ++i) {
        if (p.model.predict(p.test.x.row(i)) < 0.7) continue;  // confident violations only
        ++tried;
        xai::CounterfactualOptions opt;
        opt.actionable = actionable;
        const auto cf =
            xai::find_counterfactual(p.model, p.test.x.row(i), p.background, rng, opt);
        if (!cf) continue;
        ++found;
        EXPECT_LE(cf->prediction, 0.5);
        EXPECT_LE(cf->changed.size(), 3u);
        for (std::size_t j : cf->changed) EXPECT_TRUE(actionable[j]);
    }
    ASSERT_GT(tried, 0);
    EXPECT_GT(found, tried / 2);  // most violations have an actionable fix
}

TEST(Integration, SurrogateTreeSummarizesViolationPolicy) {
    const auto p = run_pipeline(wl::standard_scenarios()[4], 1200, 8);
    ml::Rng rng(9);
    const auto surrogate =
        xai::fit_surrogate(p.model, p.background, p.built.data.feature_names, rng,
                           xai::SurrogateOptions{.max_depth = 3, .min_samples_leaf = 5});
    // A depth-3 tree over NFV telemetry should capture most of the teacher.
    EXPECT_GT(surrogate.fidelity_r2, 0.5);
    EXPECT_FALSE(surrogate.text.empty());
}

TEST(Integration, EfficiencyHoldsOnRealPipelineExplanations) {
    const auto p = run_pipeline(wl::standard_scenarios()[1], 800, 10);
    xai::TreeShap ts;
    for (int i = 0; i < 15; ++i) {
        const auto e = ts.explain(p.model, p.test.x.row(i));
        EXPECT_NEAR(e.additive_reconstruction(), e.prediction, 1e-9);
    }
}

TEST(Integration, ConfigOnlyFeaturesStillPredictive) {
    // Admission-control setting: prediction before deployment (no runtime
    // counters) is harder but must remain above chance.
    ml::Rng rng(11);
    wl::BuildOptions opt;
    opt.num_samples = 1500;
    opt.feature_set = nfv::FeatureSet::config_only;
    const auto built = wl::build_dataset(wl::standard_scenarios()[4], opt, rng);
    auto split = ml::train_test_split(built.data, 0.25, rng);
    ml::RandomForest model(ml::RandomForest::Config{.num_trees = 60});
    model.fit(split.train, rng);
    EXPECT_GT(ml::roc_auc(split.test.y, model.predict_batch(split.test.x)), 0.7);
}
