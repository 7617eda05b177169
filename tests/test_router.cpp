// Explainer-routing suite (DESIGN.md §16): the ExplainerRouter's static
// table, its integration with the serving path, and the contracts that make
// "auto" safe to expose:
//
//   1. classify_model / route_explainer implement exactly the documented
//      decision table — auto resolves per model kind, forced exact methods
//      on an incompatible kind are structured `unsupported_explainer`
//      failures (never silent degradations), probe methods pass any kind.
//   2. Served fast-path responses are byte-identical to one-shot explainers
//      — in process and over a 2-shard TCP replay — for both exact paths.
//   3. Route decisions are stamped on the model snapshot at load/swap, so a
//      hot swap re-routes and a request races against its *pinned* version.
//   4. Fast-path explainer config (IG step count) is part of the cache key:
//      two services differing only in ig_steps never cross-hit through a
//      snapshot restore.
//   5. The predict_throw chaos point composes with the flat fast path even
//      though that path never calls the (fault-wrapped) serving model.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/flat_tree_shap.hpp"
#include "core/gradient.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/mlp.hpp"
#include "mlcore/model.hpp"
#include "mlcore/tree.hpp"
#include "net/loadgen.hpp"
#include "net/sharded_server.hpp"
#include "serve/explainers.hpp"
#include "serve/ndjson.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"

namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;
using xnfv::testutil::make_xor_dataset;

namespace {

constexpr std::uint64_t kSeed = 11;

/// One trained model of every routable kind over the same 2-feature XOR
/// data, so any of them can be hot-swapped for any other.
struct Zoo {
    ml::Dataset data;
    std::shared_ptr<ml::DecisionTree> tree;
    std::shared_ptr<ml::RandomForest> forest;
    std::shared_ptr<ml::GradientBoostedTrees> gbt;
    std::shared_ptr<ml::Mlp> mlp;
    std::shared_ptr<ml::LambdaModel> lambda;
    xai::BackgroundData background{ml::Matrix(0, 0)};
};

const Zoo& zoo() {
    static const Zoo z = [] {
        Zoo out;
        ml::Rng rng(2020);
        out.data = make_xor_dataset(600, rng);
        out.tree = std::make_shared<ml::DecisionTree>(
            ml::DecisionTree::Config{.max_depth = 6});
        out.tree->fit(out.data);
        out.forest = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 9});
        out.forest->fit(out.data, rng);
        out.gbt = std::make_shared<ml::GradientBoostedTrees>(
            ml::GradientBoostedTrees::Config{.num_rounds = 15});
        out.gbt->fit(out.data, rng);
        out.mlp = std::make_shared<ml::Mlp>(ml::Mlp::Config{
            .hidden_layers = {8}, .activation = ml::Activation::tanh, .epochs = 25});
        out.mlp->fit(out.data, rng);
        out.lambda = std::make_shared<ml::LambdaModel>(
            2, [](std::span<const double> x) { return 0.5 * x[0] - x[1]; });
        out.background = xai::BackgroundData(out.data.x, 32);
        return out;
    }();
    return z;
}

serve::ExplainRequest request_for(std::uint64_t id, std::vector<double> features,
                                  const std::string& method = "") {
    serve::ExplainRequest r;
    r.id = id;
    r.features = std::move(features);
    r.method = method;
    return r;
}

serve::ServiceConfig quick_config() {
    serve::ServiceConfig cfg;
    cfg.max_batch = 4;
    cfg.seed = kSeed;
    return cfg;
}

}  // namespace

// ------------------------------------------------------ the static table ---

TEST(RouterTable, ClassifyRecognizesEveryRoutableKind) {
    const auto& z = zoo();
    EXPECT_EQ(serve::classify_model(*z.tree), serve::ModelKind::tree);
    EXPECT_EQ(serve::classify_model(*z.forest), serve::ModelKind::forest);
    EXPECT_EQ(serve::classify_model(*z.gbt), serve::ModelKind::gbt);
    EXPECT_EQ(serve::classify_model(*z.mlp), serve::ModelKind::mlp);
    EXPECT_EQ(serve::classify_model(*z.lambda), serve::ModelKind::other);
}

TEST(RouterTable, AutoResolvesToTheKindsExactFastPath) {
    for (const auto kind : {serve::ModelKind::tree, serve::ModelKind::forest,
                            serve::ModelKind::gbt}) {
        const auto d = serve::route_explainer(serve::kAutoMethod, kind);
        EXPECT_EQ(d.method, "tree_shap");
        EXPECT_TRUE(d.fast_path);
        EXPECT_FALSE(d.unsupported);
    }
    const auto mlp = serve::route_explainer(serve::kAutoMethod, serve::ModelKind::mlp);
    EXPECT_EQ(mlp.method, "integrated_gradients");
    EXPECT_TRUE(mlp.fast_path);
    const auto other =
        serve::route_explainer(serve::kAutoMethod, serve::ModelKind::other);
    EXPECT_EQ(other.method, "kernel_shap");
    EXPECT_FALSE(other.fast_path);
    EXPECT_FALSE(other.unsupported);
}

TEST(RouterTable, ForcedExactMethodOnWrongKindIsUnsupportedWithRegistryList) {
    const auto ts = serve::route_explainer("tree_shap", serve::ModelKind::mlp);
    EXPECT_TRUE(ts.unsupported);
    EXPECT_NE(ts.why.find("requires a tree ensemble"), std::string::npos);
    EXPECT_NE(ts.why.find("'mlp'"), std::string::npos);
    // The message names the valid set from the one shared registry.
    EXPECT_NE(ts.why.find(serve::explainer_list(", ")), std::string::npos);
    const auto ig =
        serve::route_explainer("integrated_gradients", serve::ModelKind::forest);
    EXPECT_TRUE(ig.unsupported);
    EXPECT_NE(ig.why.find("analytic gradients"), std::string::npos);
    // Probe methods treat any model as a black box.
    for (const char* m : {"kernel_shap", "sampling", "lime", "occlusion"}) {
        for (const auto kind :
             {serve::ModelKind::tree, serve::ModelKind::mlp, serve::ModelKind::other}) {
            const auto d = serve::route_explainer(m, kind);
            EXPECT_FALSE(d.unsupported) << m;
            EXPECT_FALSE(d.fast_path) << m;
            EXPECT_EQ(d.method, m);
        }
    }
    // Forced exact methods on their own kind stay fast.
    EXPECT_TRUE(serve::route_explainer("tree_shap", serve::ModelKind::gbt).fast_path);
    EXPECT_TRUE(
        serve::route_explainer("integrated_gradients", serve::ModelKind::mlp).fast_path);
}

// ------------------------------------------------------- served routing ----

TEST(RouterServing, AutoRoutesGbtToFlatTreeShapAndCountsFastPath) {
    const auto& z = zoo();
    serve::ExplanationService service(z.gbt, z.background, quick_config());
    const auto r = service.explain_sync(request_for(1, {0.4, -0.7}, "auto"));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.explanation.method, "tree_shap");  // never "auto" on the wire
    const auto stats = service.stats();
    EXPECT_EQ(stats.fast_path_hits, 1u);
    ASSERT_EQ(stats.explainers.size(), 1u);
    EXPECT_EQ(stats.explainers[0].name, "tree_shap");
    EXPECT_EQ(stats.explainers[0].requests, 1u);
    EXPECT_EQ(stats.explainers[0].fast_path_hits, 1u);
    service.stop();
}

TEST(RouterServing, AutoRoutesMlpToIntegratedGradients) {
    const auto& z = zoo();
    serve::ExplanationService service(z.mlp, z.background, quick_config());
    const auto r = service.explain_sync(request_for(1, {0.4, -0.7}, "auto"));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.explanation.method, "integrated_gradients");
    const auto stats = service.stats();
    EXPECT_EQ(stats.fast_path_hits, 1u);
    ASSERT_EQ(stats.explainers.size(), 1u);
    EXPECT_EQ(stats.explainers[0].name, "integrated_gradients");
    EXPECT_EQ(stats.explainers[0].fast_path_hits, 1u);
    service.stop();
}

TEST(RouterServing, AutoFallsBackToKernelShapOnBlackBoxModels) {
    const auto& z = zoo();
    serve::ExplanationService service(z.lambda, z.background, quick_config());
    const auto r = service.explain_sync(request_for(1, {0.4, -0.7}, "auto"));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.explanation.method, "kernel_shap");
    const auto stats = service.stats();
    EXPECT_EQ(stats.fast_path_hits, 0u);
    ASSERT_EQ(stats.explainers.size(), 1u);
    EXPECT_EQ(stats.explainers[0].name, "kernel_shap");
    EXPECT_EQ(stats.explainers[0].fast_path_hits, 0u);
    EXPECT_GT(stats.model_evals, 0u);  // probe path still counts evals
    service.stop();
}

TEST(RouterServing, ForcedIncompatibleExplainerIsAStructuredError) {
    const auto& z = zoo();
    serve::ExplanationService service(z.mlp, z.background, quick_config());
    const auto forced = service.explain_sync(request_for(1, {0.4, -0.7}, "tree_shap"));
    EXPECT_FALSE(forced.ok);
    EXPECT_EQ(forced.error_code, serve::ServeError::unsupported_explainer);
    EXPECT_NE(forced.error.find("requires a tree ensemble"), std::string::npos);
    // The failure is per-request: the same service keeps serving auto.
    const auto ok = service.explain_sync(request_for(2, {0.4, -0.7}, "auto"));
    EXPECT_TRUE(ok.ok) << ok.error;
    const auto stats = service.stats();
    EXPECT_EQ(stats.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::unsupported_explainer)],
              1u);
    EXPECT_EQ(stats.fast_path_hits, 1u);
    service.stop();
}

TEST(RouterServing, ServedFastPathsAreByteIdenticalToOneShotExplainers) {
    const auto& z = zoo();
    const std::vector<double> x{0.3, -0.6};
    {
        serve::ExplanationService service(z.forest, z.background, quick_config());
        const auto served = service.explain_sync(request_for(1, x, "tree_shap"));
        ASSERT_TRUE(served.ok) << served.error;
        const auto one_shot =
            serve::make_explainer("tree_shap", z.background, kSeed)->explain(*z.forest, x);
        EXPECT_EQ(served.explanation.prediction, one_shot.prediction);
        EXPECT_EQ(served.explanation.base_value, one_shot.base_value);
        EXPECT_EQ(served.explanation.attributions, one_shot.attributions);
        service.stop();
    }
    {
        serve::ExplanationService service(z.mlp, z.background, quick_config());
        const auto served =
            service.explain_sync(request_for(1, x, "integrated_gradients"));
        ASSERT_TRUE(served.ok) << served.error;
        const auto one_shot = serve::make_explainer("integrated_gradients",
                                                    z.background, kSeed)
                                  ->explain(*z.mlp, x);
        EXPECT_EQ(served.explanation.prediction, one_shot.prediction);
        EXPECT_EQ(served.explanation.base_value, one_shot.base_value);
        EXPECT_EQ(served.explanation.attributions, one_shot.attributions);
        service.stop();
    }
}

TEST(RouterServing, ServedAutoLinesAreByteIdenticalOverShardedTcp) {
    // Full-stack parity: a 2-shard TCP replay of "auto" requests against a
    // GBT fleet must put the exact one-shot flat-TreeSHAP bytes on the wire,
    // and an unknown method must be refused with the registry's list.
    const auto& z = zoo();
    const std::vector<double> x{0.3, -0.6};
    auto line = [&x](std::uint64_t id, const std::string& method) {
        serve::JsonWriter w;
        w.field("op", "explain");
        w.field("id", id);
        w.field("method", method);
        w.field("seed", kSeed);
        w.field_array("features", x);
        return w.finish();
    };
    std::vector<std::vector<std::string>> scripts{
        {line(1, "auto"), line(2, "astrology"), "{\"op\":\"quit\"}"}};

    net::ServerConfig ncfg;
    ncfg.shards = 2;
    net::ShardedServer server(z.gbt, z.background, quick_config(), ncfg);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });
    net::LoadgenConfig lg;
    lg.port = server.port();
    lg.window = 1;
    lg.timeout = std::chrono::milliseconds(120000);
    const auto report = net::run_load(lg, scripts);
    const auto stats = server.stats();
    server.request_drain();
    loop.join();
    server.stop_services();

    ASSERT_FALSE(report.timed_out);
    ASSERT_EQ(report.conns.size(), 1u);
    ASSERT_EQ(report.conns[0].lines.size(), 2u);
    serve::ExplainResponse want;
    want.id = 1;
    want.ok = true;
    want.explanation =
        serve::make_explainer("tree_shap", z.background, kSeed)->explain(*z.gbt, x);
    EXPECT_EQ(report.conns[0].lines[0], serve::render_response(want));
    const auto& refused = report.conns[0].lines[1];
    EXPECT_NE(refused.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(refused.find(serve::explainer_list_with_auto()), std::string::npos);
    EXPECT_EQ(stats.fast_path_hits, 1u);
}

// ---------------------------------------------------- snapshot stamping ----

TEST(RouterRegistry, RouteDecisionIsStampedAtLoadAndRestampedOnSwap) {
    const auto& z = zoo();
    serve::ExplanationService service(z.forest, z.background, quick_config());
    {
        const auto snap = service.registry().resolve("")->current();
        EXPECT_EQ(snap->kind, serve::ModelKind::forest);
        EXPECT_EQ(snap->auto_method, "tree_shap");
        EXPECT_NE(snap->flat_shap, nullptr);
    }
    ASSERT_EQ(service.model_load("nn", z.mlp), serve::ServeError::none);
    {
        const auto snap = service.registry().resolve("nn")->current();
        EXPECT_EQ(snap->kind, serve::ModelKind::mlp);
        EXPECT_EQ(snap->auto_method, "integrated_gradients");
        EXPECT_EQ(snap->flat_shap, nullptr);  // nothing to prebuild
    }
    // Hot swap the default tenant forest -> gbt -> lambda: each published
    // snapshot carries its own fresh route decision.
    ASSERT_EQ(service.model_swap("", z.gbt), serve::ServeError::none);
    {
        const auto snap = service.registry().resolve("")->current();
        EXPECT_EQ(snap->kind, serve::ModelKind::gbt);
        EXPECT_EQ(snap->auto_method, "tree_shap");
        EXPECT_NE(snap->flat_shap, nullptr);
    }
    ASSERT_EQ(service.model_swap("", z.lambda), serve::ServeError::none);
    {
        const auto snap = service.registry().resolve("")->current();
        EXPECT_EQ(snap->kind, serve::ModelKind::other);
        EXPECT_EQ(snap->auto_method, "kernel_shap");
        EXPECT_EQ(snap->flat_shap, nullptr);
    }
    // And traffic follows the swap: auto now rides the probe path.
    const auto r = service.explain_sync(request_for(1, {0.4, -0.7}, "auto"));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.explanation.method, "kernel_shap");
    service.stop();
}

// ----------------------------------------------------- cache-key hygiene ---

TEST(RouterCacheKeys, IgStepsAreInTheKeySoSnapshotRestoreCannotCrossHit) {
    const auto& z = zoo();
    const auto path = ::testing::TempDir() + "xnfv_router_ig_steps.bin";
    std::remove(path.c_str());
    const std::vector<double> x{0.25, -0.5};
    auto run = [&](std::size_t ig_steps) {
        auto cfg = quick_config();
        cfg.method = "integrated_gradients";
        cfg.ig_steps = ig_steps;
        cfg.snapshot_path = path;
        serve::ExplanationService service(z.mlp, z.background, cfg);
        const auto r = service.explain_sync(request_for(1, x));
        EXPECT_TRUE(r.ok) << r.error;
        const auto stats = service.stats();
        service.stop();  // persists the cache for the next life
        return stats;
    };
    const auto first = run(50);
    EXPECT_EQ(first.cache_misses, 1u);
    EXPECT_EQ(first.snapshot_records_loaded, 0u);
    // Same service config except ig_steps: the restored record must NOT
    // satisfy this request — a 16-step answer is a different computation.
    const auto different = run(16);
    EXPECT_GE(different.snapshot_records_loaded, 1u);
    EXPECT_EQ(different.cache_hits, 0u);
    EXPECT_EQ(different.cache_misses, 1u);
    // Control: an identical config does cross-restore and hits.
    const auto same = run(16);
    EXPECT_EQ(same.cache_hits, 1u);
    EXPECT_EQ(same.cache_misses, 0u);
    std::remove(path.c_str());
}

// ------------------------------------------------------ chaos composition --

TEST(RouterChaos, PredictThrowComposesWithTheFlatFastPath) {
    // The flat kernel never touches the fault-wrapped serving model, so the
    // fast path polls predict_throw explicitly: with rate 1 and max_fires 1,
    // the first explain fails as fault_injected and the second — same
    // features, so it must NOT have been cached — succeeds on the fast path.
    const auto& z = zoo();
    auto cfg = quick_config();
    serve::FaultInjector::Config fic;
    fic.seed = 7;
    fic.rate[static_cast<std::size_t>(serve::FaultPoint::predict_throw)] = 1.0;
    fic.max_fires[static_cast<std::size_t>(serve::FaultPoint::predict_throw)] = 1;
    cfg.fault_injector = std::make_shared<serve::FaultInjector>(fic);
    serve::ExplanationService service(z.forest, z.background, cfg);
    const auto faulted = service.explain_sync(request_for(1, {0.4, -0.7}, "auto"));
    EXPECT_FALSE(faulted.ok);
    EXPECT_EQ(faulted.error_code, serve::ServeError::fault_injected);
    const auto retried = service.explain_sync(request_for(2, {0.4, -0.7}, "auto"));
    ASSERT_TRUE(retried.ok) << retried.error;
    EXPECT_FALSE(retried.cache_hit);  // the faulted attempt cached nothing
    EXPECT_EQ(retried.explanation.method, "tree_shap");
    const auto stats = service.stats();
    EXPECT_EQ(stats.fast_path_hits, 1u);
    EXPECT_EQ(stats.faults_injected, 1u);
    service.stop();
}
