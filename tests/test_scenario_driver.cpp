// Closed-loop scenario driver (src/scenario/driver.hpp) against in-process
// servers.
//
// The determinism contract under test: for a fixed (seed, scenario,
// geometry) the simulated event trace is a pure function of the config —
// identical across reruns and across server shard counts — and the
// id-sorted response bytes are identical too when the fleet's features are
// unique (no cache hits) and degradation is disabled.  A second suite arms
// the degradation ladder and drift detection and asserts the flash-crowd
// phase demonstrably drives them: degraded responses and drift flushes are
// how the serving stack is supposed to absorb a flash crowd, and the
// driver's SLO report is where operators see that happen.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mlcore/forest.hpp"
#include "net/sharded_server.hpp"
#include "scenario/driver.hpp"
#include "serve/service.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace serve = xnfv::serve;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;
namespace scn = xnfv::scenario;

namespace {

/// A forest trained on full-telemetry rows of the same scenario family the
/// driver replays, so served explanations see in-distribution features.
struct Fixture {
    ml::Dataset data;
    std::shared_ptr<ml::RandomForest> forest;
};

const Fixture& fixture() {
    static const Fixture f = [] {
        Fixture out;
        ml::Rng rng(7);
        wl::BuildOptions opt;
        opt.num_samples = 400;
        out.data =
            wl::build_dataset(wl::standard_scenarios()[1], opt, rng).data;
        out.forest = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 8});
        out.forest->fit(out.data, rng);
        return out;
    }();
    return f;
}

/// Starts a sharded server with `cfg`, runs the driver, tears down.
scn::DriverReport drive(const serve::ServiceConfig& cfg, std::size_t shards,
                        const scn::DriverConfig& base) {
    const auto& f = fixture();
    net::ShardedServerConfig shcfg;
    shcfg.shards = shards;
    net::ShardedServer server(f.forest, xai::BackgroundData(f.data.x, 32), cfg,
                              shcfg);
    std::string error;
    if (!server.start(&error)) throw std::runtime_error(error);
    std::thread loop([&server] { server.run(); });
    scn::DriverConfig dcfg = base;
    dcfg.port = server.port();
    const auto report = scn::run_scenario(dcfg);
    server.request_drain();
    loop.join();
    server.stop_services();
    return report;
}

serve::ServiceConfig plain_config() {
    serve::ServiceConfig cfg;
    cfg.method = "tree_shap";
    cfg.seed = 11;
    cfg.queue_depth = 512;
    cfg.max_batch = 8;
    cfg.cache_capacity = 4096;
    return cfg;
}

scn::DriverConfig small_driver() {
    scn::DriverConfig dcfg;
    dcfg.scenario = "enterprise_edge";
    dcfg.seed = 41;
    dcfg.deployments = 1;
    dcfg.connections = 4;
    dcfg.epochs_per_phase = 2;
    dcfg.window = 2;
    dcfg.method = "tree_shap";
    dcfg.flash_mult = 8.0;
    return dcfg;
}

}  // namespace

TEST(ScenarioDriver, UnknownScenarioThrows) {
    scn::DriverConfig dcfg;
    dcfg.scenario = "no_such_pop";
    dcfg.port = 1;
    EXPECT_THROW((void)scn::run_scenario(dcfg), std::runtime_error);
}

TEST(ScenarioDriver, TraceAndResponsesAreIdenticalAcrossReruns) {
    const auto a = drive(plain_config(), 1, small_driver());
    const auto b = drive(plain_config(), 1, small_driver());
    ASSERT_TRUE(a.transport_ok) << a.error;
    ASSERT_TRUE(b.transport_ok) << b.error;
    ASSERT_EQ(a.phases.size(), 3u);
    EXPECT_EQ(a.phases[0].name, "baseline");
    EXPECT_EQ(a.phases[1].name, "flash_crowd");
    EXPECT_EQ(a.phases[2].name, "remediated");

    // The simulated event trace never touches the server: byte-for-byte.
    ASSERT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_FALSE(a.trace.empty());

    // Fresh server, same seed: raw response bytes replay exactly, so the
    // remediation decision they drive is reproducible too.
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (std::size_t i = 0; i < a.responses.size(); ++i)
        ASSERT_EQ(a.responses[i], b.responses[i]) << "response " << i;
    EXPECT_EQ(a.responses_hash, b.responses_hash);
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.action_driver, b.action_driver);
    EXPECT_EQ(a.action_applied, b.action_applied);
    for (const auto& p : a.phases) {
        EXPECT_EQ(p.requests, p.responses) << p.name;
        EXPECT_EQ(p.errors, 0u) << p.name;
    }
}

TEST(ScenarioDriver, ResponsesAreByteIdenticalAcrossShardCounts) {
    const auto one = drive(plain_config(), 1, small_driver());
    const auto two = drive(plain_config(), 2, small_driver());
    ASSERT_TRUE(one.transport_ok) << one.error;
    ASSERT_TRUE(two.transport_ok) << two.error;
    ASSERT_EQ(one.trace, two.trace);
    // Every chain-epoch's telemetry is unique, so no request can be a cache
    // hit on any shard and even the raw bytes (cache_hit included) must
    // match between a single-loop-equivalent and a two-shard fleet.
    ASSERT_EQ(one.responses.size(), two.responses.size());
    for (std::size_t i = 0; i < one.responses.size(); ++i)
        ASSERT_EQ(one.responses[i], two.responses[i]) << "response " << i;
    EXPECT_EQ(one.responses_hash, two.responses_hash);
}

TEST(ScenarioDriver, ServedInteractionsRideTheScenarioPath) {
    auto dcfg = small_driver();
    dcfg.interactions = 2;
    dcfg.epochs_per_phase = 1;
    const auto report = drive(plain_config(), 2, dcfg);
    ASSERT_TRUE(report.transport_ok) << report.error;
    for (const auto& line : report.responses) {
        EXPECT_NE(line.find("\"interactions\":[{\"i\":"), std::string::npos)
            << line;
    }
    for (const auto& p : report.phases) EXPECT_EQ(p.errors, 0u) << p.name;
}

TEST(ScenarioDriver, FlashCrowdDrivesTheDegradationLadder) {
    // A one-deep ladder: any queueing at admission serves the reduced rung.
    auto cfg = plain_config();
    cfg.degradation.reduced_queue_depth = 1;
    cfg.degradation.baseline_queue_depth = 2;
    auto dcfg = small_driver();
    dcfg.deployments = 2;
    dcfg.epochs_per_phase = 4;
    dcfg.connections = 8;
    dcfg.window = 4;
    const auto report = drive(cfg, 2, dcfg);
    ASSERT_TRUE(report.transport_ok) << report.error;
    ASSERT_EQ(report.phases.size(), 3u);

    const auto& flash = report.phases[1];
    EXPECT_GT(flash.sla_violations, 0u)
        << "an 8x flash crowd must push chains over SLA";
    EXPECT_GT(flash.degraded, 0u)
        << "flash-crowd concurrency must trip the degradation ladder";
    std::uint64_t completed = 0;
    for (const auto& p : report.phases) {
        completed += p.completed;
        EXPECT_EQ(p.errors, 0u) << p.name;
    }
    EXPECT_GT(completed, 0u);

    // The incident explanation picked a driver feature and an action; the
    // report carries both so operators can audit the loop.
    EXPECT_FALSE(report.action_driver.empty());
    EXPECT_FALSE(report.action.empty());
    // to_json is well-formed and machine-readable.
    const auto parsed = serve::parse_json(report.to_json());
    EXPECT_EQ(parsed.get_string("op", ""), "scenario");
    EXPECT_EQ(parsed.find("phases")->array.size(), 3u);
}

TEST(ScenarioDriver, FlashCrowdTelemetryShiftTriggersDriftFlushes) {
    // Degradation off (drift only observes full-fidelity attributions); a
    // small window so the baseline phase fills the reference and the 8x
    // flash shift is compared against it within one run.
    auto cfg = plain_config();
    cfg.drift_window = 8;
    auto dcfg = small_driver();
    dcfg.deployments = 2;
    dcfg.epochs_per_phase = 4;
    const auto report = drive(cfg, 2, dcfg);
    ASSERT_TRUE(report.transport_ok) << report.error;
    std::uint64_t flushes = 0;
    for (const auto& p : report.phases) flushes += p.drift_flushes;
    EXPECT_GT(flushes, 0u)
        << "drifting telemetry must trigger at least one drift flush";
}
