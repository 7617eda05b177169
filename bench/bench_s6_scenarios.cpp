// S6 — closed-loop scenarios: end-to-end SLO measurement of the scenario
// driver (src/scenario/) against an in-process 2-shard TCP server.
//
// One cell per workload family: the driver samples a fleet, replays its
// simulated telemetry as concurrent explain clients through the three-phase
// loop (baseline / flash_crowd / remediated), applies the served
// explanation's remediation between phases, and reports exact per-phase
// round-trip percentiles plus the server's own degradation / drift / cache
// counters.  After the sweep, the first cell reruns with a fresh server and
// the (trace_hash, responses_hash) pair must reproduce bit-for-bit — the
// determinism contract CI pins on every commit.
//
// Sizes are overridable through XNFV_S6_DEPLOYMENTS, XNFV_S6_EPOCHS,
// XNFV_S6_CONNS, and XNFV_S6_SAMPLES (training rows).  Output: a fixed
// text table and a JSON artifact (default BENCH_s6_scenarios.json,
// overridable via argv[1]).  Exit status is nonzero when a phase loses
// responses, a transport error occurs, or the rerun diverges.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/sharded_server.hpp"
#include "scenario/driver.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"

namespace bench = xnfv::bench;
namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace scn = xnfv::scenario;
namespace serve = xnfv::serve;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
    const char* raw = std::getenv(name);
    if (!raw || !*raw) return fallback;
    const long value = std::atol(raw);
    return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

struct Cell {
    std::string scenario;
    scn::DriverReport report;
    double wall_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = argc > 1 ? argv[1] : "BENCH_s6_scenarios.json";
    const std::size_t samples = env_size("XNFV_S6_SAMPLES", 1200);
    const std::size_t deployments = env_size("XNFV_S6_DEPLOYMENTS", 2);
    const std::size_t epochs = env_size("XNFV_S6_EPOCHS", 4);
    const std::size_t conns = env_size("XNFV_S6_CONNS", 16);

    // One model for every cell: a forest on the mixed full-telemetry task,
    // the same family the driver's fleets are drawn from.
    ml::Rng rng(2020);
    wl::BuildOptions opt;
    opt.num_samples = samples;
    const auto built = wl::build_mixed_dataset(wl::standard_scenarios(), opt, rng);
    auto forest = std::make_shared<ml::RandomForest>(
        ml::RandomForest::Config{.num_trees = 16});
    forest->fit(built.data, rng);

    serve::ServiceConfig cfg;
    cfg.method = "tree_shap";
    cfg.seed = 11;
    cfg.queue_depth = 512;
    cfg.max_batch = 8;
    cfg.cache_capacity = 8192;
    cfg.degradation.reduced_queue_depth = 64;
    cfg.degradation.baseline_queue_depth = 128;
    cfg.drift_window = 32;

    const auto run_cell = [&](const std::string& scenario) {
        net::ServerConfig ncfg;
        ncfg.shards = 2;
        ncfg.max_connections = conns + 16;
        net::ShardedServer server(forest, xai::BackgroundData(built.data.x, 64),
                                  cfg, ncfg);
        std::string error;
        if (!server.start(&error)) {
            std::fprintf(stderr, "server start failed: %s\n", error.c_str());
            std::exit(1);
        }
        std::thread loop([&server] { server.run(); });
        scn::DriverConfig dcfg;
        dcfg.port = server.port();
        dcfg.scenario = scenario;
        dcfg.seed = 2020;
        dcfg.deployments = deployments;
        dcfg.epochs_per_phase = epochs;
        dcfg.connections = conns;
        dcfg.window = 4;
        dcfg.method = "tree_shap";
        dcfg.interactions = 2;
        dcfg.flash_mult = 6.0;
        Cell cell;
        cell.scenario = scenario;
        bench::Stopwatch sw;
        cell.report = scn::run_scenario(dcfg);
        cell.wall_ms = sw.ms();
        server.request_drain();
        loop.join();
        server.stop_services();
        return cell;
    };

    const std::vector<std::string> families = {"enterprise_edge", "web_pop",
                                               "fault_burst"};
    bench::print_header("S6", "closed-loop scenarios (2-shard TCP, live replay)");
    std::printf("%-18s %-12s %8s %8s %10s %10s %8s %8s %8s\n", "scenario",
                "phase", "reqs", "errors", "p50_us", "p99_us", "degr",
                "drift", "slaviol");
    bench::print_rule();

    bench::JsonArtifact artifact("s6_scenarios");
    bool ok = true;
    std::vector<Cell> cells;
    for (const auto& family : families) {
        Cell cell = run_cell(family);
        ok = ok && cell.report.transport_ok;
        for (const auto& p : cell.report.phases) {
            ok = ok && p.requests == p.responses && p.errors == 0;
            std::printf("%-18s %-12s %8zu %8zu %10.1f %10.1f %8llu %8llu %8llu\n",
                        family.c_str(), p.name.c_str(), p.requests, p.errors,
                        p.latency_p50_us, p.latency_p99_us,
                        static_cast<unsigned long long>(p.degraded),
                        static_cast<unsigned long long>(p.drift_flushes),
                        static_cast<unsigned long long>(p.sla_violations));
            serve::JsonWriter w;
            w.field("scenario", family);
            w.field("phase", p.name);
            w.field("requests", static_cast<std::uint64_t>(p.requests));
            w.field("errors", static_cast<std::uint64_t>(p.errors));
            w.field("latency_p50_us", p.latency_p50_us);
            w.field("latency_p95_us", p.latency_p95_us);
            w.field("latency_p99_us", p.latency_p99_us);
            w.field("degraded", p.degraded);
            w.field("cache_hits", p.cache_hits);
            w.field("drift_flushes", p.drift_flushes);
            w.field("sla_violations", p.sla_violations);
            w.field("wall_ms", cell.wall_ms);
            artifact.add_object(w.finish());
        }
        std::printf("%-18s action: %s (driver: %s, applied: %s)\n",
                    family.c_str(),
                    cell.report.action.empty() ? "-" : cell.report.action.c_str(),
                    cell.report.action_driver.empty()
                        ? "-"
                        : cell.report.action_driver.c_str(),
                    cell.report.action_applied ? "yes" : "no");
        cells.push_back(std::move(cell));
    }

    // Determinism gate: the first family reruns against a fresh server and
    // both hashes must reproduce exactly.
    const Cell again = run_cell(families[0]);
    const bool deterministic =
        again.report.trace_hash == cells[0].report.trace_hash &&
        again.report.responses_hash == cells[0].report.responses_hash;
    std::printf("determinism: trace %s, responses %s\n",
                again.report.trace_hash == cells[0].report.trace_hash ? "ok"
                                                                      : "DIVERGED",
                again.report.responses_hash == cells[0].report.responses_hash
                    ? "ok"
                    : "DIVERGED");
    ok = ok && deterministic;

    {
        serve::JsonWriter w;
        w.field("check", "determinism");
        w.field("scenario", families[0]);
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(cells[0].report.trace_hash));
        w.field("trace_hash", std::string(buf));
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          cells[0].report.responses_hash));
        w.field("responses_hash", std::string(buf));
        w.field("reproduced", deterministic);
        artifact.add_object(w.finish());
    }
    if (!artifact.write(json_path))
        std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    else
        std::printf("artifact: %s\n", json_path.c_str());
    return ok ? 0 : 1;
}
