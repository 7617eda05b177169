// Closed-loop walkthrough: simulate -> serve -> explain -> act -> re-drive.
//
// The full NOC loop through the scenario driver (src/scenario/), not a
// hand-staged incident: a fleet of enterprise-edge deployments is sampled
// and stepped live through three phases — baseline traffic, a 6x flash
// crowd, and the same flash traffic after the served explanation's
// remediation was applied back into the simulator.  Every simulated
// chain-epoch's telemetry is replayed as concurrent ND-JSON `explain`
// clients against a real 2-shard TCP server running in this process; the
// worst violating chain's served attributions pick the action; the
// simulator — not the model — then judges the fix in phase three.
//
// Build & run:  ./build/examples/closed_loop
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "mlcore/forest.hpp"
#include "net/sharded_server.hpp"
#include "scenario/driver.hpp"
#include "serve/service.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace scn = xnfv::scenario;
namespace serve = xnfv::serve;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

int main() {
    // Train the violation model once, on the same workload family the
    // driver will replay.
    ml::Rng rng(31);
    wl::BuildOptions opt;
    opt.num_samples = 2000;
    const auto built = wl::build_dataset(wl::standard_scenarios()[1], opt, rng);
    auto model =
        std::make_shared<ml::RandomForest>(ml::RandomForest::Config{.num_trees = 40});
    model->fit(built.data, rng);

    // A production-shaped server: 2 SO_REUSEPORT shards, degradation ladder
    // and drift detection armed — the flash crowd will exercise both.
    serve::ServiceConfig cfg;
    cfg.method = "tree_shap";
    cfg.seed = 11;
    cfg.degradation.reduced_queue_depth = 32;
    cfg.degradation.baseline_queue_depth = 64;
    cfg.drift_window = 16;
    net::ServerConfig ncfg;
    ncfg.shards = 2;
    net::ShardedServer server(model, xai::BackgroundData(built.data.x, 64), cfg,
                              ncfg);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "server start failed: %s\n", error.c_str());
        return 1;
    }
    std::thread loop([&server] { server.run(); });

    scn::DriverConfig dcfg;
    dcfg.port = server.port();
    dcfg.scenario = "enterprise_edge";
    dcfg.seed = 2020;
    dcfg.deployments = 2;
    dcfg.epochs_per_phase = 4;
    dcfg.connections = 16;
    dcfg.interactions = 2;  // top-2 Friedman-H2 pairs ride each response
    dcfg.flash_mult = 6.0;
    const auto report = scn::run_scenario(dcfg);

    server.request_drain();
    loop.join();
    server.stop_services();

    if (!report.transport_ok) {
        std::fprintf(stderr, "transport failure: %s\n", report.error.c_str());
        return 1;
    }

    std::printf("== closed loop (%s, seed %llu) ==\n", report.scenario.c_str(),
                static_cast<unsigned long long>(report.seed));
    for (const auto& p : report.phases)
        std::printf(
            "%-12s  %3zu reqs  p50 %7.1f us  p99 %7.1f us  degraded %3llu  "
            "drift flushes %2llu  SLA violations %3llu\n",
            p.name.c_str(), p.requests, p.latency_p50_us, p.latency_p99_us,
            static_cast<unsigned long long>(p.degraded),
            static_cast<unsigned long long>(p.drift_flushes),
            static_cast<unsigned long long>(p.sla_violations));

    std::printf("\n== remediation (chosen by the served explanation) ==\n");
    if (report.action.empty()) {
        std::printf("no chain violated its SLA during the flash crowd\n");
    } else {
        std::printf("%s (driver: %s, applied: %s)\n", report.action.c_str(),
                    report.action_driver.c_str(),
                    report.action_applied ? "yes" : "no");
        const auto& flash = report.phases[1];
        const auto& fixed = report.phases[2];
        std::printf("flash_crowd had %llu SLA violations; remediated has %llu\n",
                    static_cast<unsigned long long>(flash.sla_violations),
                    static_cast<unsigned long long>(fixed.sla_violations));
    }
    std::printf("\nfull SLO report:\n%s\n", report.to_json().c_str());
    return 0;
}
