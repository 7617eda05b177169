// S3 — multi-tenant fair serving: cold-tenant throughput/latency under a
// 10x hot-tenant flood, and atomic hot-swap publish latency.
//
// Fairness phase.  Two tenants share one explanation service: "prod" (the
// cold tenant, closed-loop serial traffic — one outstanding request, all
// distinct rows so every answer is a real computation) and "hot" (the
// flooding tenant, a 10-deep async window hammering a small repetitive row
// set — the steady-state NFV telemetry shape, quota-capped so it cannot
// occupy the whole admission queue).  The cold tenant's workload is run
// twice on fresh services — solo, then against the flood — and the
// fairness ratio is mixed/solo throughput.  The DWRR queue plus the hot
// quota is what keeps that ratio near 1: without them the hot window fills
// the FIFO and the cold tenant queues behind the entire backlog.
//
// Swap phase.  While light cold traffic flows, the default model is
// re-published N times (retrain -> publish hot swap, alternating two
// forests).  Each model_swap() call fingerprints the incoming model, probes
// the background for the base-value memo, and installs the snapshot with
// one pointer store — the reported p50/p95 is that whole publish path, the
// retrain-to-live latency an operator would see.  Traffic must lose nothing
// while the swaps land.
//
// Output: a fixed-format table and a JSON artifact (default
// BENCH_s3_multitenant.json, overridable via argv[1]).  Exit status gates:
//   * cold-tenant fairness ratio >= 0.8 (XNFV_MT_FAIRNESS_FLOOR overrides);
//   * swap publish p95 <= 500 ms (XNFV_MT_SWAP_P95_MS overrides);
//   * zero cold-tenant rejections and zero dropped requests, always.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"

namespace bench = xnfv::bench;
namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

namespace {

double env_double(const char* name, double fallback) {
    const char* raw = std::getenv(name);
    if (!raw || !*raw) return fallback;
    const double value = std::atof(raw);
    return value > 0.0 ? value : fallback;
}

std::size_t env_size(const char* name, std::size_t fallback) {
    const char* raw = std::getenv(name);
    if (!raw || !*raw) return fallback;
    const long value = std::atol(raw);
    return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

serve::ExplainRequest make_request(const ml::Dataset& data, std::uint64_t id,
                                   std::size_t row, const std::string& model,
                                   std::uint64_t seed) {
    serve::ExplainRequest er;
    er.id = id;
    const auto x = data.x.row(row % data.size());
    er.features.assign(x.begin(), x.end());
    er.method = "tree_shap";
    er.model = model;
    er.seed = seed;
    return er;
}

struct ColdRun {
    double req_per_sec = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
};

/// Closed-loop serial cold-tenant workload: `n` requests over distinct rows
/// (fresh seeds, so every answer is a genuine computation, never a cache
/// hit), one outstanding at a time — a latency-sensitive caller.
ColdRun run_cold_tenant(serve::ExplanationService& service,
                        const ml::Dataset& data, std::size_t n) {
    ColdRun run;
    std::vector<double> latencies;
    latencies.reserve(n);
    bench::Stopwatch total;
    for (std::size_t i = 0; i < n; ++i) {
        bench::Stopwatch one;
        const auto r = service.explain_sync(
            make_request(data, i + 1, i, "", /*seed=*/1000 + i));
        if (!r.ok) {
            ++run.rejected;
            continue;
        }
        latencies.push_back(one.ms() * 1000.0);
        ++run.completed;
    }
    const double elapsed_ms = total.ms();
    run.req_per_sec = elapsed_ms > 0.0
                          ? 1000.0 * static_cast<double>(run.completed) / elapsed_ms
                          : 0.0;
    run.p50_us = percentile(latencies, 0.50);
    run.p99_us = percentile(latencies, 0.99);
    return run;
}

}  // namespace

int main(int argc, char** argv) {
    bench::print_header(
        "S3", "multi-tenant fairness under flood + hot-swap publish latency");

    const std::size_t cold_requests = env_size("XNFV_MT_COLD_REQUESTS", 300);
    const std::size_t hot_window = env_size("XNFV_MT_HOT_WINDOW", 10);
    const std::size_t swap_count = env_size("XNFV_MT_SWAPS", 40);
    const double fairness_floor = env_double("XNFV_MT_FAIRNESS_FLOOR", 0.8);
    const double swap_p95_cap_ms = env_double("XNFV_MT_SWAP_P95_MS", 500.0);
    const std::string json_path = argc > 1 ? argv[1] : "BENCH_s3_multitenant.json";

    auto task = bench::make_sla_task(800, 2020);
    const auto prod =
        std::make_shared<ml::RandomForest>(bench::train_forest(task.train, 7, 40));
    const auto prod_retrained =
        std::make_shared<ml::RandomForest>(bench::train_forest(task.train, 17, 40));
    const auto hot_model =
        std::make_shared<ml::RandomForest>(bench::train_forest(task.train, 23, 20));
    const xai::BackgroundData background(task.train.x, 128);

    const auto make_config = [&] {
        serve::ServiceConfig cfg;
        cfg.method = "tree_shap";
        cfg.queue_depth = 256;
        cfg.max_batch = 8;
        cfg.cache_capacity = 8192;
        // The hot tenant may hold at most 2 batches' worth of queue slots;
        // everything beyond rejects with quota_exceeded at admission.
        cfg.extra_models.push_back({"hot", hot_model, 1, /*quota=*/16});
        return cfg;
    };

    std::printf("\ncold=%zu serial requests (distinct rows)  hot=%zu-deep window "
                "(repetitive rows)\n\n",
                cold_requests, hot_window);
    std::printf("%-22s %12s %10s %10s %10s\n", "phase", "cold req/s", "p50us",
                "p99us", "rejects");
    bench::print_rule();

    // ---- solo baseline: the hot tenant is registered but silent. ----------
    ColdRun solo;
    {
        serve::ExplanationService service(prod, background, make_config());
        solo = run_cold_tenant(service, task.train, cold_requests);
        service.stop();
    }
    std::printf("%-22s %12.1f %10.1f %10.1f %10zu\n", "solo", solo.req_per_sec,
                solo.p50_us, solo.p99_us, solo.rejected);

    // ---- mixed: same cold workload against the 10x flood. -----------------
    ColdRun mixed;
    std::uint64_t hot_admitted = 0, hot_rejected_quota = 0;
    {
        serve::ExplanationService service(prod, background, make_config());
        std::atomic<bool> stop{false};
        std::thread flood([&] {
            // A windowed closed loop `hot_window` deep: as soon as a response
            // lands another request is submitted, an offered load ~10x the
            // cold tenant's single outstanding request.
            std::vector<std::future<serve::ExplainResponse>> inflight;
            std::uint64_t id = 1 << 20;
            while (!stop.load(std::memory_order_relaxed)) {
                while (inflight.size() < hot_window &&
                       !stop.load(std::memory_order_relaxed)) {
                    auto sub = service.submit(
                        make_request(task.train, id, id % 32, "hot", /*seed=*/0));
                    ++id;
                    if (sub.rejected == serve::ServeError::none)
                        inflight.push_back(std::move(sub.response));
                    else
                        std::this_thread::yield();  // quota bite: back off
                }
                if (!inflight.empty()) {
                    (void)inflight.front().get();
                    inflight.erase(inflight.begin());
                }
            }
            for (auto& f : inflight) (void)f.get();
        });
        mixed = run_cold_tenant(service, task.train, cold_requests);
        stop.store(true);
        flood.join();
        const auto stats = service.stats();
        for (const auto& m : stats.models) {
            if (m.name == "hot") {
                hot_admitted = m.admitted;
                hot_rejected_quota = m.rejected_quota;
            }
        }
        service.stop();
    }
    std::printf("%-22s %12.1f %10.1f %10.1f %10zu\n", "mixed (10x flood)",
                mixed.req_per_sec, mixed.p50_us, mixed.p99_us, mixed.rejected);
    std::printf("  hot tenant: %llu admitted, %llu quota rejections\n",
                static_cast<unsigned long long>(hot_admitted),
                static_cast<unsigned long long>(hot_rejected_quota));

    const double fairness = solo.req_per_sec > 0.0
                                ? mixed.req_per_sec / solo.req_per_sec
                                : 0.0;

    // ---- swap latency: retrain -> publish while traffic flows. ------------
    std::vector<double> swap_us;
    std::size_t swap_traffic_errors = 0;
    {
        serve::ExplanationService service(prod, background, make_config());
        std::atomic<bool> stop{false};
        std::thread traffic([&] {
            std::uint64_t id = 1;
            while (!stop.load(std::memory_order_relaxed)) {
                const auto r = service.explain_sync(
                    make_request(task.train, id, id % 64, "", /*seed=*/id));
                if (!r.ok) ++swap_traffic_errors;
                ++id;
            }
        });
        swap_us.reserve(swap_count);
        for (std::size_t i = 0; i < swap_count; ++i) {
            const auto& next = (i % 2 == 0)
                                   ? prod_retrained
                                   : prod;
            bench::Stopwatch watch;
            if (service.model_swap("", next) != serve::ServeError::none) {
                std::fprintf(stderr, "swap %zu failed\n", i);
                return 1;
            }
            swap_us.push_back(watch.ms() * 1000.0);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        stop.store(true);
        traffic.join();
        service.stop();
    }
    const double swap_p50_us = percentile(swap_us, 0.50);
    const double swap_p95_us = percentile(swap_us, 0.95);
    std::printf("\nhot swap publish latency over %zu swaps under live traffic: "
                "p50 %.1f us  p95 %.1f us\n",
                swap_count, swap_p50_us, swap_p95_us);

    bench::JsonArtifact artifact("multitenant_fair_serving");
    char obj[512];
    std::snprintf(obj, sizeof(obj),
                  "{\"phase\": \"solo\", \"cold_req_per_sec\": %.1f, "
                  "\"cold_p50_us\": %.1f, \"cold_p99_us\": %.1f, "
                  "\"cold_rejected\": %zu}",
                  solo.req_per_sec, solo.p50_us, solo.p99_us, solo.rejected);
    artifact.add_object(obj);
    std::snprintf(obj, sizeof(obj),
                  "{\"phase\": \"mixed\", \"cold_req_per_sec\": %.1f, "
                  "\"cold_p50_us\": %.1f, \"cold_p99_us\": %.1f, "
                  "\"cold_rejected\": %zu, \"hot_admitted\": %llu, "
                  "\"hot_rejected_quota\": %llu, \"hot_window\": %zu}",
                  mixed.req_per_sec, mixed.p50_us, mixed.p99_us, mixed.rejected,
                  static_cast<unsigned long long>(hot_admitted),
                  static_cast<unsigned long long>(hot_rejected_quota), hot_window);
    artifact.add_object(obj);
    std::snprintf(obj, sizeof(obj),
                  "{\"phase\": \"swap\", \"swaps\": %zu, \"p50_us\": %.1f, "
                  "\"p95_us\": %.1f, \"traffic_errors\": %zu}",
                  swap_count, swap_p50_us, swap_p95_us, swap_traffic_errors);
    artifact.add_object(obj);
    std::snprintf(obj, sizeof(obj),
                  "{\"phase\": \"summary\", \"fairness_ratio\": %.4f, "
                  "\"fairness_floor\": %.2f}",
                  fairness, fairness_floor);
    artifact.add_object(obj);
    if (artifact.write(json_path))
        std::printf("\nwrote %s\n", json_path.c_str());
    else
        std::printf("\nFAILED to write %s\n", json_path.c_str());

    bool pass = true;
    std::printf("cold-tenant fairness ratio (mixed/solo): %.3f  [%s] "
                "(floor %.2f)\n",
                fairness, fairness >= fairness_floor ? "PASS" : "FAIL",
                fairness_floor);
    pass = pass && fairness >= fairness_floor;
    std::printf("swap publish p95: %.1f us  [%s] (cap %.0f ms)\n", swap_p95_us,
                swap_p95_us <= swap_p95_cap_ms * 1000.0 ? "PASS" : "FAIL",
                swap_p95_cap_ms);
    pass = pass && swap_p95_us <= swap_p95_cap_ms * 1000.0;
    const bool no_drops = solo.rejected == 0 && mixed.rejected == 0 &&
                          swap_traffic_errors == 0;
    std::printf("zero cold rejections / zero errors under swap: [%s]\n",
                no_drops ? "PASS" : "FAIL");
    pass = pass && no_drops;
    return pass ? 0 : 1;
}
