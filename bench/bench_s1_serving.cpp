// S1 — online serving: throughput and tail latency of ExplanationService
// versus batch cap (max_batch) and cache hit ratio, plus the cold-vs-cache-hit
// speedup that justifies the LRU cache for repetitive NFV telemetry.
//
// Output (fixed format, seeded, reproducible):
//   table 1: req/s and p50/p95/p99 service time for batch in {1, 8, 32} and
//            target hit ratio in {0, 0.5, 0.9} (tree_shap, the production
//            default method);
//   table 2: per-request cold vs cache-hit latency for kernel_shap (the
//            expensive method the cache exists for) with the >= 10x check;
//   final:   the ServiceStats::to_string() report of the last sweep cell.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "serve/service.hpp"

namespace bench = xnfv::bench;
namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

namespace {

serve::ExplainRequest request_for_row(const ml::Dataset& data, std::uint64_t id,
                                      std::size_t row) {
    serve::ExplainRequest r;
    r.id = id;
    const auto x = data.x.row(row);
    r.features.assign(x.begin(), x.end());
    return r;
}

/// Deterministic request stream: a `hit_ratio` fraction of requests revisit
/// a small hot set of rows (the telemetry-repeat pattern); the rest walk
/// fresh rows.
std::vector<std::size_t> make_stream(std::size_t n, double hit_ratio,
                                     std::size_t hot_rows, std::size_t total_rows,
                                     std::uint64_t seed) {
    ml::Rng rng(seed);
    std::vector<std::size_t> rows;
    rows.reserve(n);
    std::size_t next_fresh = hot_rows;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.uniform() < hit_ratio) {
            rows.push_back(rng.uniform_index(hot_rows));
        } else {
            rows.push_back(next_fresh);
            next_fresh = hot_rows + (next_fresh + 1 - hot_rows) % (total_rows - hot_rows);
        }
    }
    return rows;
}

}  // namespace

int main() {
    bench::print_header("S1", "online serving: throughput, tail latency, cache");

    auto task = bench::make_sla_task(4000, 2020);
    const auto forest =
        std::make_shared<ml::RandomForest>(bench::train_forest(task.train, 7));
    const xai::BackgroundData background(task.train.x, 128);
    const std::size_t requests = 512;

    std::printf("\nmethod=tree_shap  requests=%zu  (req/s, service-time percentiles)\n",
                requests);
    std::printf("%-6s %-5s %10s %9s %9s %9s %9s\n", "batch", "hit%", "req/s",
                "p50us", "p95us", "p99us", "hitrate");
    bench::print_rule();

    std::string last_report;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{32}}) {
        for (const double hit_ratio : {0.0, 0.5, 0.9}) {
            serve::ServiceConfig cfg;
            cfg.method = "tree_shap";
            cfg.queue_depth = requests;
            cfg.max_batch = batch;
            cfg.cache_capacity = 8192;
            serve::ExplanationService service(forest, background, cfg);

            const auto stream =
                make_stream(requests, hit_ratio, 16, task.train.size(), 42);
            bench::Stopwatch watch;
            std::vector<std::future<serve::ExplainResponse>> futures;
            futures.reserve(requests);
            for (std::size_t i = 0; i < stream.size(); ++i) {
                auto sub = service.submit(request_for_row(task.train, i, stream[i]));
                if (sub.rejected != serve::ServeError::none) continue;
                futures.push_back(std::move(sub.response));
            }
            for (auto& f : futures) (void)f.get();
            const double elapsed_ms = watch.ms();

            const auto stats = service.stats();
            std::printf("%-6zu %-5.0f %10.0f %9.1f %9.1f %9.1f %9.3f\n", batch,
                        100.0 * hit_ratio,
                        1000.0 * static_cast<double>(futures.size()) / elapsed_ms,
                        stats.service_us_p50, stats.service_us_p95,
                        stats.service_us_p99, stats.cache_hit_rate());
            last_report = stats.to_string();
        }
    }

    // Cold vs cache-hit, per request, on the method the cache pays for most.
    std::printf("\ncold vs cache-hit (kernel_shap, per-request explain_sync)\n");
    bench::print_rule();
    serve::ServiceConfig cfg;
    cfg.method = "kernel_shap";
    cfg.max_batch = 1;
    serve::ExplanationService service(forest, background, cfg);

    const std::size_t probes = 24;
    bench::Stopwatch watch;
    for (std::size_t i = 0; i < probes; ++i)
        (void)service.explain_sync(request_for_row(task.train, i, i));  // all unique
    const double cold_us = 1000.0 * watch.ms() / static_cast<double>(probes);

    (void)service.explain_sync(request_for_row(task.train, 999, 3));  // prime
    watch.reset();
    for (std::size_t i = 0; i < probes; ++i)
        (void)service.explain_sync(request_for_row(task.train, 1000 + i, 3));
    const double hit_us = 1000.0 * watch.ms() / static_cast<double>(probes);

    const double speedup = hit_us > 0.0 ? cold_us / hit_us : 0.0;
    std::printf("  cold  %10.1f us/req\n", cold_us);
    std::printf("  hit   %10.1f us/req\n", hit_us);
    std::printf("  speedup %8.1fx  [%s] (target >= 10x)\n", speedup,
                speedup >= 10.0 ? "PASS" : "FAIL");

    // Degradation ladder: per-request cost of each rung for kernel_shap —
    // the latency headroom the service buys when it steps overloaded
    // requests down instead of rejecting them.
    std::printf("\ndegradation ladder (kernel_shap, per-request explain cost)\n");
    bench::print_rule();
    const auto x0 = task.train.x.row(5);
    const std::vector<double> probe(x0.begin(), x0.end());
    struct Rung {
        const char* name;
        const char* method;
        double scale;
    };
    for (const Rung rung : {Rung{"full", "kernel_shap", 1.0},
                            Rung{"reduced", "kernel_shap", 0.25},
                            Rung{"baseline", "occlusion", 1.0}}) {
        serve::ExplainerLimits limits;
        limits.budget_scale = rung.scale;
        watch.reset();
        for (std::size_t i = 0; i < probes; ++i)
            (void)serve::make_explainer(rung.method, background, 11, 0, limits)
                ->explain(*forest, probe);
        std::printf("  %-9s %10.1f us/req  (budget %llu)\n", rung.name,
                    1000.0 * watch.ms() / static_cast<double>(probes),
                    static_cast<unsigned long long>(serve::effective_budget(
                        rung.method, rung.scale, background)));
    }

    // Snapshot persistence: cost of writing and reloading a warm cache —
    // what a restart pays to avoid recomputing its hot set.
    std::printf("\ncache snapshot write/read (%zu records)\n", probes + 1);
    bench::print_rule();
    const std::string snap = "/tmp/xnfv_bench_snapshot.bin";
    watch.reset();
    service.stop();  // writes nothing: no snapshot_path configured
    serve::ServiceConfig snap_cfg = cfg;
    snap_cfg.snapshot_path = snap;
    {
        serve::ExplanationService warm(forest, background, snap_cfg);
        for (std::size_t i = 0; i < probes; ++i)
            (void)warm.explain_sync(request_for_row(task.train, i, i));
        watch.reset();
        warm.stop();
        std::printf("  write %10.1f us\n", 1000.0 * watch.ms());
    }
    watch.reset();
    serve::ExplanationService restored(forest, background, snap_cfg);
    const double load_us = 1000.0 * watch.ms();
    std::printf("  load  %10.1f us  (records %llu)\n", load_us,
                static_cast<unsigned long long>(
                    restored.stats().snapshot_records_loaded));
    std::remove(snap.c_str());

    std::printf("\nfinal sweep-cell stats report:\n%s", last_report.c_str());
    return speedup >= 10.0 ? 0 : 1;
}
