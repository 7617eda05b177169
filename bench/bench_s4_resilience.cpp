// S4 — resilience: serving behavior under injected socket faults
// (net/chaos.hpp), per fault class, against a no-chaos baseline.
//
// Each cell starts a fresh 2-shard ShardedServer on an ephemeral loopback
// port, arms exactly one fault class in the deterministic injector, and
// drives the same request workload:
//
//   * chunking classes (partial_write / torn_read / eintr_storm /
//     stalled_read) run the plain FIFO load generator — faults reshape I/O
//     timing but every stream must still complete cleanly, and the p99
//     round-trip is compared to the baseline under a generous delta gate
//     (chaos is allowed to cost latency, not correctness, and the gate only
//     catches order-of-magnitude regressions like a stuck retry loop);
//   * the transport-killing class (rst_close) runs the loadgen's safe-retry
//     mode — the gate is exactly-once completion.
//
// Output: a fixed-format table and a JSON artifact (default
// BENCH_s4_resilience.json, overridable via argv[1]) for CI to archive.
// Sizes are overridable through XNFV_RESIL_REQUESTS (per connection,
// chunking classes) and XNFV_RESIL_WINDOW.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/chaos.hpp"
#include "net/loadgen.hpp"
#include "net/sharded_server.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"

namespace bench = xnfv::bench;
namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
    const char* raw = std::getenv(name);
    if (!raw || !*raw) return fallback;
    const long value = std::atol(raw);
    return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

std::string request_line(std::uint64_t id, std::size_t row, std::uint64_t rid) {
    serve::JsonWriter w;
    w.field("op", "explain");
    w.field("id", id);
    if (rid != 0) w.field("rid", rid);
    w.field("row", static_cast<std::uint64_t>(row));
    return w.finish();
}

double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

struct ClassSpec {
    const char* name;
    net::NetFaultPoint point;
    double rate;
    std::uint64_t max_fires;  ///< 0 = unlimited
    bool retry_mode;          ///< transport-killing classes need safe retries
};

struct ClassResult {
    double req_per_sec = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t answered = 0;
    std::uint64_t faults = 0;
    std::uint64_t retries = 0;
    std::uint64_t reconnects = 0;
    bool clean = false;  ///< every stream completed without error
};

}  // namespace

int main(int argc, char** argv) {
    bench::print_header(
        "S4", "resilience: p99 and completion per injected socket-fault class");

    const std::size_t conns = 16;
    const std::size_t per_conn = env_size("XNFV_RESIL_REQUESTS", 200);
    const std::size_t retry_per_conn = std::max<std::size_t>(8, per_conn / 4);
    const std::size_t window = env_size("XNFV_RESIL_WINDOW", 8);
    const std::size_t hot_rows = 16;
    const std::string json_path = argc > 1 ? argv[1] : "BENCH_s4_resilience.json";

    auto task = bench::make_sla_task(1000, 2020);
    const auto forest =
        std::make_shared<ml::RandomForest>(bench::train_forest(task.train, 7));
    const xai::BackgroundData background(task.train.x, 128);

    const std::vector<ClassSpec> classes{
        {"none", net::NetFaultPoint::partial_write, 0.0, 0, false},
        {"partial_write", net::NetFaultPoint::partial_write, 0.30, 0, false},
        {"torn_read", net::NetFaultPoint::torn_read, 0.30, 0, false},
        {"eintr_storm", net::NetFaultPoint::eintr_storm, 0.30, 0, false},
        {"stalled_read", net::NetFaultPoint::stalled_read, 0.30, 0, false},
        {"rst_close", net::NetFaultPoint::rst_close, 1.0, 4, true},
    };

    std::printf("\nmethod=tree_shap  shards=2  conns=%zu  window=%zu  "
                "(round-trip us)\n",
                conns, window);
    std::printf("%-14s %9s %9s %9s %8s %8s %8s %6s\n", "fault", "req/s", "p50us",
                "p99us", "fired", "retries", "reconn", "clean");
    bench::print_rule();

    bench::JsonArtifact artifact("tcp_serving_resilience");
    double baseline_p99 = 0.0;
    bool pass = true;

    for (const auto& spec : classes) {
        const std::size_t n = spec.retry_mode ? retry_per_conn : per_conn;
        std::vector<std::vector<std::string>> scripts(conns);
        for (std::size_t c = 0; c < conns; ++c) {
            auto& script = scripts[c];
            script.reserve(n + 1);
            for (std::size_t r = 0; r < n; ++r) {
                const std::uint64_t id = c * n + r + 1;
                script.push_back(
                    request_line(id, (c + r) % hot_rows, spec.retry_mode ? id : 0));
            }
            if (!spec.retry_mode) script.push_back("{\"op\":\"quit\"}");
        }

        serve::ServiceConfig cfg;
        cfg.method = "tree_shap";
        cfg.queue_depth = std::max<std::size_t>(1024, conns * window + 256);
        cfg.max_batch = 16;
        cfg.cache_capacity = 8192;

        net::ServerConfig ncfg;
        ncfg.shards = 2;
        ncfg.max_connections = conns + 64;
        net::NetFaultInjector::Config nf;
        nf.seed = 0x5e4f;
        nf.rate[static_cast<std::size_t>(spec.point)] = spec.rate;
        nf.max_fires[static_cast<std::size_t>(spec.point)] = spec.max_fires;
        const auto chaos = std::make_shared<net::NetFaultInjector>(nf);
        ncfg.chaos = chaos;
        net::ShardedServer server(forest, background, cfg, ncfg);
        server.set_row_lookup(
            [&task](std::size_t row, std::vector<double>& features) {
                if (row >= task.train.size()) return false;
                const auto x = task.train.x.row(row);
                features.assign(x.begin(), x.end());
                return true;
            });
        std::string error;
        if (!server.start(&error)) {
            std::fprintf(stderr, "listen failed: %s\n", error.c_str());
            return 1;
        }
        std::thread loop([&server] { server.run(); });

        for (std::size_t s = 0; s < server.shards(); ++s)
            for (std::size_t row = 0; row < hot_rows; ++row) {
                serve::ExplainRequest er;
                er.id = row + 1;
                const auto x = task.train.x.row(row);
                er.features.assign(x.begin(), x.end());
                if (!server.service(s).explain_sync(std::move(er)).ok) {
                    std::fprintf(stderr, "prime failed on shard %zu\n", s);
                    return 1;
                }
            }

        net::LoadgenConfig lg;
        lg.port = server.port();
        lg.window = window;
        lg.record_latency = true;
        lg.timeout = std::chrono::milliseconds(120000);
        if (spec.retry_mode) {
            lg.max_retries = 16;
            lg.response_timeout = std::chrono::milliseconds(2000);
            lg.connect_timeout = std::chrono::milliseconds(2000);
            lg.backoff_base = std::chrono::milliseconds(5);
            lg.retry_seed = 9;
        }

        bench::Stopwatch watch;
        const auto report = net::run_load(lg, scripts);
        const double elapsed_ms = watch.ms();

        server.request_drain();
        loop.join();
        server.stop_services();

        ClassResult res;
        res.faults = chaos->total_fired();
        res.clean = !report.timed_out;
        std::vector<double> merged;
        for (const auto& conn : report.conns) {
            res.clean = res.clean && !conn.connect_failed && !conn.io_error;
            const std::size_t got = conn.lines.size() - conn.duplicates;
            res.clean = res.clean && got == n;
            res.answered += got;
            res.retries += conn.retries + conn.reconnects;
            res.reconnects += conn.reconnects;
            merged.insert(merged.end(), conn.latency_us.begin(),
                          conn.latency_us.end());
        }
        std::sort(merged.begin(), merged.end());
        res.req_per_sec =
            elapsed_ms > 0.0
                ? 1000.0 * static_cast<double>(res.answered) / elapsed_ms
                : 0.0;
        res.p50_us = percentile(merged, 0.50);
        res.p99_us = percentile(merged, 0.99);
        if (std::string(spec.name) == "none") baseline_p99 = res.p99_us;

        // Gates.  Chunking classes: clean completion and a generous p99
        // delta vs baseline (100x with a 50ms floor — catches lockups, not
        // honest fault-induced latency).  Retry classes: exactly-once
        // completion.
        bool class_ok = res.clean;
        if (!spec.retry_mode && baseline_p99 > 0.0)
            class_ok = class_ok &&
                       res.p99_us <= std::max(50000.0, 100.0 * baseline_p99);
        pass = pass && class_ok;

        std::printf("%-14s %9.0f %9.1f %9.1f %8llu %8llu %8llu %6s\n", spec.name,
                    res.req_per_sec, res.p50_us, res.p99_us,
                    static_cast<unsigned long long>(res.faults),
                    static_cast<unsigned long long>(res.retries),
                    static_cast<unsigned long long>(res.reconnects),
                    class_ok ? "yes" : "NO");

        char obj[420];
        std::snprintf(
            obj, sizeof(obj),
            "{\"fault\": \"%s\", \"req_per_sec\": %.1f, \"p50_us\": %.1f, "
            "\"p99_us\": %.1f, \"answered\": %llu, \"faults_fired\": %llu, "
            "\"retries\": %llu, \"reconnects\": %llu, \"clean\": %s}",
            spec.name, res.req_per_sec, res.p50_us, res.p99_us,
            static_cast<unsigned long long>(res.answered),
            static_cast<unsigned long long>(res.faults),
            static_cast<unsigned long long>(res.retries),
            static_cast<unsigned long long>(res.reconnects),
            res.clean ? "true" : "false");
        artifact.add_object(obj);
    }

    if (artifact.write(json_path))
        std::printf("\nwrote %s\n", json_path.c_str());
    else
        std::printf("\nFAILED to write %s\n", json_path.c_str());

    std::printf("resilience gates: [%s]\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
