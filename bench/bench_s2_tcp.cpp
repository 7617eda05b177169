// S2 — TCP serving: throughput and tail latency of the thread-per-core
// sharded epoll front-end (src/net/) versus shard count and connection
// count.
//
// Each cell starts a fresh ShardedServer (N SO_REUSEPORT event-loop +
// service shards) on an ephemeral loopback port, primes every shard's cache
// with the hot row set (directly, so the kernel's connection hashing cannot
// leave a shard cold), then drives it with the multiplexed epoll load
// generator (net/loadgen.hpp) — one client thread holding every connection,
// which is what lets the sweep's big cell run ~10k concurrent connections.
// Requests revisit the hot rows, so the sweep measures the cached-hit
// serving path — the steady state for repetitive NFV telemetry — end to end
// through accept, frame decode, slot pipeline, and write-back.
//
// Equivalence is asserted inside the sweep: for every connection-count
// column, each multi-shard cell's per-connection response streams must be
// byte-identical to the 1-shard cell's (modulo the "cache_hit" flag, which
// is cross-connection-timing-dependent on ANY shard count).
//
// Output: a fixed-format table (req/s, p50/p95/p99 round-trip) and a JSON
// artifact (default BENCH_s2_tcp.json, overridable via argv[1]) for CI to
// archive.  Sizes are overridable through XNFV_TCP_REQUESTS (per connection
// at the 8-connection column; other columns scale to the same total),
// XNFV_TCP_WINDOW, and XNFV_TCP_STORM (target size of the big column,
// default 10000, clamped to what RLIMIT_NOFILE can hold in one process).
// Exit status checks two floors: >= 5000 req/s cached-hit at 1 shard x 8
// connections, and — on hosts with >= 4 cores — >= 3x the 1-shard
// throughput at 4 shards on the contended column.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
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

std::string request_line(std::uint64_t id, std::size_t row) {
    serve::JsonWriter w;
    w.field("op", "explain");
    w.field("id", id);
    w.field("row", static_cast<std::uint64_t>(row));
    return w.finish();
}

double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/// "cache_hit" depends on which connection's request computed the entry
/// first — cross-connection timing, not shard placement — so the byte
/// equivalence check blanks it on both sides.
std::string normalize_hit(const std::string& line) {
    static const std::regex hit("\"cache_hit\":(true|false)");
    return std::regex_replace(line, hit, "\"cache_hit\":_");
}

/// Largest connection count one process can hold: 2 fds per loopback
/// connection (client + accepted side) plus headroom for listeners, epoll,
/// eventfds, and whatever the harness already has open.
std::size_t fd_budget_conns(std::size_t target) {
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return std::min<std::size_t>(target, 256);
    if (lim.rlim_cur < lim.rlim_max) {
        lim.rlim_cur = lim.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &lim);
        ::getrlimit(RLIMIT_NOFILE, &lim);
    }
    const auto usable = static_cast<std::size_t>(lim.rlim_cur);
    if (usable <= 512) return std::min<std::size_t>(target, 64);
    return std::min(target, (usable - 512) / 2);
}

struct CellResult {
    double req_per_sec = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double hit_rate = 0.0;
    /// Per-connection normalized response streams, for cross-shard
    /// equivalence (empty on the storm column to bound memory).
    std::vector<std::string> streams;
};

}  // namespace

int main(int argc, char** argv) {
    bench::print_header(
        "S2", "sharded TCP serving: throughput and tail latency over loopback");

    const std::size_t base_per_conn = env_size("XNFV_TCP_REQUESTS", 2000);
    const std::size_t window = env_size("XNFV_TCP_WINDOW", 32);
    const std::size_t storm_target = env_size("XNFV_TCP_STORM", 10000);
    const std::size_t storm_conns = fd_budget_conns(storm_target);
    const std::size_t hot_rows = 16;
    const std::string json_path = argc > 1 ? argv[1] : "BENCH_s2_tcp.json";

    auto task = bench::make_sla_task(1000, 2020);
    const auto forest =
        std::make_shared<ml::RandomForest>(bench::train_forest(task.train, 7));
    const xai::BackgroundData background(task.train.x, 128);

    const std::vector<std::size_t> shard_counts{1, 2, 4};
    const std::vector<std::size_t> conn_counts{8, 64, storm_conns};
    // Every column serves roughly the same total so cells are comparable.
    const std::size_t total_requests = 8 * base_per_conn;

    if (storm_conns < storm_target)
        std::printf("\nnote: RLIMIT_NOFILE clamps the storm column to %zu "
                    "connections (target %zu)\n",
                    storm_conns, storm_target);
    std::printf("\nmethod=tree_shap  total-requests/cell=%zu  window=%zu  "
                "(round-trip us)\n",
                total_requests, window);
    std::printf("%-7s %-7s %10s %9s %9s %9s %9s %6s\n", "shards", "conns",
                "req/s", "p50us", "p95us", "p99us", "hitrate", "bytes");
    bench::print_rule();

    bench::JsonArtifact artifact("tcp_serving_sharded");
    double floor_1shard_8conn = 0.0;
    double contended_by_shards[8] = {0};  // indexed by shard count
    bool bytes_ok = true;

    for (const std::size_t conns : conn_counts) {
        const std::size_t per_conn = std::max<std::size_t>(2, total_requests / conns);
        const bool keep_streams = conns <= 64;
        std::vector<std::string> reference;  // 1-shard streams, this column

        // One deterministic script set per column, replayed at every shard
        // count so the byte comparison is apples to apples.
        std::vector<std::vector<std::string>> scripts(conns);
        for (std::size_t c = 0; c < conns; ++c) {
            auto& script = scripts[c];
            script.reserve(per_conn + 1);
            for (std::size_t r = 0; r < per_conn; ++r)
                script.push_back(request_line(r + 1, (c + r) % hot_rows));
            script.push_back("{\"op\":\"quit\"}");
        }

        for (const std::size_t shards : shard_counts) {
            serve::ServiceConfig cfg;
            cfg.method = "tree_shap";
            // Admit the whole offered load (conns x window in flight): a
            // too-small queue turns timing jitter into queue_full rejection
            // lines, and the sweep is measuring serving, not shedding.
            cfg.queue_depth = std::max<std::size_t>(
                1024, conns * std::min(window, per_conn) + 256);
            cfg.max_batch = 16;
            cfg.cache_capacity = 8192;

            net::ShardedServerConfig shcfg;
            shcfg.net.max_connections = conns + 64;
            shcfg.shards = shards;
            net::ShardedServer server(forest, background, cfg, shcfg);
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

            // Prime every shard's cache slice directly — a TCP primer would
            // only warm the shard the kernel happened to hash it onto.
            for (std::size_t s = 0; s < server.shards(); ++s) {
                for (std::size_t row = 0; row < hot_rows; ++row) {
                    serve::ExplainRequest er;
                    er.id = row + 1;
                    const auto x = task.train.x.row(row);
                    er.features.assign(x.begin(), x.end());
                    const auto r = server.service(s).explain_sync(std::move(er));
                    if (!r.ok) {
                        std::fprintf(stderr, "prime failed on shard %zu\n", s);
                        return 1;
                    }
                }
            }

            net::LoadgenConfig lg;
            lg.port = server.port();
            lg.window = window;
            lg.record_latency = true;
            lg.timeout = std::chrono::milliseconds(120000);

            bench::Stopwatch watch;
            const auto report = net::run_load(lg, scripts);
            const double elapsed_ms = watch.ms();

            const auto stats = server.stats();
            server.request_drain();
            loop.join();
            server.stop_services();

            std::uint64_t answered = 0;
            std::vector<double> merged;
            merged.reserve(conns * per_conn);
            for (const auto& conn : report.conns) {
                if (conn.connect_failed || conn.io_error || !conn.partial.empty() ||
                    conn.lines.size() != per_conn) {
                    std::fprintf(stderr,
                                 "client stream broken in %zux%zu cell "
                                 "(connect_failed=%d io_error=%d lines=%zu/%zu)\n",
                                 shards, conns, static_cast<int>(conn.connect_failed),
                                 static_cast<int>(conn.io_error), conn.lines.size(),
                                 per_conn);
                    return 1;
                }
                answered += conn.lines.size();
                merged.insert(merged.end(), conn.latency_us.begin(),
                              conn.latency_us.end());
            }
            if (report.timed_out) {
                std::fprintf(stderr, "load timed out in %zux%zu cell\n", shards,
                             conns);
                return 1;
            }
            std::sort(merged.begin(), merged.end());

            // Cross-shard byte equivalence against this column's 1-shard run.
            bool cell_bytes_ok = true;
            if (keep_streams) {
                std::vector<std::string> streams(conns);
                for (std::size_t c = 0; c < conns; ++c) {
                    std::string joined;
                    for (const auto& line : report.conns[c].lines) {
                        joined += normalize_hit(line);
                        joined += '\n';
                    }
                    streams[c] = std::move(joined);
                }
                if (shards == 1)
                    reference = streams;
                else
                    cell_bytes_ok = streams == reference;
                bytes_ok = bytes_ok && cell_bytes_ok;
            }

            CellResult cell;
            cell.req_per_sec = elapsed_ms > 0.0
                                   ? 1000.0 * static_cast<double>(answered) / elapsed_ms
                                   : 0.0;
            cell.p50_us = percentile(merged, 0.50);
            cell.p95_us = percentile(merged, 0.95);
            cell.p99_us = percentile(merged, 0.99);
            cell.hit_rate = stats.cache_hit_rate();
            if (shards == 1 && conns == 8)
                floor_1shard_8conn = cell.req_per_sec;
            if (conns == 64 && shards < 8)
                contended_by_shards[shards] = cell.req_per_sec;

            std::printf("%-7zu %-7zu %10.0f %9.1f %9.1f %9.1f %9.3f %6s\n",
                        shards, conns, cell.req_per_sec, cell.p50_us, cell.p95_us,
                        cell.p99_us, cell.hit_rate,
                        keep_streams ? (cell_bytes_ok ? "same" : "DIFF") : "-");
            char obj[360];
            std::snprintf(
                obj, sizeof(obj),
                "{\"shards\": %zu, \"connections\": %zu, \"requests\": %llu, "
                "\"req_per_sec\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
                "\"p99_us\": %.1f, \"cache_hit_rate\": %.4f, \"bytes_ok\": %s}",
                shards, conns, static_cast<unsigned long long>(answered),
                cell.req_per_sec, cell.p50_us, cell.p95_us, cell.p99_us,
                cell.hit_rate,
                keep_streams ? (cell_bytes_ok ? "true" : "false") : "null");
            artifact.add_object(obj);
        }
    }

    if (artifact.write(json_path))
        std::printf("\nwrote %s\n", json_path.c_str());
    else
        std::printf("\nFAILED to write %s\n", json_path.c_str());

    bool pass = bytes_ok;
    std::printf("cross-shard response bytes: [%s]\n", bytes_ok ? "PASS" : "FAIL");
    std::printf("cached-hit throughput at 1 shard x 8 connections: %.0f req/s  "
                "[%s] (target >= 5000)\n",
                floor_1shard_8conn,
                floor_1shard_8conn >= 5000.0 ? "PASS" : "FAIL");
    pass = pass && floor_1shard_8conn >= 5000.0;

    // The scaling floor only binds where the hardware can actually run 4
    // loop threads in parallel.
    const auto cores = std::thread::hardware_concurrency();
    const double speedup = contended_by_shards[1] > 0.0
                               ? contended_by_shards[4] / contended_by_shards[1]
                               : 0.0;
    if (cores >= 4) {
        std::printf("4-shard speedup on the 64-connection column: %.2fx  [%s] "
                    "(target >= 3x)\n",
                    speedup, speedup >= 3.0 ? "PASS" : "FAIL");
        pass = pass && speedup >= 3.0;
    } else {
        std::printf("4-shard speedup on the 64-connection column: %.2fx  "
                    "[SKIP: %u core(s), scaling floor needs >= 4]\n",
                    speedup, cores);
    }
    return pass ? 0 : 1;
}
