// Connection-scaling soak tests for the sharded TCP front-end: 10k
// concurrent loopback connections at toy model size with zero dropped or
// garbled responses, exact fleet-wide connection-limit accounting, and a
// SIGTERM-style graceful drain that flushes every in-flight batch.
//
// Scale handling: one loopback connection costs two fds in-process (client
// and accepted side).  The suite raises RLIMIT_NOFILE toward the hard cap;
// if the target still does not fit in one process, the client side runs in
// a fork()ed child with its own fd table (the child only runs the epoll
// load generator, validates response bytes against precomputed expected
// lines, and reports a fixed-size summary over a pipe — safe after fork
// from a threaded parent on glibc).  CI sanitizer jobs set XNFV_SOAK_CONNS
// to a reduced size that stays single-process.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mlcore/forest.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/sharded_server.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace serve = xnfv::serve;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

using namespace std::chrono_literals;

namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kHotRows = 8;

struct Scenario {
    ml::Dataset data;
    std::shared_ptr<ml::RandomForest> forest;
    xai::BackgroundData background;
};

const Scenario& scenario() {
    static const Scenario s = [] {
        Scenario out;
        ml::Rng rng(2020);
        wl::BuildOptions opt;
        opt.num_samples = 200;
        out.data = wl::build_dataset(wl::standard_scenarios()[0], opt, rng).data;
        out.forest = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 6});
        out.forest->fit(out.data, rng);
        out.background = xai::BackgroundData(out.data.x, 32);
        return out;
    }();
    return s;
}

net::ShardedServer::RowLookup row_lookup() {
    return [](std::size_t row, std::vector<double>& features) {
        const auto& sc = scenario();
        if (row >= sc.data.size()) return false;
        const auto x = sc.data.x.row(row);
        features.assign(x.begin(), x.end());
        return true;
    };
}

std::string row_request(std::uint64_t id, std::size_t row) {
    serve::JsonWriter w;
    w.field("op", "explain");
    w.field("id", id);
    w.field("row", static_cast<std::uint64_t>(row));
    w.field("seed", kSeed);
    return w.finish();
}

/// "cache_hit" is cross-connection-timing-dependent (whoever computes the
/// hot row first misses); everything else in the line must be exact.
std::string normalize_hit(std::string line) {
    for (const char* variant : {"\"cache_hit\":true", "\"cache_hit\":false"}) {
        const auto at = line.find(variant);
        if (at != std::string::npos) {
            line.replace(at, std::string(variant).size(), "\"cache_hit\":_");
            break;
        }
    }
    return line;
}

/// Expected (normalized) response line for request `id` on hot row `row`:
/// fresh one-shot explainer, shared wire renderer — the determinism
/// contract's ground truth.
std::string expected_normalized(std::uint64_t id, std::size_t row) {
    const auto& s = scenario();
    const auto explainer = serve::make_explainer("tree_shap", s.background, kSeed);
    serve::ExplainResponse r;
    r.id = id;
    r.ok = true;
    r.explanation = explainer->explain(*s.forest, s.data.x.row(row));
    return normalize_hit(serve::render_response(r));
}

std::size_t env_size(const char* name, std::size_t fallback) {
    const char* raw = std::getenv(name);
    if (!raw || !*raw) return fallback;
    const long value = std::atol(raw);
    return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

/// Raise the soft fd limit as far as allowed; returns the resulting cap.
std::size_t raise_fd_limit() {
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
    if (lim.rlim_cur < lim.rlim_max) {
        lim.rlim_cur = lim.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &lim);
        ::getrlimit(RLIMIT_NOFILE, &lim);
    }
    return static_cast<std::size_t>(lim.rlim_cur);
}

struct SoakHarness {
    std::unique_ptr<net::ShardedServer> server;
    std::thread thread;

    explicit SoakHarness(std::size_t shards, std::size_t max_conns,
                         std::size_t queue_depth = 4096) {
        const auto& s = scenario();
        serve::ServiceConfig cfg;
        cfg.method = "tree_shap";
        cfg.seed = kSeed;
        cfg.queue_depth = queue_depth;
        cfg.max_batch = 16;
        cfg.cache_capacity = 4096;
        net::ServerConfig ncfg;
        ncfg.shards = shards;
        ncfg.max_connections = max_conns;
        server = std::make_unique<net::ShardedServer>(s.forest, s.background,
                                                      cfg, ncfg);
        server->set_row_lookup(row_lookup());
        std::string error;
        if (!server->start(&error))
            throw std::runtime_error("start failed: " + error);
        thread = std::thread([this] { server->run(); });
    }

    ~SoakHarness() { stop(); }

    void stop() {
        if (server) server->request_drain();
        if (thread.joinable()) thread.join();
        if (server) server->stop_services();
    }
};

/// Fixed-size child-to-parent summary for the fork path.
struct SoakSummary {
    std::uint64_t total_lines = 0;
    std::uint64_t bad_lines = 0;       ///< bytes not matching expected
    std::uint64_t short_conns = 0;     ///< fewer lines than scripted
    std::uint64_t connect_failed = 0;
    std::uint64_t io_errors = 0;
    std::uint64_t truncated = 0;       ///< partial trailing line
    std::uint64_t timed_out = 0;
};

/// Runs the storm and validates every response byte.  Callable in-process
/// or inside a fork()ed child.
SoakSummary run_storm(std::uint16_t port,
                      const std::vector<std::vector<std::string>>& scripts,
                      std::size_t per_conn,
                      const std::vector<std::string>& expected_by_row) {
    net::LoadgenConfig lg;
    lg.port = port;
    lg.window = 2;
    lg.timeout = std::chrono::milliseconds(300000);
    const auto report = net::run_load(lg, scripts);
    SoakSummary sum;
    sum.timed_out = report.timed_out ? 1 : 0;
    for (std::size_t c = 0; c < report.conns.size(); ++c) {
        const auto& conn = report.conns[c];
        if (conn.connect_failed) {
            ++sum.connect_failed;
            continue;
        }
        if (conn.io_error) ++sum.io_errors;
        if (!conn.partial.empty()) ++sum.truncated;
        if (conn.lines.size() != per_conn) ++sum.short_conns;
        for (std::size_t i = 0; i < conn.lines.size(); ++i) {
            ++sum.total_lines;
            // Request i of connection c asked for hot row (c + i) % kHotRows
            // with id i + 1 — recompute what the bytes must be.
            const auto row = (c + i) % kHotRows;
            std::string want = expected_by_row[row];
            const auto id_field = "\"id\":" + std::to_string(i + 1) + ",";
            // expected_by_row is rendered with id 0; patch the id in.
            want.replace(want.find("\"id\":0,"), 7, id_field);
            if (normalize_hit(conn.lines[i]) != want) ++sum.bad_lines;
        }
    }
    return sum;
}

}  // namespace

TEST(NetSoak, TenThousandConcurrentConnectionsZeroDrops) {
    const std::size_t target = env_size("XNFV_SOAK_CONNS", 10000);
    const std::size_t fd_cap = raise_fd_limit();
    const std::size_t per_conn = 2;

    // Two fds per in-process connection pair + headroom for the server's
    // listeners/epoll/eventfds and the test runner's own files.
    const bool needs_fork = 2 * target + 512 > fd_cap;
    const std::size_t conns =
        needs_fork ? std::min(target, fd_cap - 512)  // server side only
                   : target;
    ASSERT_GE(conns, 64u) << "fd limit too low for a meaningful soak";

    std::vector<std::string> expected_by_row(kHotRows);
    for (std::size_t r = 0; r < kHotRows; ++r)
        expected_by_row[r] = expected_normalized(0, r);

    std::vector<std::vector<std::string>> scripts(conns);
    for (std::size_t c = 0; c < conns; ++c) {
        for (std::size_t i = 0; i < per_conn; ++i)
            scripts[c].push_back(row_request(i + 1, (c + i) % kHotRows));
        scripts[c].push_back("{\"op\":\"quit\"}");
    }

    SoakHarness harness(4, conns + 64, /*queue_depth=*/8192);
    const auto port = harness.server->port();

    SoakSummary sum;
    if (!needs_fork) {
        sum = run_storm(port, scripts, per_conn, expected_by_row);
    } else {
        int pipefd[2];
        ASSERT_EQ(::pipe(pipefd), 0);
        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            // Child: fresh fd table, full copy of scripts/expected in
            // memory.  Only the load generator runs here; _exit skips
            // destructors that would touch the parent's server threads.
            ::close(pipefd[0]);
            const auto s = run_storm(port, scripts, per_conn, expected_by_row);
            const auto written = ::write(pipefd[1], &s, sizeof(s));
            ::_exit(written == sizeof(s) ? 0 : 1);
        }
        ::close(pipefd[1]);
        ASSERT_EQ(::read(pipefd[0], &sum, sizeof(sum)),
                  static_cast<ssize_t>(sizeof(sum)));
        ::close(pipefd[0]);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    const auto stats = harness.server->stats();
    harness.stop();

    EXPECT_EQ(sum.timed_out, 0u);
    EXPECT_EQ(sum.connect_failed, 0u);
    EXPECT_EQ(sum.io_errors, 0u);
    EXPECT_EQ(sum.truncated, 0u) << "garbled (torn) response line";
    EXPECT_EQ(sum.short_conns, 0u) << "dropped responses";
    EXPECT_EQ(sum.bad_lines, 0u) << "garbled response bytes";
    EXPECT_EQ(sum.total_lines, conns * per_conn);
    EXPECT_EQ(stats.connections_accepted, conns);
    EXPECT_EQ(stats.connections_rejected, 0u);
    EXPECT_EQ(stats.net_requests, conns * per_conn);
    EXPECT_EQ(stats.net_shards, 4u);
    // With > 1 shard and this many connections the kernel must actually
    // spread them: no shard may have seen everything.
    if (conns >= 1024) {
        for (std::size_t s = 0; s < harness.server->shards(); ++s)
            EXPECT_LT(harness.server->service(s).stats().connections_accepted,
                      conns)
                << "shard " << s << " took every connection";
    }
}

TEST(NetSoak, ConnectionLimitRejectsCountedExactly) {
    // Fill the fleet-wide budget with held connections, then storm: every
    // storm connection must get exactly one backpressure error line and a
    // close, and the reject counter must equal the storm size exactly —
    // kernel hashing across 4 reuseport shards must not overshoot a shared
    // budget.
    constexpr std::size_t kLimit = 32;
    constexpr std::size_t kStorm = 300;
    SoakHarness harness(4, kLimit);
    const auto port = harness.server->port();

    std::vector<net::Client> holders(kLimit);
    std::string line;
    for (std::size_t i = 0; i < kLimit; ++i) {
        ASSERT_TRUE(holders[i].connect("127.0.0.1", port));
        ASSERT_TRUE(holders[i].send_line(row_request(1, i % kHotRows)));
        ASSERT_TRUE(holders[i].recv_line(line, 30000ms));  // established + served
    }

    serve::ExplainResponse reject;
    reject.id = 0;
    reject.error_code = serve::ServeError::backpressure;
    reject.error = "connection limit reached";
    const auto reject_line = serve::render_response(reject);

    std::vector<std::vector<std::string>> scripts(
        kStorm, std::vector<std::string>{row_request(1, 0)});
    net::LoadgenConfig lg;
    lg.port = port;
    lg.shutdown_writes = true;
    lg.timeout = std::chrono::milliseconds(60000);
    const auto report = net::run_load(lg, scripts);
    ASSERT_FALSE(report.timed_out);
    for (std::size_t c = 0; c < report.conns.size(); ++c) {
        const auto& conn = report.conns[c];
        ASSERT_FALSE(conn.connect_failed) << "conn " << c;
        ASSERT_EQ(conn.lines.size(), 1u) << "conn " << c;
        EXPECT_EQ(conn.lines[0], reject_line) << "conn " << c;
    }

    auto stats = harness.server->stats();
    EXPECT_EQ(stats.connections_rejected, kStorm);
    EXPECT_EQ(stats.connections_accepted, kLimit);

    // Releasing a held connection must free budget for a new one.  Retries
    // while the shard is still noticing the FIN may themselves be rejected;
    // each such attempt must move the counter by exactly one.
    holders[0].close();
    net::Client fresh;
    line.clear();
    std::uint64_t retry_rejects = 0;
    for (int attempt = 0; attempt < 200; ++attempt) {
        if (fresh.connect("127.0.0.1", port) &&
            fresh.send_line(row_request(7, 3)) && fresh.recv_line(line, 30000ms) &&
            line.find("\"ok\":true") != std::string::npos)
            break;
        if (line.find("backpressure") != std::string::npos) ++retry_rejects;
        fresh = net::Client();
        line.clear();
        std::this_thread::sleep_for(20ms);
    }
    EXPECT_NE(line.find("\"id\":7"), std::string::npos)
        << "budget not released after close";
    stats = harness.server->stats();
    EXPECT_EQ(stats.connections_rejected, kStorm + retry_rejects)
        << "reject counter drifted from the true reject count";
}

TEST(NetSoak, GracefulDrainFlushesEveryInFlightBatch) {
    // SIGTERM semantics (request_drain is exactly what the CLI handler
    // calls): stop accepting and reading, but every admitted request is
    // served and flushed before run() returns — clients see a clean EOF
    // after a valid prefix of their expected response stream.
    const std::size_t conns = std::min<std::size_t>(
        64, std::max<std::size_t>(8, env_size("XNFV_SOAK_CONNS", 10000) / 64));
    const std::size_t per_conn = 50;
    SoakHarness harness(2, conns + 16, /*queue_depth=*/4096);
    const auto port = harness.server->port();

    std::vector<std::string> expected_by_row(kHotRows);
    for (std::size_t r = 0; r < kHotRows; ++r)
        expected_by_row[r] = expected_normalized(0, r);

    std::vector<std::vector<std::string>> scripts(conns);
    for (std::size_t c = 0; c < conns; ++c)
        for (std::size_t i = 0; i < per_conn; ++i)
            scripts[c].push_back(row_request(i + 1, (c + i) % kHotRows));
    // No quit and no half-close: only the drain ends these connections.

    net::LoadgenConfig lg;
    lg.port = port;
    lg.window = 8;
    lg.timeout = std::chrono::milliseconds(120000);
    net::LoadReport report;
    std::thread load([&] { report = net::run_load(lg, scripts); });
    // Mid-flight: drain once every connection is open and pipelining.  The
    // drain closes the listeners at once, so a connect still in flight then
    // would be refused, which is the drain working, not what this pins.
    const auto all_open_by = std::chrono::steady_clock::now() + 10s;
    while (harness.server->budget().active.load() < conns &&
           std::chrono::steady_clock::now() < all_open_by)
        std::this_thread::sleep_for(1ms);
    harness.server->request_drain();
    load.join();

    ASSERT_FALSE(report.timed_out);
    std::uint64_t received = 0;
    for (std::size_t c = 0; c < report.conns.size(); ++c) {
        const auto& conn = report.conns[c];
        ASSERT_FALSE(conn.connect_failed) << "conn " << c;
        EXPECT_TRUE(conn.eof) << "conn " << c << " not closed cleanly";
        EXPECT_TRUE(conn.partial.empty()) << "conn " << c << " torn line";
        ASSERT_LE(conn.lines.size(), per_conn);
        for (std::size_t i = 0; i < conn.lines.size(); ++i) {
            const auto row = (c + i) % kHotRows;
            std::string want = expected_by_row[row];
            want.replace(want.find("\"id\":0,"), 7,
                         "\"id\":" + std::to_string(i + 1) + ",");
            ASSERT_EQ(normalize_hit(conn.lines[i]), want)
                << "conn " << c << " line " << i
                << " garbled across the drain";
        }
        received += conn.lines.size();
    }

    // Nothing admitted was dropped: the service completed exactly as many
    // requests as clients got lines for, and accepted == completed.
    const auto stats = harness.server->stats();
    EXPECT_EQ(stats.requests_accepted, stats.requests_completed);
    EXPECT_EQ(stats.requests_completed, received);
    EXPECT_EQ(stats.requests_rejected, 0u);
}
