// Chaos-replay suite for the socket fault injector (net/chaos.hpp).
//
// The central claim mirrors PR 3's compute-side chaos pin, now at the
// network layer: the chunking faults (partial_write / torn_read /
// eintr_storm / stalled_read) only reshape *when* bytes cross the socket,
// never *which* bytes — so a recorded multi-connection request stream
// replayed under an armed injector must produce per-connection response
// streams byte-identical to the fault-free run, and two runs with the same
// --net-fault-seed must match each other.  The transport-killing faults
// (rst_close) are the complementary claim: they DO destroy connections,
// and the loadgen's safe-retry mode must absorb every kill with each
// request still answered exactly once.
//
// Scripts keep per-connection row pools disjoint and run at window 1, the
// same per-connection-determinism discipline as the shard-equivalence
// suite, so cache_hit flags are a pure function of each connection's own
// history and byte comparison is exact.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mlcore/forest.hpp"
#include "net/chaos.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
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
        opt.num_samples = 120;
        out.data = wl::build_dataset(wl::standard_scenarios()[0], opt, rng).data;
        out.forest = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 8});
        out.forest->fit(out.data, rng);
        out.background = xai::BackgroundData(out.data.x, 32);
        return out;
    }();
    return s;
}

net::ExplanationServer::RowLookup row_lookup() {
    return [](std::size_t row, std::vector<double>& features) {
        const auto& sc = scenario();
        if (row >= sc.data.size()) return false;
        const auto x = sc.data.x.row(row);
        features.assign(x.begin(), x.end());
        return true;
    };
}

serve::ServiceConfig service_config() {
    serve::ServiceConfig cfg;
    cfg.method = "tree_shap";
    cfg.seed = kSeed;
    cfg.queue_depth = 512;
    cfg.max_batch = 8;
    cfg.cache_capacity = 4096;
    return cfg;
}

std::string row_request(std::uint64_t id, std::size_t row,
                        const std::string& method, std::uint64_t rid = 0) {
    serve::JsonWriter w;
    w.field("op", "explain");
    w.field("id", id);
    if (rid != 0) w.field("rid", rid);
    w.field("row", static_cast<std::uint64_t>(row));
    w.field("method", method);
    w.field("seed", kSeed);
    return w.finish();
}

/// A deterministic multi-connection stream over every response-bearing
/// request shape: explains by row (with cache repeats), malformed JSON,
/// unknown ops, and nonexistent rows.  Per-connection row pools are
/// disjoint (connection c owns rows {3c, 3c+1, 3c+2}); every script ends
/// with a quit barrier so the server closes after flushing.
std::vector<std::vector<std::string>> chaos_scripts(std::size_t conns) {
    const std::vector<std::string> methods{"tree_shap", "lime", "occlusion"};
    std::vector<std::vector<std::string>> scripts(conns);
    const auto rows = scenario().data.size();
    for (std::size_t c = 0; c < conns; ++c) {
        auto& script = scripts[c];
        const std::size_t pool = 3 * c;
        std::uint64_t id = 1;
        const auto& method = methods[c % methods.size()];
        script.push_back(row_request(id++, pool % rows, method));
        script.push_back(row_request(id++, (pool + 1) % rows, method));
        // Cache repeat: the second answer must carry cache_hit under chaos
        // exactly as it does fault-free.
        script.push_back(row_request(id++, (pool + 1) % rows, method));
        script.push_back("{\"op\":\"explain\",\"row\":");     // bad_request
        script.push_back("{\"op\":\"frobnicate\",\"id\":7}");  // unknown op
        script.push_back(row_request(id++, rows + 17, method));
        script.push_back(row_request(id++, (pool + 2) % rows, method));
        script.push_back("{\"op\":\"quit\"}");
    }
    return scripts;
}

std::vector<std::vector<std::string>> replay(
    std::uint16_t port, const std::vector<std::vector<std::string>>& scripts) {
    net::LoadgenConfig lg;
    lg.port = port;
    lg.window = 1;  // strict order: responses depend only on own history
    lg.timeout = std::chrono::milliseconds(120000);
    const auto report = net::run_load(lg, scripts);
    EXPECT_FALSE(report.timed_out);
    std::vector<std::vector<std::string>> streams(scripts.size());
    for (std::size_t c = 0; c < report.conns.size(); ++c) {
        const auto& conn = report.conns[c];
        EXPECT_FALSE(conn.connect_failed) << "conn " << c;
        EXPECT_FALSE(conn.io_error) << "conn " << c;
        EXPECT_TRUE(conn.partial.empty()) << "conn " << c << " truncated line";
        streams[c] = conn.lines;
    }
    return streams;
}

/// Chunking faults only — the byte-invisible ones.
std::shared_ptr<net::NetFaultInjector> chunking_injector(std::uint64_t seed) {
    net::NetFaultInjector::Config cfg;
    cfg.seed = seed;
    cfg.rate[static_cast<std::size_t>(net::NetFaultPoint::partial_write)] = 0.30;
    cfg.rate[static_cast<std::size_t>(net::NetFaultPoint::torn_read)] = 0.30;
    cfg.rate[static_cast<std::size_t>(net::NetFaultPoint::eintr_storm)] = 0.25;
    cfg.rate[static_cast<std::size_t>(net::NetFaultPoint::stalled_read)] = 0.25;
    return std::make_shared<net::NetFaultInjector>(cfg);
}

/// Plays the stream against a single-loop server, optionally under chaos.
std::vector<std::vector<std::string>> run_single_loop(
    const std::vector<std::vector<std::string>>& scripts,
    std::shared_ptr<net::NetFaultInjector> chaos = nullptr,
    serve::ServiceStats* stats_out = nullptr) {
    const auto& s = scenario();
    serve::ExplanationService service(s.forest, s.background, service_config());
    net::ServerConfig cfg;
    cfg.chaos = chaos;
    net::ExplanationServer server(service, cfg);
    server.set_row_lookup(row_lookup());
    std::string error;
    if (!server.start(&error)) throw std::runtime_error(error);
    std::thread loop([&server] { server.run(); });
    auto streams = replay(server.port(), scripts);
    if (stats_out) *stats_out = server.stats();
    server.request_drain();
    loop.join();
    service.stop();
    return streams;
}

std::uint64_t extract_id(const std::string& line) {
    const auto pos = line.find("\"id\":");
    if (pos == std::string::npos) return 0;
    return std::strtoull(line.c_str() + pos + 5, nullptr, 10);
}

/// The transport-killing fault: rst_close aborts three connections
/// mid-stream (SO_LINGER(0) — the peer sees ECONNRESET, possibly after
/// responses were computed but before they were read).  The loadgen's retry
/// mode must reconnect, re-send every unanswered request, and finish with
/// each id answered exactly once.  `serve(cfg, drive)` starts a server with
/// front-end settings `cfg`, calls `drive(port)` while it serves, then
/// drains it.
template <class Serve>
void expect_rst_storm_absorbed(Serve serve) {
    const std::size_t conns = 6, per_conn = 5;
    const auto rows = scenario().data.size();
    std::vector<std::vector<std::string>> scripts(conns);
    for (std::size_t c = 0; c < conns; ++c)
        for (std::size_t r = 0; r < per_conn; ++r) {
            const std::uint64_t id = c * per_conn + r + 1;
            scripts[c].push_back(
                row_request(id, (c * per_conn + r) % rows, "tree_shap", id));
        }

    net::ServerConfig cfg;
    net::NetFaultInjector::Config nf;
    nf.seed = 99;
    nf.rate[static_cast<std::size_t>(net::NetFaultPoint::rst_close)] = 1.0;
    nf.max_fires[static_cast<std::size_t>(net::NetFaultPoint::rst_close)] = 3;
    cfg.chaos = std::make_shared<net::NetFaultInjector>(nf);
    net::LoadReport report;
    serve(cfg, [&scripts, &report](std::uint16_t port) {
        net::LoadgenConfig lg;
        lg.port = port;
        lg.window = 2;
        lg.timeout = std::chrono::milliseconds(120000);
        lg.max_retries = 16;
        lg.response_timeout = 2000ms;
        lg.connect_timeout = 2000ms;
        lg.backoff_base = 5ms;
        lg.retry_seed = 7;
        report = net::run_load(lg, scripts);
    });

    EXPECT_EQ(cfg.chaos->fired(net::NetFaultPoint::rst_close), 3u);
    ASSERT_FALSE(report.timed_out);
    std::size_t reconnects = 0;
    std::set<std::uint64_t> answered;
    for (std::size_t c = 0; c < report.conns.size(); ++c) {
        const auto& conn = report.conns[c];
        EXPECT_FALSE(conn.connect_failed) << "conn " << c;
        EXPECT_FALSE(conn.io_error) << "conn " << c;
        reconnects += conn.reconnects;
        // Every scripted id answered exactly once (duplicates are counted
        // separately, not delivered into the matched set).
        EXPECT_EQ(conn.lines.size() - conn.duplicates, per_conn) << "conn " << c;
        for (const auto& l : conn.lines) {
            EXPECT_NE(l.find("\"ok\":true"), std::string::npos) << l;
            answered.insert(extract_id(l));
        }
    }
    EXPECT_EQ(answered.size(), conns * per_conn);
    // Three kills means at least three re-established connections.
    EXPECT_GE(reconnects, 3u);
}

}  // namespace

TEST(NetChaos, ChunkingFaultsAreByteInvisible) {
    // Acceptance pin: running the same request stream fault-free, under a
    // seeded chaos schedule, and again under the SAME seed yields three
    // byte-identical sets of per-connection response streams — the faults
    // reshape I/O timing, never payloads.
    const auto scripts = chaos_scripts(10);
    const auto baseline = run_single_loop(scripts);

    const auto chaos_a = chunking_injector(0xc4a05);
    serve::ServiceStats stats_a;
    const auto run_a = run_single_loop(scripts, chaos_a, &stats_a);
    EXPECT_GT(chaos_a->total_fired(), 0u) << "injector never fired; rates too low";
    EXPECT_EQ(stats_a.net_faults_injected, chaos_a->total_fired());

    const auto chaos_b = chunking_injector(0xc4a05);
    const auto run_b = run_single_loop(scripts, chaos_b);
    EXPECT_GT(chaos_b->total_fired(), 0u);

    ASSERT_EQ(run_a.size(), baseline.size());
    ASSERT_EQ(run_b.size(), baseline.size());
    for (std::size_t c = 0; c < baseline.size(); ++c) {
        EXPECT_EQ(run_a[c], baseline[c]) << "conn " << c << " diverged under chaos";
        EXPECT_EQ(run_b[c], run_a[c])
            << "conn " << c << " diverged between same-seed chaos runs";
    }
}

TEST(NetChaos, ShardedChunkingFaultsAreByteInvisible) {
    // Same claim through the sharded front-end: the injector is shared
    // across shards but counters are per-connection, so shard placement
    // cannot perturb payload bytes either.
    const auto scripts = chaos_scripts(8);
    const auto baseline = run_single_loop(scripts);

    const auto& s = scenario();
    net::ShardedServerConfig shcfg;
    shcfg.shards = 2;
    shcfg.net.max_connections = scripts.size() + 16;
    shcfg.net.chaos = chunking_injector(0x5eed);
    net::ShardedServer server(s.forest, s.background, service_config(), shcfg);
    server.set_row_lookup(row_lookup());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });
    const auto streams = replay(server.port(), scripts);
    const auto stats = server.stats();
    server.request_drain();
    loop.join();
    server.stop_services();

    EXPECT_GT(shcfg.net.chaos->total_fired(), 0u);
    EXPECT_EQ(stats.net_faults_injected, shcfg.net.chaos->total_fired());
    ASSERT_EQ(streams.size(), baseline.size());
    for (std::size_t c = 0; c < baseline.size(); ++c)
        EXPECT_EQ(streams[c], baseline[c]) << "conn " << c;
}

TEST(NetChaos, SlowLorisEvictedByIdleTimeout) {
    // A peer that sends a torn frame and then goes silent holds no pipeline
    // slot (the frame never completed), so the idle scan must evict it.
    const auto& s = scenario();
    serve::ExplanationService service(s.forest, s.background, service_config());
    net::ServerConfig cfg;
    cfg.idle_timeout = 100ms;
    net::ExplanationServer server(service, cfg);
    server.set_row_lookup(row_lookup());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error, 2000ms))
        << error;
    // A frame prefix with no terminating newline — the slow-loris shape.
    const std::string torn = "{\"op\":\"explain\",\"row\":1";
    ASSERT_EQ(::send(client.fd(), torn.data(), torn.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(torn.size()));
    // The server must close us (recv_line sees EOF, not a response) well
    // before the 10s guard — within ~idle_timeout + one tick in practice.
    std::string line;
    EXPECT_FALSE(client.recv_line(line, 10000ms));
    EXPECT_TRUE(line.empty());

    const auto stats = server.stats();
    EXPECT_EQ(stats.connections_closed_idle, 1u);
    server.request_drain();
    loop.join();
    service.stop();
}

TEST(NetChaos, TornFramesReassembleToIdenticalResponse) {
    // A request trickled in 3-byte chunks — with the server's own reads
    // additionally torn and stalled by the injector — must decode to the
    // same frame and produce the byte-identical response of a clean send.
    const auto request = row_request(42, 5, "tree_shap");

    const auto& s = scenario();
    serve::ExplanationService service(s.forest, s.background, service_config());
    net::ServerConfig cfg;
    net::NetFaultInjector::Config nf;
    nf.seed = 77;
    nf.rate[static_cast<std::size_t>(net::NetFaultPoint::torn_read)] = 0.5;
    nf.rate[static_cast<std::size_t>(net::NetFaultPoint::stalled_read)] = 0.3;
    cfg.chaos = std::make_shared<net::NetFaultInjector>(nf);
    net::ExplanationServer server(service, cfg);
    server.set_row_lookup(row_lookup());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });

    // Clean reference connection first (its compute warms the cache; the
    // trickled request must then also report cache_hit — a repeat either
    // way, so both paths agree on every byte except none).
    net::Client clean;
    ASSERT_TRUE(clean.connect("127.0.0.1", server.port(), &error)) << error;
    ASSERT_TRUE(clean.send_line(request));
    std::string reference;
    ASSERT_TRUE(clean.recv_line(reference, 30000ms));
    ASSERT_TRUE(clean.send_line(request));  // repeat: cache_hit form
    ASSERT_TRUE(clean.recv_line(reference, 30000ms));
    clean.close();

    net::Client trickle;
    ASSERT_TRUE(trickle.connect("127.0.0.1", server.port(), &error)) << error;
    const std::string wire = request + "\n";
    for (std::size_t off = 0; off < wire.size(); off += 3) {
        const std::size_t n = std::min<std::size_t>(3, wire.size() - off);
        ASSERT_EQ(::send(trickle.fd(), wire.data() + off, n, MSG_NOSIGNAL),
                  static_cast<ssize_t>(n));
        std::this_thread::sleep_for(1ms);
    }
    std::string line;
    ASSERT_TRUE(trickle.recv_line(line, 30000ms));
    EXPECT_EQ(line, reference);

    trickle.close();
    server.request_drain();
    loop.join();
    service.stop();
}

TEST(NetChaos, RstStormAbsorbedBySafeRetries) {
    expect_rst_storm_absorbed([](const net::ServerConfig& cfg, const auto& drive) {
        const auto& s = scenario();
        serve::ExplanationService service(s.forest, s.background, service_config());
        net::ExplanationServer server(service, cfg);
        server.set_row_lookup(row_lookup());
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread loop([&server] { server.run(); });
        drive(server.port());
        server.request_drain();
        loop.join();
        service.stop();
    });
}

TEST(NetChaos, ShardedRstStormAbsorbedBySafeRetries) {
    // The same storm through a 2-shard fleet, where a reconnect may land on
    // the other shard.  After the drain the fleet budget holds no slot.
    expect_rst_storm_absorbed([](const net::ServerConfig& cfg, const auto& drive) {
        const auto& s = scenario();
        net::ShardedServer server(s.forest, s.background, service_config(),
                                  {.net = cfg, .shards = 2});
        server.set_row_lookup(row_lookup());
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread loop([&server] { server.run(); });
        drive(server.port());
        server.request_drain();
        loop.join();
        server.stop_services();
        EXPECT_EQ(server.budget().active.load(), 0u);
    });
}
