// Shard-equivalence suite for the thread-per-core TCP front-end
// (net/sharded_server.hpp).
//
// The central claim: sharding is a pure scale-out transform.  A recorded
// multi-connection request stream — explains by row and by features, cache
// repeats, malformed JSON, unknown ops, bad feature vectors, dead-on-arrival
// deadlines, stats probes, quit barriers and half-close endings — replayed
// against a single-loop ExplanationServer and against 1/2/4/8-shard
// ShardedServers must produce byte-identical per-connection response
// streams, no matter which shard the kernel's SO_REUSEPORT hash lands each
// connection on.  Stats frames are the one deliberate exception (they
// report fleet aggregates, so net_shards and distribution-dependent fields
// differ); they are checked semantically instead.
//
// Scripts keep per-connection row pools disjoint and run the client at
// window 1, so every response byte — including cache_hit flags — is a pure
// function of the connection's own request sequence, never of cross-
// connection timing.  That is exactly the per-connection determinism the
// sharded design promises (DESIGN.md section 13).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <random>
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
        opt.num_samples = 260;
        out.data = wl::build_dataset(wl::standard_scenarios()[0], opt, rng).data;
        out.forest = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 8});
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

serve::ServiceConfig service_config() {
    serve::ServiceConfig cfg;
    cfg.method = "tree_shap";
    cfg.seed = kSeed;
    cfg.queue_depth = 512;
    cfg.max_batch = 8;
    cfg.cache_capacity = 4096;
    return cfg;
}

/// What kind of line the server must emit for one scripted request.
enum class Expect { response, stats };

struct Recorded {
    std::vector<std::vector<std::string>> scripts;   ///< per connection
    std::vector<std::vector<Expect>> expects;        ///< per answered line
    bool shutdown_writes = false;                    ///< EOF-ended scripts
};

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

std::string features_request(std::uint64_t id, std::size_t row,
                             const std::string& method) {
    const auto& s = scenario();
    const auto x = s.data.x.row(row);
    serve::JsonWriter w;
    w.field("op", "explain");
    w.field("id", id);
    w.field("method", method);
    w.field("seed", kSeed);
    w.field_array("features", std::vector<double>(x.begin(), x.end()));
    return w.finish();
}

/// The recorded stream: a seeded-random mix over every request shape the
/// protocol has, with per-connection disjoint row pools (connection c owns
/// rows {3c, 3c+1, 3c+2}) so cache hits depend only on the connection's own
/// history.
Recorded record_stream(std::size_t conns, std::uint64_t seed, bool quit_ended) {
    Recorded rec;
    rec.scripts.resize(conns);
    rec.expects.resize(conns);
    rec.shutdown_writes = !quit_ended;
    std::mt19937_64 rng(seed);
    const std::vector<std::string> methods{"tree_shap", "lime", "occlusion"};
    for (std::size_t c = 0; c < conns; ++c) {
        auto& script = rec.scripts[c];
        auto& expects = rec.expects[c];
        const std::size_t pool = 3 * c;
        const auto rows = scenario().data.size();
        const std::size_t len = 4 + rng() % 8;
        std::uint64_t id = 1;
        for (std::size_t i = 0; i < len; ++i) {
            const auto& method = methods[rng() % methods.size()];
            switch (rng() % 8) {
                case 0:  // cache repeat: same row twice, back to back
                    script.push_back(row_request(id++, (pool + 1) % rows, method));
                    script.push_back(row_request(id++, (pool + 1) % rows, method));
                    expects.push_back(Expect::response);
                    expects.push_back(Expect::response);
                    break;
                case 1:
                    script.push_back(
                        features_request(id++, (pool + rng() % 3) % rows, method));
                    expects.push_back(Expect::response);
                    break;
                case 2:  // malformed JSON -> synchronous bad_request
                    script.push_back("{\"op\":\"explain\",\"row\":");
                    expects.push_back(Expect::response);
                    break;
                case 3:  // unknown op
                    script.push_back("{\"op\":\"frobnicate\",\"id\":7}");
                    expects.push_back(Expect::response);
                    break;
                case 4: {  // wrong feature count -> bad_features
                    serve::JsonWriter w;
                    w.field("op", "explain");
                    w.field("id", id++);
                    w.field_array("features", std::vector<double>{1.0, 2.0});
                    script.push_back(w.finish());
                    expects.push_back(Expect::response);
                    break;
                }
                case 5: {  // dead on arrival -> deadline_exceeded rejection
                    serve::JsonWriter w;
                    w.field("op", "explain");
                    w.field("id", id++);
                    w.field("row", static_cast<std::uint64_t>(pool % rows));
                    w.field("deadline_ms", std::uint64_t{0});
                    script.push_back(w.finish());
                    expects.push_back(Expect::response);
                    break;
                }
                case 6:  // nonexistent row
                    script.push_back(row_request(id++, rows + 17, method));
                    expects.push_back(Expect::response);
                    break;
                default:
                    script.push_back(row_request(id++, (pool + rng() % 3) % rows,
                                                 method));
                    expects.push_back(Expect::response);
                    break;
            }
        }
        script.push_back("{\"op\":\"stats\"}");
        expects.push_back(Expect::stats);
        if (quit_ended) {
            // The frame after the quit barrier must be ignored, not
            // answered.  Both frames ride in one write (the window-1 client
            // would otherwise wait forever for quit's nonexistent reply).
            script.push_back("{\"op\":\"quit\"}\n" +
                             row_request(id++, pool % rows, "tree_shap"));
        }
    }
    return rec;
}

/// Plays the recorded stream and returns per-connection line streams.
std::vector<std::vector<std::string>> replay(std::uint16_t port,
                                             const Recorded& rec) {
    net::LoadgenConfig lg;
    lg.port = port;
    lg.window = 1;  // strict order: responses depend only on own history
    lg.shutdown_writes = rec.shutdown_writes;
    lg.timeout = std::chrono::milliseconds(120000);
    const auto report = net::run_load(lg, rec.scripts);
    EXPECT_FALSE(report.timed_out);
    std::vector<std::vector<std::string>> streams(rec.scripts.size());
    for (std::size_t c = 0; c < report.conns.size(); ++c) {
        const auto& conn = report.conns[c];
        EXPECT_FALSE(conn.connect_failed) << "conn " << c;
        EXPECT_FALSE(conn.io_error) << "conn " << c;
        EXPECT_TRUE(conn.eof) << "conn " << c;
        EXPECT_TRUE(conn.partial.empty()) << "conn " << c << " truncated line";
        streams[c] = conn.lines;
    }
    return streams;
}

/// Single-loop reference server (the pre-sharding architecture).
std::vector<std::vector<std::string>> run_single_loop(const Recorded& rec) {
    const auto& s = scenario();
    serve::ExplanationService service(s.forest, s.background, service_config());
    net::ExplanationServer server(service);
    server.set_row_lookup(row_lookup());
    std::string error;
    if (!server.start(&error)) throw std::runtime_error(error);
    std::thread loop([&server] { server.run(); });
    auto streams = replay(server.port(), rec);
    server.request_drain();
    loop.join();
    service.stop();
    return streams;
}

std::vector<std::vector<std::string>> run_sharded(const Recorded& rec,
                                                  std::size_t shards,
                                                  serve::ServiceStats* stats_out =
                                                      nullptr) {
    const auto& s = scenario();
    net::ShardedServerConfig shcfg;
    shcfg.shards = shards;
    shcfg.net.max_connections = rec.scripts.size() + 16;
    net::ShardedServer server(s.forest, s.background, service_config(), shcfg);
    server.set_row_lookup(row_lookup());
    std::string error;
    if (!server.start(&error)) throw std::runtime_error(error);
    std::thread loop([&server] { server.run(); });
    auto streams = replay(server.port(), rec);
    if (stats_out) *stats_out = server.stats();
    server.request_drain();
    loop.join();
    server.stop_services();
    return streams;
}

/// Byte-compares two replays: every non-stats line exactly, stats lines
/// semantically (shape + shard count).
void expect_equivalent(const std::vector<std::vector<std::string>>& got,
                       const std::vector<std::vector<std::string>>& want,
                       const Recorded& rec, std::size_t shards) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
        ASSERT_EQ(got[c].size(), rec.expects[c].size())
            << "conn " << c << " answered a different number of frames at "
            << shards << " shards (quit barrier or drop bug)";
        ASSERT_EQ(want[c].size(), rec.expects[c].size());
        for (std::size_t i = 0; i < got[c].size(); ++i) {
            if (rec.expects[c][i] == Expect::stats) {
                const auto parsed = serve::parse_json(got[c][i]);
                EXPECT_EQ(parsed.get_string("op", ""), "stats");
                EXPECT_EQ(static_cast<std::size_t>(
                              parsed.get_number("net_shards", 0)),
                          shards)
                    << "conn " << c;
                continue;
            }
            EXPECT_EQ(got[c][i], want[c][i])
                << "conn " << c << " line " << i << " diverged at " << shards
                << " shards";
        }
    }
}

}  // namespace

TEST(ShardedEquivalence, QuitEndedStreamsAreByteIdenticalAcrossShardCounts) {
    const auto rec = record_stream(24, 0xfeed2020, /*quit_ended=*/true);
    const auto reference = run_single_loop(rec);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{8}}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        expect_equivalent(run_sharded(rec, shards), reference, rec, shards);
    }
}

TEST(ShardedEquivalence, HalfCloseEndedStreamsAreByteIdenticalAcrossShardCounts) {
    // Same claim for connections ended by client half-close (peer EOF) —
    // the server must flush everything in flight, then close.
    const auto rec = record_stream(16, 0xabba1972, /*quit_ended=*/false);
    const auto reference = run_single_loop(rec);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{8}}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        expect_equivalent(run_sharded(rec, shards), reference, rec, shards);
    }
}

TEST(ShardedEquivalence, ServedLineMatchesOneShotExplainer) {
    // Ties the whole suite to the determinism contract: the first explain
    // answer of a recorded stream equals a fresh one-shot explainer rendered
    // through the shared wire renderer, even at 8 shards.
    Recorded rec;
    rec.scripts = {{row_request(1, 5, "tree_shap"), "{\"op\":\"quit\"}"}};
    rec.expects = {{Expect::response}};
    const auto streams = run_sharded(rec, 8);
    ASSERT_EQ(streams[0].size(), 1u);
    const auto& s = scenario();
    const auto explainer = serve::make_explainer("tree_shap", s.background, kSeed);
    serve::ExplainResponse r;
    r.id = 1;
    r.ok = true;
    r.cache_hit = false;
    r.explanation = explainer->explain(*s.forest, s.data.x.row(5));
    EXPECT_EQ(streams[0][0], serve::render_response(r));
}

TEST(ShardedSelfHealing, DeadShardRespawnsUnderLoadWithoutClientErrors) {
    // Chaos kills exactly one shard's event loop mid-run (shard_death with
    // max_fires = 1).  The supervisor must detect the dead thread within one
    // heartbeat and rebuild it — meanwhile retry-mode clients reconnect
    // (the kernel rehashes them onto the surviving listener) and finish with
    // every request answered, the respawn counted, and the fleet budget
    // exactly drained.
    const std::size_t conns = 12, per_conn = 6;
    const auto rows = scenario().data.size();
    std::vector<std::vector<std::string>> scripts(conns);
    for (std::size_t c = 0; c < conns; ++c)
        for (std::size_t r = 0; r < per_conn; ++r) {
            const std::uint64_t id = c * per_conn + r + 1;
            scripts[c].push_back(
                row_request(id, (c * per_conn + r) % rows, "tree_shap", id));
        }

    const auto& s = scenario();
    net::ShardedServerConfig shcfg;
    shcfg.shards = 2;
    shcfg.heartbeat_interval = std::chrono::milliseconds(20);
    shcfg.net.max_connections = conns + 16;
    shcfg.net.tick = std::chrono::milliseconds(10);
    net::NetFaultInjector::Config nf;
    nf.seed = 33;
    nf.rate[static_cast<std::size_t>(net::NetFaultPoint::shard_death)] = 1.0;
    nf.max_fires[static_cast<std::size_t>(net::NetFaultPoint::shard_death)] = 1;
    shcfg.net.chaos = std::make_shared<net::NetFaultInjector>(nf);
    net::ShardedServer server(s.forest, s.background, service_config(), shcfg);
    server.set_row_lookup(row_lookup());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });

    net::LoadgenConfig lg;
    lg.port = server.port();
    lg.window = 2;
    lg.timeout = std::chrono::milliseconds(120000);
    lg.max_retries = 16;
    lg.response_timeout = std::chrono::milliseconds(2000);
    lg.connect_timeout = std::chrono::milliseconds(2000);
    lg.backoff_base = std::chrono::milliseconds(5);
    lg.retry_seed = 3;
    const auto report = net::run_load(lg, scripts);

    // The kill fires on the victim's first tick; wait (bounded) for the
    // supervisor to notice and respawn before sampling stats.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (server.shard_respawns() < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(5ms);
    EXPECT_EQ(server.shard_respawns(), 1u);
    const auto stats = server.stats();
    server.request_drain();
    loop.join();
    server.stop_services();

    EXPECT_EQ(stats.net_shard_respawns, 1u);
    EXPECT_EQ(stats.net_shards, 2u);
    ASSERT_FALSE(report.timed_out);
    std::uint64_t answered = 0;
    for (std::size_t c = 0; c < report.conns.size(); ++c) {
        const auto& conn = report.conns[c];
        EXPECT_FALSE(conn.connect_failed) << "conn " << c;
        EXPECT_FALSE(conn.io_error) << "conn " << c;
        EXPECT_EQ(conn.lines.size() - conn.duplicates, per_conn) << "conn " << c;
        for (const auto& l : conn.lines)
            EXPECT_NE(l.find("\"ok\":true"), std::string::npos) << l;
        answered += conn.lines.size() - conn.duplicates;
    }
    EXPECT_EQ(answered, conns * per_conn);
    // Every budget slot the dead shard held was reclaimed; after the drain
    // the fleet holds none.
    EXPECT_EQ(server.budget().active.load(), 0u);
}

TEST(ShardedEquivalence, StatsAggregateAcrossShards) {
    // The fleet aggregate must add up exactly: every scripted explain is
    // accepted-or-rejected on some shard, and stats() sums them all.
    const auto rec = record_stream(12, 0xc0ffee, /*quit_ended=*/true);
    serve::ServiceStats stats;
    const auto streams = run_sharded(rec, 4, &stats);
    std::uint64_t lines = 0;
    for (const auto& s : streams) lines += s.size();
    std::uint64_t expected_lines = 0;
    for (const auto& e : rec.expects) expected_lines += e.size();
    EXPECT_EQ(lines, expected_lines);
    EXPECT_EQ(stats.net_shards, 4u);
    EXPECT_EQ(stats.connections_accepted, 12u);
    EXPECT_EQ(stats.connections_rejected, 0u);
    EXPECT_EQ(stats.net_requests, expected_lines);
    // Every admitted explain completed (no drops on the quit barrier path).
    EXPECT_EQ(stats.requests_accepted, stats.requests_completed);
}

TEST(ShardedAdmin, StatsResetZerosEveryShardOverTcp) {
    const auto& s = scenario();
    net::ShardedServerConfig shcfg;
    shcfg.shards = 2;
    net::ShardedServer server(s.forest, s.background, service_config(), shcfg);
    server.set_row_lookup(row_lookup());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });

    // Several connections so the SO_REUSEPORT hash spreads traffic over both
    // shards; the reset must still zero the fleet-wide aggregate, not just
    // whichever shard the control connection landed on.
    for (std::size_t c = 0; c < 6; ++c) {
        net::Client client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
        for (std::size_t i = 0; i < 3; ++i) {
            ASSERT_TRUE(
                client.send_line(row_request(c * 3 + i + 1, c * 3 + i, "tree_shap")));
            std::string reply;
            ASSERT_TRUE(client.recv_line(reply, 30s));
        }
    }

    {
        net::Client control;
        ASSERT_TRUE(control.connect("127.0.0.1", server.port(), &error)) << error;
        std::string reply;
        ASSERT_TRUE(control.send_line(R"({"op":"stats"})"));
        ASSERT_TRUE(control.recv_line(reply, 30s));
        const auto before = serve::parse_json(reply);
        EXPECT_EQ(before.get_number("requests_completed", -1), 18.0);
        EXPECT_GE(before.get_number("connections_accepted", -1), 7.0);

        ASSERT_TRUE(control.send_line(R"({"op":"stats_reset"})"));
        ASSERT_TRUE(control.recv_line(reply, 30s));
        const auto ack = serve::parse_json(reply);
        ASSERT_NE(ack.find("ok"), nullptr);
        EXPECT_TRUE(ack.find("ok")->boolean);
        EXPECT_EQ(ack.get_string("op", ""), "stats_reset");

        ASSERT_TRUE(control.send_line(R"({"op":"stats"})"));
        ASSERT_TRUE(control.recv_line(reply, 30s));
        const auto after = serve::parse_json(reply);
        EXPECT_EQ(after.get_number("requests_completed", -1), 0.0);
        EXPECT_EQ(after.get_number("requests_accepted", -1), 0.0);
        EXPECT_EQ(after.get_number("cache_hits", -1), 0.0);
        EXPECT_EQ(after.get_number("connections_accepted", -1), 0.0);
        // The reset is a measurement-window boundary, not a service restart:
        // the fleet keeps serving and counting afresh.
        ASSERT_TRUE(control.send_line(row_request(100, 1, "tree_shap")));
        ASSERT_TRUE(control.recv_line(reply, 30s));
        EXPECT_NE(reply.find("\"ok\":true"), std::string::npos);
        ASSERT_TRUE(control.send_line(R"({"op":"stats"})"));
        ASSERT_TRUE(control.recv_line(reply, 30s));
        EXPECT_EQ(serve::parse_json(reply).get_number("requests_completed", -1),
                  1.0);
    }

    server.request_drain();
    loop.join();
    server.stop_services();
}

TEST(ShardedStats, SharedFaultInjectorCountsEachFireOnce) {
    // Every shard's service polls the one FaultInjector the fleet shares, so
    // its fire count is a fleet fact, read once: fleet faults_injected must
    // equal the fault answers actually served and the injector's own total.
    const auto& s = scenario();
    serve::FaultInjector::Config fi;
    fi.seed = 7;
    fi.rate[static_cast<std::size_t>(serve::FaultPoint::predict_throw)] = 0.5;
    const auto injector = std::make_shared<serve::FaultInjector>(fi);
    auto cfg = service_config();
    cfg.fault_injector = injector;
    net::ShardedServerConfig shcfg;
    shcfg.shards = 2;
    net::ShardedServer server(s.forest, s.background, cfg, shcfg);
    server.set_row_lookup(row_lookup());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });

    // Distinct rows: fault answers are never cached, and no request can be
    // answered without computing.
    std::vector<std::vector<std::string>> scripts(8);
    for (std::size_t c = 0; c < scripts.size(); ++c)
        for (std::size_t r = 0; r < 10; ++r)
            scripts[c].push_back(row_request(c * 10 + r + 1, c * 10 + r, "tree_shap"));
    net::LoadgenConfig lg;
    lg.port = server.port();
    lg.window = 2;
    lg.shutdown_writes = true;
    lg.timeout = std::chrono::milliseconds(60000);
    const auto report = net::run_load(lg, scripts);
    const auto stats = server.stats();
    server.request_drain();
    loop.join();
    server.stop_services();

    ASSERT_FALSE(report.timed_out);
    std::uint64_t answered = 0, faulted = 0;
    for (const auto& conn : report.conns)
        for (const auto& line : conn.lines) {
            ++answered;
            if (line.find("\"error_code\":\"fault_injected\"") != std::string::npos)
                ++faulted;
        }
    EXPECT_EQ(answered, 80u);
    EXPECT_GT(faulted, 0u);
    EXPECT_EQ(injector->total_fired(), faulted);
    EXPECT_EQ(stats.faults_injected, faulted);
    EXPECT_EQ(stats.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::fault_injected)],
              faulted);
}

namespace {

/// Key order of one rendered stats line: the top-level keys, and for each
/// top-level array of objects, every element's keys.
struct KeyOrder {
    std::vector<std::string> top;
    std::map<std::string, std::vector<std::vector<std::string>>> elements;
};

KeyOrder key_order(const std::string& json) {
    KeyOrder out;
    int depth = 0;
    std::string parent;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (c == '"') {
            std::string text;
            for (++i; json[i] != '"'; ++i) {
                if (json[i] == '\\') ++i;
                text += json[i];
            }
            if (i + 1 < json.size() && json[i + 1] == ':') {
                if (depth == 1) parent = text, out.top.push_back(text);
                if (depth == 3) out.elements[parent].back().push_back(text);
            }
        } else if (c == '{' || c == '[') {
            if (++depth == 3 && c == '{') out.elements[parent].emplace_back();
        } else if (c == '}' || c == ']') {
            --depth;
        }
    }
    return out;
}

/// Sends `lines` one at a time over a fresh connection, then a stats frame;
/// returns the stats line.
std::string stats_after(std::uint16_t port, const std::vector<std::string>& lines) {
    net::Client client;
    std::string error, reply;
    EXPECT_TRUE(client.connect("127.0.0.1", port, &error)) << error;
    for (const auto& line : lines) {
        EXPECT_TRUE(client.send_line(line));
        EXPECT_TRUE(client.recv_line(reply, 30s));
    }
    EXPECT_TRUE(client.send_line(R"({"op":"stats"})"));
    EXPECT_TRUE(client.recv_line(reply, 30s));
    return reply;
}

}  // namespace

TEST(ShardedStats, StatsKeysKeepTheirWireOrderOnEveryServer) {
    // The wire contract of `stats`: every top-level key in order, and the
    // keys of each explainers[] and models[] element.
    const std::vector<std::string> head{
        "ok", "op", "requests_accepted", "requests_rejected", "requests_completed",
        "requests_degraded", "batches", "batch_size_mean", "cache_hits", "cache_misses",
        "cache_hit_rate", "cache_evictions", "cache_epoch", "drift_checks",
        "drift_flushes", "service_us_p50", "service_us_p95",
        "service_us_p99", "model_evals", "probe_rows_p50", "probe_rows_mean",
        "probe_rows_max", "fast_path_hits", "explainers", "worker_stalls",
        "faults_injected", "snapshot_writes", "snapshot_records_loaded",
        "snapshot_records_skipped"};
    const std::vector<std::string> net_keys{
        "net_shards", "connections_accepted", "connections_active",
        "connections_rejected", "connections_closed_idle",
        "connections_closed_backpressure", "net_bytes_in", "net_bytes_out",
        "net_requests", "conn_requests_p50", "conn_requests_max", "net_faults_injected",
        "net_retry_duplicates", "net_shard_respawns"};
    const std::vector<std::string> tail{"errors_by_reason", "models_registered",
                                        "model_swaps", "models", "report"};
    const std::vector<std::string> explainer_keys{
        "name", "requests", "fast_path_hits", "compute_us_p50", "compute_us_p99",
        "compute_us_mean"};
    const std::vector<std::string> model_keys{
        "name", "fingerprint", "admitted", "rejected_quota", "swaps", "evals", "completed",
        "cache_entries", "cache_evictions", "cache_epoch", "queued", "weight", "quota",
        "base_value", "breaker_state", "breaker_opens", "breaker_rejected"};

    const std::vector<std::string> traffic{
        row_request(1, 1, "tree_shap"), row_request(2, 1, "tree_shap"),
        row_request(3, 2, "occlusion")};
    const auto& s = scenario();

    std::vector<std::pair<std::string, std::string>> rendered;  // (server, line)
    {
        serve::ExplanationService service(s.forest, s.background, service_config());
        for (const auto& line : traffic) {
            const auto req = serve::parse_json(line);
            serve::ExplainRequest r;
            r.id = static_cast<std::uint64_t>(req.get_number("id", 0));
            r.method = req.get_string("method", "");
            r.seed = kSeed;
            const auto x = s.data.x.row(static_cast<std::size_t>(req.get_number("row", 0)));
            r.features.assign(x.begin(), x.end());
            ASSERT_TRUE(service.explain_sync(std::move(r)).ok);
        }
        rendered.emplace_back("in-process", serve::render_stats(service.stats()));
    }
    {
        serve::ExplanationService service(s.forest, s.background, service_config());
        net::ExplanationServer server(service);
        server.set_row_lookup(row_lookup());
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread loop([&server] { server.run(); });
        rendered.emplace_back("single-loop", stats_after(server.port(), traffic));
        server.request_drain();
        loop.join();
        service.stop();
    }
    {
        net::ShardedServerConfig shcfg;
        shcfg.shards = 2;
        net::ShardedServer server(s.forest, s.background, service_config(), shcfg);
        server.set_row_lookup(row_lookup());
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread loop([&server] { server.run(); });
        rendered.emplace_back("2-shard", stats_after(server.port(), traffic));
        server.request_drain();
        loop.join();
        server.stop_services();
    }

    for (const auto& [name, line] : rendered) {
        SCOPED_TRACE(name);
        auto want = head;
        if (name != "in-process") want.insert(want.end(), net_keys.begin(), net_keys.end());
        want.insert(want.end(), tail.begin(), tail.end());
        const auto keys = key_order(line);
        EXPECT_EQ(keys.top, want);
        ASSERT_EQ(keys.elements.count("explainers"), 1u);
        EXPECT_EQ(keys.elements.at("explainers").size(), 2u);
        for (const auto& element : keys.elements.at("explainers"))
            EXPECT_EQ(element, explainer_keys);
        ASSERT_EQ(keys.elements.count("models"), 1u);
        EXPECT_EQ(keys.elements.at("models").size(), 1u);
        for (const auto& element : keys.elements.at("models"))
            EXPECT_EQ(element, model_keys);
    }
}
