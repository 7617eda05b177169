// TCP front-end (src/net/) end-to-end tests over loopback.
//
// The central claim is transport transparency: the bytes a TCP client reads
// for an explain request are identical to what the stdin loop would print —
// which in turn is pinned to the one-shot CLI path by the serving
// determinism contract.  So every round-trip test compares full wire lines
// against serve::render_response of a response built from a fresh one-shot
// explainer, at 1 and at 8 worker threads.
//
// The rest covers the failure policy: pipelined ordering (also of a cache
// hit answered at admission behind an earlier miss), per-connection id
// assignment, connection-limit rejection, slow-reader backpressure close,
// idle timeout, and graceful drain with requests still queued behind a busy
// dispatcher.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mlcore/forest.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace serve = xnfv::serve;
namespace testutil = xnfv::testutil;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

using namespace std::chrono_literals;

namespace {

constexpr std::uint64_t kSeed = 11;
constexpr auto kRecvTimeout = 30s;  // generous: TSan/ASan runs are slow

/// Fixed-seed NFV scenario dataset + forest (same shape as the serving
/// determinism suite).
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

/// Service + server on a background thread, drained and joined on teardown.
struct Harness {
    std::unique_ptr<serve::ExplanationService> service;
    std::unique_ptr<net::ExplanationServer> server;
    std::thread thread;

    explicit Harness(serve::ServiceConfig scfg = {}, net::ServerConfig ncfg = {}) {
        const auto& s = scenario();
        service = std::make_unique<serve::ExplanationService>(
            s.forest, s.background, std::move(scfg));
        server = std::make_unique<net::ExplanationServer>(*service, std::move(ncfg));
        server->set_row_lookup(
            [](std::size_t row, std::vector<double>& features) {
                const auto& sc = scenario();
                if (row >= sc.data.size()) return false;
                const auto x = sc.data.x.row(row);
                features.assign(x.begin(), x.end());
                return true;
            });
        std::string error;
        if (!server->start(&error))
            throw std::runtime_error("server start failed: " + error);
        thread = std::thread([this] { server->run(); });
    }

    ~Harness() { stop(); }

    void stop() {
        if (server) server->request_drain();
        if (thread.joinable()) thread.join();
        if (service) service->stop();
    }

    net::Client connect() {
        net::Client client;
        std::string error;
        if (!client.connect("127.0.0.1", server->port(), &error))
            throw std::runtime_error("connect failed: " + error);
        return client;
    }
};

/// The explain request the stdin loop and the TCP path both accept.
std::string explain_request(std::uint64_t id, std::size_t row,
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

/// The exact line the server must produce: one-shot explainer, rendered
/// through the shared wire renderer.
std::string expected_line(std::uint64_t id, std::size_t row,
                          const std::string& method, bool cache_hit) {
    const auto& s = scenario();
    const auto explainer = serve::make_explainer(method, s.background, kSeed);
    serve::ExplainResponse r;
    r.id = id;
    r.ok = true;
    r.cache_hit = cache_hit;
    r.explanation = explainer->explain(*s.forest, s.data.x.row(row));
    return serve::render_response(r);
}

std::string must_recv(net::Client& client) {
    std::string line;
    if (!client.recv_line(line, std::chrono::duration_cast<std::chrono::milliseconds>(
                                    kRecvTimeout)))
        throw std::runtime_error("recv_line timed out / connection closed");
    return line;
}

void round_trip_case(std::size_t threads) {
    serve::ServiceConfig scfg;
    scfg.threads = threads;
    Harness h(scfg);
    auto client = h.connect();

    // Rows with a repeat (cache hit) across two methods; every line must be
    // byte-identical to the one-shot reference.
    const std::vector<std::size_t> rows{0, 7, 42, 99, 7};
    std::uint64_t id = 100;
    for (const auto* method : {"tree_shap", "sampling"}) {
        std::vector<bool> hit;
        std::vector<std::size_t> seen;
        for (const auto row : rows) {
            hit.push_back(std::find(seen.begin(), seen.end(), row) != seen.end());
            seen.push_back(row);
            ASSERT_TRUE(client.send_line(explain_request(id, row, method)));
            const auto got = must_recv(client);
            EXPECT_EQ(got, expected_line(id, row, method, hit.back()))
                << "method " << method << " row " << row;
            ++id;
        }
    }
}

TEST(NetServer, RoundTripBitwiseEqualOneThread) { round_trip_case(1); }

TEST(NetServer, RoundTripBitwiseEqualEightThreads) { round_trip_case(8); }

TEST(NetServer, PipelinedRequestsAnswerInOrderWithDefaultIds) {
    Harness h;
    auto client = h.connect();
    // One write, many frames — ids are assigned per connection starting at
    // 1, and responses come back in request order (slot pipeline).
    std::string wire;
    for (int i = 0; i < 6; ++i)
        wire += R"({"op":"explain","row":)" + std::to_string(i) + "}\n";
    ASSERT_TRUE(client.send_line(wire.substr(0, wire.size() - 1)));
    for (std::uint64_t want = 1; want <= 6; ++want) {
        const auto line = must_recv(client);
        const auto parsed = serve::parse_json(line);
        EXPECT_EQ(parsed.get_number("id", 0), static_cast<double>(want));
        EXPECT_TRUE(parsed.find("ok") != nullptr);
    }
}

TEST(NetServer, RowLookupAndErrorsMatchStdinLoopWording) {
    Harness h;
    auto client = h.connect();
    ASSERT_TRUE(client.send_line(R"({"op":"explain","row":999999})"));
    auto parsed = serve::parse_json(must_recv(client));
    EXPECT_EQ(parsed.get_string("error", ""), "row out of range");
    EXPECT_EQ(parsed.get_string("error_code", ""), "bad_request");

    ASSERT_TRUE(client.send_line(R"({"op":"explain"})"));
    parsed = serve::parse_json(must_recv(client));
    EXPECT_EQ(parsed.get_string("error", ""), "explain needs \"row\" or \"features\"");

    ASSERT_TRUE(client.send_line(R"({"op":"unknown_op"})"));
    parsed = serve::parse_json(must_recv(client));
    EXPECT_EQ(parsed.get_string("error", ""), "unknown op 'unknown_op'");

    ASSERT_TRUE(client.send_line("this is not json"));
    parsed = serve::parse_json(must_recv(client));
    EXPECT_EQ(parsed.get_string("error_code", ""), "bad_request");
}

TEST(NetServer, StatsOpReportsNetSectionAndQuitCloses) {
    Harness h;
    auto client = h.connect();
    ASSERT_TRUE(client.send_line(R"({"op":"explain","row":1})"));
    ASSERT_TRUE(client.send_line(R"({"op":"explain","row":2})"));
    ASSERT_TRUE(client.send_line(R"({"op":"stats"})"));
    ASSERT_TRUE(client.send_line(R"({"op":"quit"})"));
    (void)must_recv(client);
    (void)must_recv(client);
    const auto stats_line = must_recv(client);
    const auto parsed = serve::parse_json(stats_line);
    EXPECT_EQ(parsed.get_string("op", ""), "stats");
    // The stats barrier resolves only after both explains were answered.
    EXPECT_EQ(parsed.get_number("requests_completed", -1), 2.0);
    EXPECT_EQ(parsed.get_number("net_requests", -1), 2.0);
    EXPECT_EQ(parsed.get_number("connections_accepted", -1), 1.0);
    // quit: no response line, just an orderly close after the flush.
    std::string line;
    EXPECT_FALSE(client.recv_line(line, std::chrono::milliseconds(5000)));
}

TEST(NetServer, ConnectionLimitRejectsWithStructuredError) {
    net::ServerConfig ncfg;
    ncfg.max_connections = 1;
    Harness h({}, ncfg);
    auto first = h.connect();
    // Ensure the first connection is fully accepted before the second tries.
    ASSERT_TRUE(first.send_line(R"({"op":"explain","row":0})"));
    (void)must_recv(first);

    auto second = h.connect();
    const auto line = must_recv(second);
    const auto parsed = serve::parse_json(line);
    EXPECT_EQ(parsed.get_string("error_code", ""), "backpressure");
    EXPECT_EQ(parsed.get_string("error", ""), "connection limit reached");
    std::string extra;
    EXPECT_FALSE(second.recv_line(extra, std::chrono::milliseconds(5000)));

    // The first connection is unaffected.
    ASSERT_TRUE(first.send_line(R"({"op":"explain","row":1})"));
    (void)must_recv(first);
}

TEST(NetServer, SlowReaderClosedWithBackpressure) {
    serve::ServiceConfig scfg;
    scfg.cache_capacity = 4096;
    net::ServerConfig ncfg;
    ncfg.sndbuf = 2048;          // shrink the kernel's buffering...
    ncfg.max_output_bytes = 4096;  // ...so the userspace cap is reachable
    Harness h(scfg, ncfg);

    // Raw socket with a tiny receive buffer (set before connect so the
    // window is small), never read from: the textbook slow reader.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int rcvbuf = 2048;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(h.server->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

    // Identical cache-hitting requests: responses are produced far faster
    // than this reader (which never reads) can drain them.
    std::string wire;
    for (int i = 0; i < 400; ++i) wire += "{\"op\":\"explain\",\"row\":3}\n";
    std::size_t off = 0;
    while (off < wire.size()) {
        const auto n = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
        if (n <= 0) break;  // server may force-close while we are still sending
        off += static_cast<std::size_t>(n);
    }

    const auto deadline = std::chrono::steady_clock::now() + kRecvTimeout;
    while (h.server->stats().connections_closed_backpressure == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "backpressure close never happened";
        std::this_thread::sleep_for(10ms);
    }
    const auto stats = h.server->stats();
    EXPECT_GE(stats.connections_closed_backpressure, 1u);
    EXPECT_GE(stats.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::backpressure)],
              0u);  // wire error, not a service rejection
    ::close(fd);
}

TEST(NetServer, IdleConnectionTimedOut) {
    net::ServerConfig ncfg;
    ncfg.idle_timeout = 100ms;
    Harness h({}, ncfg);
    auto client = h.connect();

    const auto deadline = std::chrono::steady_clock::now() + kRecvTimeout;
    while (h.server->stats().connections_closed_idle == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "idle close never happened";
        std::this_thread::sleep_for(10ms);
    }
    std::string line;
    EXPECT_FALSE(client.recv_line(line, std::chrono::milliseconds(5000)));
    EXPECT_EQ(h.server->stats().connections_closed_idle, 1u);
}

TEST(NetServer, GracefulDrainFlushesRequestsStillInBatcher) {
    // A held dispatcher keeps the client's five requests queued.
    serve::ServiceConfig scfg;
    scfg.max_batch = 64;
    const auto gate = testutil::add_gate(scfg, scenario().data.x.cols());
    Harness h(scfg);
    testutil::DispatcherHold hold(*h.service, gate);
    auto client = h.connect();
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(client.send_line(R"({"op":"explain","row":)" +
                                     std::to_string(i) + "}"));
    // Wait until the loop has read and admitted the frames, then drain while
    // they are still queued, and only then let the dispatcher go.
    const auto deadline = std::chrono::steady_clock::now() + kRecvTimeout;
    while (h.service->stats().requests_accepted < 6) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "requests never admitted";
        std::this_thread::sleep_for(1ms);
    }
    h.server->request_drain();
    ASSERT_TRUE(hold.release().ok);

    // Every in-flight request is still answered, in order...
    for (std::uint64_t want = 1; want <= 5; ++want) {
        const auto parsed = serve::parse_json(must_recv(client));
        EXPECT_EQ(parsed.get_number("id", 0), static_cast<double>(want));
        EXPECT_EQ(parsed.find("ok")->boolean, true);
    }
    // ...and only then does the server close and run() return.
    std::string line;
    EXPECT_FALSE(client.recv_line(line, std::chrono::milliseconds(10000)));
    client.close();  // lets the drain finish without lingering on it
    h.stop();
    EXPECT_EQ(h.service->stats().batch_size.max, 5u);  // served as one batch
}

TEST(NetServer, PipelinedHitWaitsForAnEarlierMiss) {
    // A hit is answered at admission, on the loop thread, but its slot sits
    // behind the miss the same connection sent before it.
    serve::ServiceConfig scfg;
    const auto gate = testutil::add_gate(scfg, scenario().data.x.cols());
    Harness h(scfg);
    auto client = h.connect();
    ASSERT_TRUE(client.send_line(explain_request(1, 3, "tree_shap")));
    EXPECT_EQ(must_recv(client), expected_line(1, 3, "tree_shap", false));

    testutil::DispatcherHold hold(*h.service, gate);
    const auto hits_before = h.service->stats().cache_hits;
    ASSERT_TRUE(client.send_line(explain_request(2, 5, "tree_shap") + "\n" +
                                 explain_request(3, 3, "tree_shap")));
    // The repeat of row 3 is answered while the dispatcher is still held...
    const auto deadline = std::chrono::steady_clock::now() + kRecvTimeout;
    while (h.service->stats().cache_hits == hits_before) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "the hit was never answered";
        std::this_thread::sleep_for(1ms);
    }
    // ...yet nothing reaches the wire ahead of the miss of row 5.
    std::string line;
    EXPECT_FALSE(client.recv_line(line, 200ms)) << line;
    ASSERT_TRUE(hold.release().ok);
    EXPECT_EQ(must_recv(client), expected_line(2, 5, "tree_shap", false));
    EXPECT_EQ(must_recv(client), expected_line(3, 3, "tree_shap", true));
}

TEST(NetServer, HalfCloseStillAnswersInFlight) {
    Harness h;
    auto client = h.connect();
    ASSERT_TRUE(client.send_line(R"({"op":"explain","row":4})"));
    client.shutdown_write();  // FIN: no more requests, but we still read
    const auto parsed = serve::parse_json(must_recv(client));
    EXPECT_EQ(parsed.find("ok")->boolean, true);
    std::string line;
    EXPECT_FALSE(client.recv_line(line, std::chrono::milliseconds(10000)));
}

TEST(NetServer, RetriedRidAnsweredFromDedupWindowByteIdentical) {
    // Safe-retry contract: a request re-sent with the same "rid" is answered
    // from the per-connection dedup window's completed-response record —
    // byte-identical to the original answer, with no second compute.
    Harness h;
    auto client = h.connect();
    const std::string request = R"({"op":"explain","id":9,"rid":9,"row":6})";

    // In-flight duplicate: both frames ride one write, the second attaches
    // to the pending original and both answers are the same bytes.
    ASSERT_TRUE(client.send_line(request + "\n" + request));
    const auto first = must_recv(client);
    const auto attached = must_recv(client);
    EXPECT_EQ(attached, first);

    // Post-completion duplicate: answered from the recorded response.
    ASSERT_TRUE(client.send_line(request));
    const auto replayed = must_recv(client);
    EXPECT_EQ(replayed, first);

    const auto stats = h.server->stats();
    EXPECT_EQ(stats.net_retry_duplicates, 2u);
    // One compute for three wire answers — the service admitted exactly one.
    EXPECT_EQ(stats.requests_accepted, 1u);
    EXPECT_EQ(stats.requests_completed, 1u);
    EXPECT_EQ(stats.net_requests, 3u);
}

TEST(NetServer, DedupWindowIsPerConnection) {
    // A rid is only remembered on the connection that served it: a fresh
    // connection re-sending the same rid recomputes (cache makes it cheap)
    // and the answer is still byte-identical by the determinism contract.
    Harness h;
    const std::string request =
        R"({"op":"explain","id":4,"rid":4,"row":8,"seed":11})";
    auto a = h.connect();
    ASSERT_TRUE(a.send_line(request));
    const auto first = must_recv(a);
    a.close();

    auto b = h.connect();
    ASSERT_TRUE(b.send_line(request));
    const auto parsed = serve::parse_json(must_recv(b));
    EXPECT_EQ(parsed.find("ok")->boolean, true);
    EXPECT_EQ(h.server->stats().net_retry_duplicates, 0u);
    EXPECT_EQ(h.server->stats().requests_accepted, 2u);
}

TEST(NetServer, TwoConnectionsHaveIndependentPipelines) {
    Harness h;
    auto a = h.connect();
    auto b = h.connect();
    ASSERT_TRUE(a.send_line(R"({"op":"explain","row":10})"));
    ASSERT_TRUE(b.send_line(R"({"op":"explain","row":20})"));
    ASSERT_TRUE(a.send_line(R"({"op":"explain","row":11})"));
    ASSERT_TRUE(b.send_line(R"({"op":"explain","row":21})"));
    // Each connection numbers its own requests from 1.
    for (std::uint64_t want = 1; want <= 2; ++want) {
        EXPECT_EQ(serve::parse_json(must_recv(a)).get_number("id", 0),
                  static_cast<double>(want));
        EXPECT_EQ(serve::parse_json(must_recv(b)).get_number("id", 0),
                  static_cast<double>(want));
    }
}

}  // namespace
