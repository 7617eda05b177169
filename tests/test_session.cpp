// The one ND-JSON serving protocol (serve/session.hpp).
//
// Without sockets, a Session is driven frame by frame, with misses handed
// back only when the test says so: answers leave in request order whatever
// order completions arrive in, `stats` resolves only after every earlier
// slot, frames after `quit` are ignored, and a rid duplicate attaches to a
// pending original or replays a completed one.  A wire integer its field
// cannot hold is refused by name.
//
// Across transports, one script — explains by row and by features, a rid
// retry, every malformed-input class, `use`, an unknown model, `models`,
// `stats_reset` and lines after `quit` — must read the same lines through
// serve_stream (string streams) and through one TCP connection.  On a
// stream, at most kStreamWindow answers are outstanding, `quit` stops
// reading, and a last line without a newline is still answered.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mlcore/forest.hpp"
#include "net/client.hpp"
#include "net/sharded_server.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
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

constexpr auto kTimeout = 30s;  // generous: TSan/ASan runs are slow

/// A fixed-seed NFV dataset, a default forest and a smaller "canary" forest.
struct Scenario {
    ml::Dataset data;
    std::shared_ptr<ml::RandomForest> forest;
    std::shared_ptr<ml::RandomForest> canary;
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
        out.canary = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 3});
        out.canary->fit(out.data, rng);
        out.background = xai::BackgroundData(out.data.x, 32);
        return out;
    }();
    return s;
}

serve::ServiceConfig service_config() {
    serve::ServiceConfig cfg;
    cfg.threads = 2;
    cfg.extra_models.push_back({"canary", scenario().canary});
    return cfg;
}

std::unique_ptr<serve::ExplanationService> make_service() {
    const auto& s = scenario();
    return std::make_unique<serve::ExplanationService>(s.forest, s.background,
                                                       service_config());
}

bool row_lookup(std::size_t row, std::vector<double>& features) {
    const auto& s = scenario();
    if (row >= s.data.size()) return false;
    const auto x = s.data.x.row(row);
    features.assign(x.begin(), x.end());
    return true;
}

serve::Frame frame(std::string text) { return serve::Frame{std::move(text), {}, {}}; }

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
}

/// A session over a real service whose misses come back only when the test
/// hands them to fulfill(), in whatever order it likes.
struct HeldSession {
    std::unique_ptr<serve::ExplanationService> service = make_service();
    std::mutex mutex;
    std::condition_variable arrived;
    std::vector<std::pair<std::uint64_t, std::string>> completions;
    int stats_calls = 0;
    serve::Session session{{
        .service = *service,
        .rows = row_lookup,
        .stats =
            [this] {
                ++stats_calls;
                return service->stats();
            },
        .admin = [this](const serve::JsonValue& req) {
            return serve::handle_model_admin(req, {service.get()});
        },
        .completion = [this](std::uint64_t seq) -> serve::Session::Completion {
            return [this, seq](serve::ExplainResponse r) {
                const std::lock_guard<std::mutex> lock(mutex);
                completions.emplace_back(seq, serve::render_response(r));
                arrived.notify_all();
            };
        },
        .dedup_window = 16,
    }};

    ~HeldSession() { service->stop(); }

    /// Waits until `n` misses have completed; returns them in arrival order.
    std::vector<std::pair<std::uint64_t, std::string>> await(std::size_t n) {
        std::unique_lock<std::mutex> lock(mutex);
        if (!arrived.wait_for(lock, kTimeout, [&] { return completions.size() >= n; }))
            throw std::runtime_error("misses never completed");
        return completions;
    }

    std::string pump() {
        std::string out;
        session.pump(out);
        return out;
    }
};

TEST(Session, AnswersInRequestOrderWhenCompletionsArriveOutOfOrder) {
    HeldSession h;
    h.session.handle(frame(R"({"op":"explain","row":1})"));
    h.session.handle(frame(R"({"op":"explain","row":2})"));
    const auto done = h.await(2);
    EXPECT_EQ(h.pump(), "");

    // The later request's answer lands first: nothing may pass the head.
    const auto& first = done[0].first < done[1].first ? done[0] : done[1];
    const auto& second = done[0].first < done[1].first ? done[1] : done[0];
    h.session.fulfill(second.first, second.second);
    EXPECT_EQ(h.pump(), "");
    EXPECT_EQ(h.session.unanswered(), 2u);

    h.session.fulfill(first.first, first.second);
    const auto lines = split_lines(h.pump());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], first.second);
    EXPECT_EQ(lines[1], second.second);
    EXPECT_EQ(serve::parse_json(lines[0]).get_number("id", 0), 1.0);
    EXPECT_EQ(serve::parse_json(lines[1]).get_number("id", 0), 2.0);
    EXPECT_EQ(h.session.answered(), 2u);
    EXPECT_EQ(h.session.unanswered(), 0u);
}

TEST(Session, StatsResolvesOnlyAfterEveryEarlierSlot) {
    HeldSession h;
    h.session.handle(frame(R"({"op":"explain","row":3})"));
    h.session.handle(frame(R"({"op":"stats"})"));
    const auto done = h.await(1);
    EXPECT_EQ(h.pump(), "");
    EXPECT_EQ(h.stats_calls, 0);

    h.session.fulfill(done[0].first, done[0].second);
    const auto lines = split_lines(h.pump());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], done[0].second);
    EXPECT_EQ(h.stats_calls, 1);
    const auto stats = serve::parse_json(lines[1]);
    EXPECT_EQ(stats.get_string("op", ""), "stats");
    EXPECT_EQ(stats.get_number("requests_completed", -1), 1.0);
    EXPECT_EQ(stats.find("net_requests"), nullptr);  // one service, no net keys
}

TEST(Session, IgnoresFramesAfterQuit) {
    HeldSession h;
    h.session.handle(frame(R"({"op":"explain","row":4})"));
    h.session.handle(frame(R"({"op":"quit"})"));
    h.session.handle(frame(R"({"op":"explain","row":5})"));
    h.session.handle(frame(R"({"op":"models"})"));
    EXPECT_TRUE(h.session.quit_read());
    EXPECT_EQ(h.session.unanswered(), 2u);  // the explain and the quit barrier

    const auto done = h.await(1);
    EXPECT_EQ(h.pump(), "");
    EXPECT_FALSE(h.session.ended());
    h.session.fulfill(done[0].first, done[0].second);
    EXPECT_EQ(h.pump(), done[0].second + "\n");
    EXPECT_TRUE(h.session.ended());
    EXPECT_EQ(h.session.unanswered(), 0u);
    EXPECT_EQ(h.service->stats().requests_accepted, 1u);
}

TEST(Session, RidDuplicateAttachesWhilePendingAndReplaysOnceDone) {
    HeldSession h;
    const auto request = frame(R"({"op":"explain","id":9,"rid":9,"row":6})");
    h.session.handle(request);
    h.session.handle(request);  // the original is still pending: attaches
    const auto done = h.await(1);
    EXPECT_EQ(h.pump(), "");

    h.session.fulfill(done[0].first, done[0].second);
    EXPECT_EQ(h.pump(), done[0].second + "\n" + done[0].second + "\n");

    h.session.handle(request);  // completed: replayed at once
    EXPECT_EQ(h.pump(), done[0].second + "\n");

    const auto stats = h.service->stats();
    EXPECT_EQ(stats.requests_accepted, 1u);  // one compute, three answers
    EXPECT_EQ(stats.net_retry_duplicates, 2u);
    EXPECT_EQ(h.session.answered(), 3u);
}

TEST(Session, RefusesWireIntegersTheirFieldsCannotHold) {
    // Integers arrive as JSON doubles.  A fraction, a value past the field's
    // range, a negative value for an unsigned field, or a value that is not a
    // number is refused as bad_request naming the field, and nothing is
    // admitted.
    HeldSession h;
    for (const std::string field : {"id", "seed", "rid", "row", "deadline_ms", "interactions"}) {
        std::vector<std::string> values{"0.5", "1e300", "\"7\"", "null"};
        if (field != "deadline_ms" && field != "interactions") values.emplace_back("-1");
        for (const auto& value : values) {
            SCOPED_TRACE(field + ":" + value);
            // The first of two equal keys wins, so "row" is sent only once.
            h.session.handle(frame(field == "row"
                                       ? R"({"op":"explain","row":)" + value + "}"
                                       : R"({"op":"explain","row":1,")" + field +
                                             "\":" + value + "}"));
            const auto lines = split_lines(h.pump());
            ASSERT_EQ(lines.size(), 1u);
            const auto answer = serve::parse_json(lines[0]);
            EXPECT_EQ(answer.get_string("error_code", ""), "bad_request") << lines[0];
            EXPECT_EQ(answer.get_string("error", ""),
                      "\"" + field + "\" must be a whole number in range");
        }
    }
    EXPECT_EQ(h.service->stats().requests_accepted, 0u);

    // Where a field gives -1 a meaning, it keeps it: no deadline, no pairs.
    h.session.handle(frame(R"({"op":"explain","row":1,"deadline_ms":-1,"interactions":-1})"));
    const auto done = h.await(1);
    h.session.fulfill(done[0].first, done[0].second);
    const auto lines = split_lines(h.pump());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
    EXPECT_EQ(lines[0].find("\"interactions\""), std::string::npos) << lines[0];

    // A request by features never reads "row", so any value there is unused.
    const auto x = scenario().data.x.row(7);
    std::string features;
    for (std::size_t j = 0; j < x.size(); ++j)
        features += (j ? "," : "") + serve::json_number(x[j]);
    h.session.handle(frame(R"({"op":"explain","row":1e300,"features":[)" + features + "]}"));
    const auto features_done = h.await(2);
    h.session.fulfill(features_done[1].first, features_done[1].second);
    const auto served = split_lines(h.pump());
    ASSERT_EQ(served.size(), 1u);
    EXPECT_NE(served[0].find("\"ok\":true"), std::string::npos) << served[0];
}

// ------------------------------------------------------------ transports ---

/// One script over every op and error class.  Each explain asks for its
/// first sighting of a row, so every answer is a miss or an error on any
/// schedule; the rid retry replays its original either way.
std::vector<std::string> script() {
    const auto& s = scenario();
    const auto features = [&](std::size_t row, std::size_t bad_index) {
        const auto x = s.data.x.row(row);
        std::string out;
        for (std::size_t j = 0; j < x.size(); ++j)
            out += (j ? "," : "") + (j == bad_index ? std::string("1e999")
                                                    : serve::json_number(x[j]));
        return out;
    };
    return {
        R"({"op":"explain","row":1})",
        R"({"op":"explain","seed":11,"method":"tree_shap","features":[)" +
            features(2, std::string::npos) + "]}",
        R"({"op":"explain","id":50,"rid":50,"row":3})",
        R"({"op":"explain","id":50,"rid":50,"row":3})",
        R"({"op":"explain","row":1)",
        R"({"op":"frobnicate"})",
        R"({"op":"explain","features":[1,2]})",
        R"({"op":"explain","features":[)" + features(4, 1) + "]}",
        R"({"op":"explain","row":5,"deadline_ms":0})",
        R"({"op":"explain","row":999999})",
        R"({"op":"explain","row":6,"method":"shapley_magic"})",
        R"({"op":"use","model":"canary"})",
        R"({"op":"explain","row":7})",
        R"({"op":"use","model":"ghost"})",
        R"({"op":"explain","row":8,"model":"ghost"})",
        R"({"op":"use","model":""})",
        R"({"op":"explain","row":9})",
        R"({"op":"models"})",
        R"({"op":"stats_reset"})",
        R"({"op":"explain","row":10,"model":"canary"})",
        R"({"op":"explain","row":1e300})",
        R"({"op":"quit"})",
        R"({"op":"explain","row":11})",
        R"({"op":"models"})",
    };
}

std::vector<std::string> over_stream(const std::vector<std::string>& lines) {
    auto service = make_service();
    std::string text;
    for (const auto& line : lines) text += line + "\n";
    std::istringstream in(text);
    std::ostringstream out;
    serve::serve_stream(in, out, *service, row_lookup, 1024);
    service->stop();
    return split_lines(out.str());
}

std::vector<std::string> over_tcp(const std::vector<std::string>& lines) {
    const auto& s = scenario();
    net::ServerConfig cfg;
    cfg.shards = 1;
    net::ShardedServer server(s.forest, s.background, service_config(), cfg);
    server.set_row_lookup(row_lookup);
    std::string error;
    if (!server.start(&error)) throw std::runtime_error("server start failed: " + error);
    std::thread loop([&server] { server.run(); });

    net::Client client;
    std::vector<std::string> got;
    if (client.connect("127.0.0.1", server.port(), &error)) {
        std::string text;
        for (const auto& line : lines) text += (text.empty() ? "" : "\n") + line;
        if (client.send_line(text)) {
            // `quit` closes the connection once every earlier answer is out.
            for (std::string line; client.recv_line(line, kTimeout);) got.push_back(line);
        }
        client.close();
    }
    server.request_drain();
    loop.join();
    server.stop_services();
    return got;
}

TEST(Session, StdinAndTcpAnswerOneScriptAlike) {
    const auto lines = script();
    const auto stream = over_stream(lines);
    const auto tcp = over_tcp(lines);
    // Every frame up to quit is answered; nothing after it.
    ASSERT_EQ(stream.size(), 21u);
    ASSERT_EQ(tcp.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(tcp[i], stream[i]) << "line " << i << " of the script";

    // The rid retry replays its original, computed once.
    EXPECT_EQ(stream[3], stream[2]);
    EXPECT_NE(stream[2].find("\"cache_hit\":false"), std::string::npos) << stream[2];
    EXPECT_NE(stream[11].find("\"op\":\"use\""), std::string::npos) << stream[11];
    EXPECT_NE(stream[13].find("unknown_model"), std::string::npos) << stream[13];
    EXPECT_NE(stream[18].find("\"op\":\"stats_reset\""), std::string::npos) << stream[18];
    EXPECT_EQ(serve::parse_json(stream[20]).get_string("error", ""),
              "\"row\" must be a whole number in range");
}

TEST(Session, StreamStopsReadingAtQuit) {
    auto service = make_service();
    std::istringstream in("{\"op\":\"explain\",\"row\":1}\n{\"op\":\"quit\"}\n"
                          "{\"op\":\"explain\",\"row\":2}\n");
    std::ostringstream out;
    serve::serve_stream(in, out, *service, row_lookup, 1024);
    service->stop();
    EXPECT_EQ(split_lines(out.str()).size(), 1u);
    std::string rest;
    ASSERT_TRUE(std::getline(in, rest));  // the line after quit was never read
    EXPECT_EQ(rest, "{\"op\":\"explain\",\"row\":2}");
}

TEST(Session, StreamKeepsItsWindowAgainstAFastProducer) {
    // A held dispatcher answers nothing, so a stream that read on would
    // queue every line, and overrun a queue no deeper than the window.
    const auto& s = scenario();
    serve::ServiceConfig cfg;
    cfg.queue_depth = serve::kStreamWindow;
    const auto gate = testutil::add_gate(cfg, s.data.x.cols());
    serve::ExplanationService service(s.forest, s.background, cfg);
    testutil::DispatcherHold hold(service, gate);
    constexpr std::size_t kLines = 3 * serve::kStreamWindow;
    std::string text;
    for (std::size_t i = 0; i < kLines; ++i)
        text += R"({"op":"explain","row":)" + std::to_string(i) + "}\n";
    std::istringstream in(text);
    std::ostringstream out;
    std::thread reader([&] { serve::serve_stream(in, out, service, row_lookup, 1024); });

    // The gate's request plus one full window, and then no further line.
    const auto deadline = std::chrono::steady_clock::now() + kTimeout;
    while (service.stats().requests_accepted < 1 + serve::kStreamWindow &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(100ms);
    const auto held = service.stats();
    EXPECT_EQ(held.requests_accepted, 1 + serve::kStreamWindow);
    EXPECT_EQ(held.requests_rejected, 0u);
    EXPECT_TRUE(hold.release().ok);
    reader.join();
    service.stop();

    const auto lines = split_lines(out.str());
    ASSERT_EQ(lines.size(), kLines);
    for (std::size_t i = 0; i < kLines; ++i) {
        const auto r = serve::parse_json(lines[i]);
        EXPECT_EQ(r.get_number("id", 0), static_cast<double>(i + 1));
        EXPECT_TRUE(r.find("ok")->boolean) << lines[i];
    }
}

TEST(Session, StreamAnswersALastLineWithoutNewline) {
    auto service = make_service();
    std::istringstream in("{\"op\":\"explain\",\"row\":1}\n{\"op\":\"explain\",\"row\":2}");
    std::ostringstream out;
    serve::serve_stream(in, out, *service, row_lookup, 1024);
    service->stop();
    const auto lines = split_lines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(serve::parse_json(lines[1]).get_number("id", 0), 2.0);
    EXPECT_TRUE(serve::parse_json(lines[1]).find("ok")->boolean);
}

}  // namespace
