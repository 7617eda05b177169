// Unit tests for the online explanation service building blocks: bounded
// queue backpressure and batch pops, sharded LRU cache accounting, metrics,
// the ND-JSON codec, and the assembled ExplanationService (including how its
// work-conserving dispatcher forms batches).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/interaction.hpp"
#include "core/parallel.hpp"
#include "serve/explanation_cache.hpp"
#include "serve/metrics.hpp"
#include "serve/ndjson.hpp"
#include "serve/request_queue.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"

namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

using Clock = std::chrono::steady_clock;

namespace {

serve::Job make_job(std::uint64_t id) {
    serve::Job job;
    job.request.id = id;
    job.request.features = {1.0, 2.0, 3.0};
    job.enqueued_at = Clock::now();
    return job;
}

serve::CacheKey make_key(std::initializer_list<double> features, double quantum,
                         std::uint64_t context) {
    const std::vector<double> v(features);
    return serve::CacheKey(v, quantum, context);
}

xai::Explanation make_explanation(double value) {
    xai::Explanation e;
    e.method = "test";
    e.prediction = value;
    e.base_value = 0.5;
    e.attributions = {value, -value};
    return e;
}

}  // namespace

// ---------------------------------------------------------------- queue ---

TEST(RequestQueue, RejectsWithQueueFullWhenDepthReached) {
    serve::RequestQueue queue(2);
    EXPECT_EQ(queue.try_push(make_job(1)), serve::ServeError::none);
    EXPECT_EQ(queue.try_push(make_job(2)), serve::ServeError::none);
    EXPECT_EQ(queue.try_push(make_job(3)), serve::ServeError::queue_full);
    EXPECT_EQ(queue.size(), 2u);

    // Popping frees a slot.
    EXPECT_EQ(queue.pop_batch(1).size(), 1u);
    EXPECT_EQ(queue.try_push(make_job(3)), serve::ServeError::none);
}

TEST(RequestQueue, PopsInFifoOrder) {
    serve::RequestQueue queue(8);
    for (std::uint64_t id = 1; id <= 4; ++id)
        ASSERT_EQ(queue.try_push(make_job(id)), serve::ServeError::none);
    // A batch takes what is queued, in order, up to its cap.
    const auto first = queue.pop_batch(3);
    const auto rest = queue.pop_batch(3);
    ASSERT_EQ(first.size(), 3u);
    ASSERT_EQ(rest.size(), 1u);
    for (std::uint64_t id = 1; id <= 3; ++id) EXPECT_EQ(first[id - 1].request.id, id);
    EXPECT_EQ(rest[0].request.id, 4u);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, CloseRejectsNewButDrainsQueued) {
    serve::RequestQueue queue(4);
    ASSERT_EQ(queue.try_push(make_job(1)), serve::ServeError::none);
    queue.close();
    EXPECT_EQ(queue.try_push(make_job(2)), serve::ServeError::service_stopped);
    // Already-admitted work survives the close.
    auto batch = queue.pop_batch(4);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].request.id, 1u);
    // Drained + closed: pop returns immediately with nothing.
    EXPECT_TRUE(queue.pop_batch(4).empty());
}

// ---------------------------------------------------------------- cache ---

TEST(ExplanationCache, HitMissAndLruEviction) {
    serve::ExplanationCache cache(2, 1);  // one shard so eviction order is global
    const serve::CacheKey a = make_key({1.0}, 0.0, 7);
    const serve::CacheKey b = make_key({2.0}, 0.0, 7);
    const serve::CacheKey c = make_key({3.0}, 0.0, 7);

    EXPECT_FALSE(cache.lookup(a).has_value());  // miss
    cache.insert(a, make_explanation(1.0));
    cache.insert(b, make_explanation(2.0));
    ASSERT_TRUE(cache.lookup(a).has_value());  // refreshes a -> b is now LRU
    cache.insert(c, make_explanation(3.0));    // evicts b

    EXPECT_TRUE(cache.lookup(a).has_value());
    EXPECT_FALSE(cache.lookup(b).has_value());
    EXPECT_TRUE(cache.lookup(c).has_value());

    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(ExplanationCache, HitReturnsInsertedExplanation) {
    serve::ExplanationCache cache(8, 4);
    const serve::CacheKey key = make_key({0.25, -1.5}, 0.0, 42);
    cache.insert(key, make_explanation(0.75));
    const auto found = cache.lookup(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->prediction, 0.75);
    EXPECT_EQ(found->attributions, (std::vector<double>{0.75, -0.75}));
}

TEST(CacheKey, ExactModeDistinguishesBitPatterns) {
    const serve::CacheKey a = make_key({1.0, 2.0}, 0.0, 1);
    const serve::CacheKey same = make_key({1.0, 2.0}, 0.0, 1);
    const serve::CacheKey nudged = make_key({1.0, 2.0 + 1e-12}, 0.0, 1);
    const serve::CacheKey other_context = make_key({1.0, 2.0}, 0.0, 2);
    EXPECT_TRUE(a == same);
    EXPECT_FALSE(a == nudged);
    EXPECT_FALSE(a == other_context);
}

TEST(CacheKey, QuantizedModeBucketsNearbyValues) {
    const serve::CacheKey a = make_key({1.0001, 2.0}, 0.01, 1);
    const serve::CacheKey b = make_key({0.9999, 2.0049}, 0.01, 1);
    const serve::CacheKey far = make_key({1.02, 2.0}, 0.01, 1);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == far);
}

TEST(Fnv1a, MatchesPublishedVectors) {
    // Cache keys, model fingerprints, snapshot headers and fault draws are
    // all built from this hash, so it must never drift from FNV-1a 64.
    EXPECT_EQ(serve::hash_string(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(serve::hash_string("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(serve::hash_string("foobar"), 0x85944171f73967e8ULL);
}

TEST(ExplanationCache, ShardsSpreadAndStillEvictPerShard) {
    serve::ExplanationCache cache(8, 4);
    EXPECT_EQ(cache.num_shards(), 4u);
    for (int i = 0; i < 100; ++i)
        cache.insert(make_key({static_cast<double>(i)}, 0.0, 9),
                     make_explanation(i));
    // Each shard holds at most capacity/shards entries.
    EXPECT_LE(cache.size(), cache.capacity());
    EXPECT_GT(cache.stats().evictions, 0u);
}

// -------------------------------------------------------------- metrics ---

TEST(Metrics, HistogramQuantilesAndMean) {
    serve::Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 5050u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    // Geometric buckets: quantiles are approximate but must be ordered and
    // inside the recorded range.
    const double p50 = h.quantile(0.50), p95 = h.quantile(0.95), p99 = h.quantile(0.99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, 127.0);  // top bucket of 100 is [64, 127]
    EXPECT_EQ(serve::Histogram().quantile(0.99), 0.0);
}

TEST(Metrics, GaugeTracksHighWaterMark) {
    serve::Gauge g;
    g.set(3);
    g.set(10);
    g.set(2);
    EXPECT_EQ(g.value(), 2u);
    EXPECT_EQ(g.max(), 10u);
}

TEST(Metrics, StatsReportContainsEveryKeyFigure) {
    serve::ServiceStats s;
    s.requests_accepted = 12;
    s.cache_hits = 9;
    s.cache_misses = 3;
    s.service_us_p99 = 1234.5;
    const std::string report = s.to_string();
    EXPECT_NE(report.find("accepted 12"), std::string::npos);
    EXPECT_NE(report.find("hit-rate 0.750"), std::string::npos);
    EXPECT_NE(report.find("p99 1234.5"), std::string::npos);
    EXPECT_DOUBLE_EQ(s.cache_hit_rate(), 0.75);
}

TEST(Metrics, MergedSnapshotsEqualOneHistogramOverEverySample) {
    // Fixed geometric bounds make a snapshot merge exact: N shard histograms
    // merged must be indistinguishable from one histogram fed every sample.
    constexpr std::size_t kShards = 4;
    std::array<serve::Histogram, kShards> shards;
    serve::Histogram all;
    std::mt19937_64 rng(2020);
    for (std::size_t i = 0; i < 5000; ++i) {
        // Log-uniform over [0, 2^40): every bucket range gets exercised.
        const std::uint64_t v = rng() >> (24 + rng() % 40);
        shards[rng() % kShards].record(v);
        all.record(v);
    }
    serve::HistogramSnapshot merged;
    for (const auto& h : shards) merged.merge(h.snapshot());
    const auto want = all.snapshot();
    EXPECT_EQ(merged.buckets, want.buckets);
    EXPECT_EQ(merged.count, want.count);
    EXPECT_EQ(merged.sum, want.sum);
    EXPECT_EQ(merged.min, want.min);
    EXPECT_EQ(merged.max, want.max);
    for (const double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(merged.quantile(q), all.quantile(q)) << "q=" << q;
        EXPECT_EQ(merged.quantile(q), want.quantile(q)) << "q=" << q;
    }
    EXPECT_EQ(merged.mean(), all.mean());
    // Empty snapshots are the merge identity.
    serve::HistogramSnapshot empty;
    empty.merge(want);
    EXPECT_EQ(empty, want);
    empty.merge(serve::HistogramSnapshot{});
    EXPECT_EQ(empty, want);
}

TEST(Metrics, FleetMeansWeighEverySampleNotAProxyCount) {
    // probe_rows records only ok explanations and conn_requests only closed
    // connections, so weighting shard means by cache misses or by accepted
    // connections is wrong whenever errors or open connections exist.  The
    // merged snapshot must equal one recorder fed both shards' events.
    serve::ServiceMetrics a, b, all;
    const auto miss = [](serve::ServiceMetrics& m, std::uint64_t rows, bool ok) {
        m.inc(&serve::ServiceStats::cache_misses);
        if (ok) m.probe_rows.record(rows);
    };
    const auto conn = [](serve::ServiceMetrics& m, std::uint64_t requests, bool closed) {
        m.inc(&serve::ServiceStats::connections_accepted);
        if (closed) m.conn_requests.record(requests);
    };
    // Shard a: three ok explanations and seven errors; two connections
    // closed and three still open.  Shard b: everything ok and closed.
    for (const auto rows : {100u, 200u, 300u})
        for (auto* m : {&a, &all}) miss(*m, rows, true);
    for (int i = 0; i < 7; ++i)
        for (auto* m : {&a, &all}) miss(*m, 0, false);
    for (auto* m : {&b, &all}) miss(*m, 4000, true);
    for (const auto& [requests, closed] :
         {std::pair{2u, true}, {6u, true}, {1u, false}, {9u, false}, {5u, false}})
        for (auto* m : {&a, &all}) conn(*m, requests, closed);
    for (const auto requests : {40u, 50u, 60u})
        for (auto* m : {&b, &all}) conn(*m, requests, true);

    const std::vector<serve::ServiceStats> shards{a.snapshot(), b.snapshot()};
    const auto fleet = serve::merge_stats(shards);
    const auto want = all.snapshot();
    EXPECT_EQ(fleet.probe_rows_mean, (100.0 + 200.0 + 300.0 + 4000.0) / 4.0);
    EXPECT_EQ(fleet.probe_rows_mean, want.probe_rows_mean);
    EXPECT_EQ(fleet.probe_rows_p50, want.probe_rows_p50);
    EXPECT_EQ(fleet.probe_rows_max, 4000u);
    EXPECT_EQ(fleet.conn_requests_mean, (2.0 + 6.0 + 40.0 + 50.0 + 60.0) / 5.0);
    EXPECT_EQ(fleet.conn_requests_mean, want.conn_requests_mean);
    EXPECT_EQ(fleet.conn_requests_p50, want.conn_requests_p50);
    EXPECT_EQ(fleet.cache_misses, 11u);
    EXPECT_EQ(fleet.connections_accepted, 8u);
}

TEST(Metrics, MergeRulesFollowTheTable) {
    serve::ServiceMetrics a, b;
    a.queue_depth.set(7);
    a.queue_depth.set(2);
    b.queue_depth.set(5);
    auto sa = a.snapshot(), sb = b.snapshot();
    // Facts every shard reads from one shared object, or that the admin
    // fan-out copies to every shard, count once.
    sa.faults_injected = sb.faults_injected = 9;
    sa.models_registered = sb.models_registered = 2;
    sa.net_enabled = sb.net_enabled = true;
    sa.net_shards = sb.net_shards = 1;
    sa.net_faults_injected = sb.net_faults_injected = 4;
    sa.derive();
    sb.derive();
    const auto model = [](std::uint64_t admitted, std::uint64_t breaker_state) {
        serve::ModelServiceStats m;
        m.name = "m";
        m.admitted = admitted;
        m.swaps = 1;
        m.breaker_state = breaker_state;
        return m;
    };
    sa.models = {model(3, 2)};  // half-open
    sb.models = {model(4, 1)};  // open
    const std::vector<serve::ServiceStats> shards{sa, sb};
    const auto fleet = serve::merge_stats(shards);
    EXPECT_EQ(fleet.queue_depth, 7u);      // levels sum
    EXPECT_EQ(fleet.queue_depth_max, 7u);  // the deepest shard queue, not 12
    EXPECT_EQ(fleet.faults_injected, 9u);
    EXPECT_EQ(fleet.models_registered, 2u);
    EXPECT_EQ(fleet.net_shards, 2u);
    EXPECT_EQ(fleet.net_faults_injected, 4u);
    EXPECT_EQ(fleet.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::net_fault_injected)],
              4u);
    ASSERT_EQ(fleet.models.size(), 1u);
    EXPECT_EQ(fleet.models[0].admitted, 7u);
    EXPECT_EQ(fleet.models[0].swaps, 1u);
    EXPECT_EQ(fleet.models[0].breaker_state, 1u);  // open outranks half-open

    // Merging one shard returns its values unchanged, byte for byte.
    const std::vector<serve::ServiceStats> one{sa};
    EXPECT_EQ(serve::render_stats(serve::merge_stats(one)), serve::render_stats(sa));
}

// --------------------------------------------------------------- ndjson ---

TEST(NdJson, ParsesFlatRequestObjects) {
    const auto v = serve::parse_json(
        R"({"op":"explain","row":3,"seed":42,"features":[1.5,-2.0e1,0],"deep":{"a":true}})");
    EXPECT_EQ(v.get_string("op", ""), "explain");
    EXPECT_EQ(v.get_number("row", -1), 3.0);
    EXPECT_EQ(v.get_number("seed", 0), 42.0);
    const auto* features = v.find("features");
    ASSERT_NE(features, nullptr);
    ASSERT_EQ(features->array.size(), 3u);
    EXPECT_EQ(features->array[1].number, -20.0);
    ASSERT_NE(v.find("deep"), nullptr);
    EXPECT_TRUE(v.find("deep")->find("a")->boolean);
    EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(NdJson, ParsesEscapesAndRejectsGarbage) {
    EXPECT_EQ(serve::parse_json(R"("a\"b\nA")").string, "a\"b\nA");
    EXPECT_THROW((void)serve::parse_json("{"), std::runtime_error);
    EXPECT_THROW((void)serve::parse_json("{} trailing"), std::runtime_error);
    EXPECT_THROW((void)serve::parse_json("{\"a\":nope}"), std::runtime_error);
    EXPECT_THROW((void)serve::parse_json(""), std::runtime_error);
}

TEST(NdJson, NumbersRoundTripBitwise) {
    for (const double v : {0.0, -0.0, 1.0 / 3.0, 6.02e23, -1.7976931348623157e308,
                           5e-324, 0.063333333333333339}) {
        const std::string text = serve::json_number(v);
        const auto parsed = serve::parse_json(text);
        EXPECT_EQ(parsed.number, v) << text;
    }
    EXPECT_EQ(serve::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(NdJson, WriterEmitsValidEscapedJson) {
    serve::JsonWriter w;
    w.field("ok", true);
    w.field("id", std::uint64_t{7});
    w.field("msg", "line1\nline2 \"quoted\"");
    w.field_array("xs", {1.0, 2.5});
    const std::string out = w.finish();
    const auto parsed = serve::parse_json(out);
    EXPECT_TRUE(parsed.find("ok")->boolean);
    EXPECT_EQ(parsed.get_number("id", 0), 7.0);
    EXPECT_EQ(parsed.get_string("msg", ""), "line1\nline2 \"quoted\"");
    EXPECT_EQ(parsed.find("xs")->array[1].number, 2.5);
}

// -------------------------------------------------------------- service ---

namespace {

using xnfv::testutil::add_gate;
using xnfv::testutil::DispatcherHold;
using xnfv::testutil::Gate;

std::shared_ptr<const ml::Model> sum_model() {
    return std::make_shared<ml::LambdaModel>(3, [](std::span<const double> x) {
        return 0.25 * x[0] + 0.5 * x[1] - x[2];
    });
}

xai::BackgroundData tiny_background() {
    return xai::BackgroundData(
        ml::Matrix::from_rows({{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}, {2.0, 0.5, -1.0}}));
}

serve::ExplainRequest request_for(std::uint64_t id, std::vector<double> features) {
    serve::ExplainRequest r;
    r.id = id;
    r.features = std::move(features);
    return r;
}

/// sum_model(), except that predict throws when x[0] is 4: a real compute
/// failure for any request whose first feature is 4.
std::shared_ptr<const ml::Model> fails_on_four_model() {
    return std::make_shared<ml::LambdaModel>(3, [](std::span<const double> x) {
        if (x[0] == 4.0) throw std::runtime_error("predict failed");
        return 0.25 * x[0] + 0.5 * x[1] - x[2];
    });
}

}  // namespace

TEST(ExplanationService, ServesRequestsAndCountsCacheHits) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 4;
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    const auto first = service.explain_sync(request_for(1, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(first.ok);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_EQ(first.explanation.method, "occlusion");
    EXPECT_EQ(first.explanation.attributions.size(), 3u);

    const auto repeat = service.explain_sync(request_for(2, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(repeat.ok);
    EXPECT_TRUE(repeat.cache_hit);

    const auto other = service.explain_sync(request_for(3, {9.0, 2.0, 3.0}));
    ASSERT_TRUE(other.ok);
    EXPECT_FALSE(other.cache_hit);

    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_accepted, 3u);
    EXPECT_EQ(stats.requests_completed, 3u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 2u);
    EXPECT_EQ(stats.cache_entries, 2u);
    EXPECT_GE(stats.batches, 1u);
}

TEST(ExplanationService, RejectsBadRequestsUpFront) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    auto wrong_arity = service.submit(request_for(1, {1.0}));
    EXPECT_EQ(wrong_arity.rejected, serve::ServeError::bad_request);

    auto bad_method = request_for(2, {1.0, 2.0, 3.0});
    bad_method.method = "astrology";
    EXPECT_EQ(service.submit(std::move(bad_method)).rejected,
              serve::ServeError::bad_request);

    // The sync wrapper surfaces the reason as an error response.
    const auto r = service.explain_sync(request_for(3, {1.0}));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("bad_request"), std::string::npos);
    EXPECT_EQ(service.stats().requests_rejected, 3u);
}

TEST(ExplanationService, BackpressureRejectsWhenQueueIsFull) {
    auto gate = std::make_shared<Gate>();
    auto model = std::make_shared<ml::LambdaModel>(3, [gate](std::span<const double> x) {
        gate->wait();
        return x[0];
    });

    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.queue_depth = 2;
    cfg.max_batch = 1;       // dispatcher commits to a batch per request
    cfg.threads = 1;         // compute runs inline on the dispatcher thread
    serve::ExplanationService service(model, tiny_background(), cfg);

    // First request: wait until the dispatcher has pulled it into a batch
    // (queue drained) and is blocked on the gate inside the model.
    auto inflight = service.submit(request_for(1, {1.0, 2.0, 3.0}));
    ASSERT_EQ(inflight.rejected, serve::ServeError::none);
    while (service.stats().queue_depth != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Fill the queue behind the stuck batch, then overflow it.
    auto q1 = service.submit(request_for(2, {1.0, 2.0, 3.0}));
    auto q2 = service.submit(request_for(3, {2.0, 2.0, 3.0}));
    ASSERT_EQ(q1.rejected, serve::ServeError::none);
    ASSERT_EQ(q2.rejected, serve::ServeError::none);
    auto overflow = service.submit(request_for(4, {3.0, 2.0, 3.0}));
    EXPECT_EQ(overflow.rejected, serve::ServeError::queue_full);

    gate->release();
    EXPECT_TRUE(inflight.response.get().ok);
    EXPECT_TRUE(q1.response.get().ok);
    EXPECT_TRUE(q2.response.get().ok);

    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_rejected, 1u);
    EXPECT_EQ(stats.requests_completed, 3u);
    EXPECT_EQ(stats.queue_depth_max, 2u);
}

TEST(ExplanationService, StopDrainsQueuedWorkThenRejects) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 8;
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    std::vector<std::future<serve::ExplainResponse>> futures;
    for (std::uint64_t id = 0; id < 8; ++id) {
        auto sub = service.submit(request_for(id, {static_cast<double>(id), 0.0, 1.0}));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);
        futures.push_back(std::move(sub.response));
    }
    service.stop();  // must serve everything already admitted
    for (auto& f : futures) EXPECT_TRUE(f.get().ok);

    EXPECT_EQ(service.submit(request_for(99, {1.0, 2.0, 3.0})).rejected,
              serve::ServeError::service_stopped);
}

TEST(ExplanationService, DuplicateRequestsWithinOneBatchComputeOnce) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 4;
    const auto gate = add_gate(cfg, 3);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    // All four queue behind a held dispatcher, so they form one batch.  The
    // holder's own cache miss and batch are counted before it reaches the
    // gate; the reset leaves only the duplicates in the counters.
    DispatcherHold hold(service, gate);
    service.stats_reset();
    std::vector<std::future<serve::ExplainResponse>> futures;
    for (std::uint64_t id = 0; id < 4; ++id) {
        auto sub = service.submit(request_for(id, {5.0, 6.0, 7.0}));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);
        futures.push_back(std::move(sub.response));
    }
    ASSERT_TRUE(hold.release().ok);
    std::vector<serve::ExplainResponse> responses;
    for (auto& f : futures) responses.push_back(f.get());

    // One batch, one computation, three batch-local hits, identical bytes
    // everywhere.
    const auto stats = service.stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batch_size.max, 4u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.cache_hits, 3u);
    for (const auto& r : responses) {
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.explanation.attributions.size(), 3u);
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(r.explanation.attributions[j],
                      responses[0].explanation.attributions[j]);
    }
}

// ------------------------------------------- async completion channel ---

TEST(ExplanationService, SubmitAsyncDeliversInAdmissionOrder) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 8;
    const auto gate = add_gate(cfg, 3);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    // All three queue behind a held dispatcher, so they form one batch.
    DispatcherHold hold(service, gate);
    std::mutex m;
    std::condition_variable cv;
    std::vector<serve::ExplainResponse> delivered;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        const auto rejected = service.submit_async(
            request_for(id, {static_cast<double>(id), 0.0, 1.0}),
            [&](serve::ExplainResponse r) {
                const std::lock_guard lock(m);
                delivered.push_back(std::move(r));
                cv.notify_one();
            });
        ASSERT_EQ(rejected, serve::ServeError::none);
    }
    ASSERT_TRUE(hold.release().ok);
    std::unique_lock lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return delivered.size() == 3; }));
    for (std::uint64_t id = 1; id <= 3; ++id) {
        EXPECT_EQ(delivered[id - 1].id, id);
        EXPECT_TRUE(delivered[id - 1].ok);
    }
    EXPECT_EQ(service.stats().batches, 2u);  // the held request, then all three
}

// ------------------------------------------ work-conserving dispatch ---

TEST(ExplanationService, JobsQueuedBehindABusyDispatcherRunAsFullBatches) {
    // The dispatcher waits only for a first job, then takes every job already
    // queued, up to max_batch; no timer is involved.  Six jobs queued behind
    // a held one therefore run as batches of 4 and 2.
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 4;
    const auto gate = add_gate(cfg, 3);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    DispatcherHold hold(service, gate);
    std::vector<std::future<serve::ExplainResponse>> futures;
    for (std::uint64_t id = 1; id <= 6; ++id) {
        auto sub = service.submit(request_for(id, {static_cast<double>(id), 0.0, 1.0}));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);
        futures.push_back(std::move(sub.response));
    }
    EXPECT_TRUE(hold.release().ok);
    for (auto& f : futures) EXPECT_TRUE(f.get().ok);

    // Batch sizes 1 (the held job), 4 and 2.
    const auto stats = service.stats();
    EXPECT_EQ(stats.batches, 3u);
    EXPECT_EQ(stats.batch_size.count, 3u);
    EXPECT_EQ(stats.batch_size.min, 1u);
    EXPECT_EQ(stats.batch_size.max, 4u);
    EXPECT_EQ(stats.batch_size.sum, 7u);
}

TEST(ExplanationService, SubmitAsyncRejectsWithoutInvokingCallback) {
    serve::ExplanationService service(sum_model(), tiny_background(), {});
    std::atomic<int> calls{0};
    // Wrong arity: rejected at the door, callback never fires.
    const auto rejected = service.submit_async(
        request_for(1, {1.0}), [&](serve::ExplainResponse) { ++calls; });
    EXPECT_EQ(rejected, serve::ServeError::bad_request);

    serve::ExplainRequest expired = request_for(2, {1.0, 2.0, 3.0});
    expired.deadline_ms = 0;
    EXPECT_EQ(service.submit_async(std::move(expired),
                                   [&](serve::ExplainResponse) { ++calls; }),
              serve::ServeError::deadline_exceeded);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(calls.load(), 0);
}

// ------------------------------------------------ cache hits at admission ---

TEST(ExplanationService, CacheHitIsAnsweredInsideSubmitAsync) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    const auto dispatched = service.explain_sync(request_for(7, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(dispatched.ok);
    ASSERT_FALSE(dispatched.cache_hit);
    service.stats_reset();

    // In process: the callback runs on this thread before submit_async returns.
    std::optional<serve::ExplainResponse> inline_answer;
    std::thread::id ran_on;
    ASSERT_EQ(service.submit_async(request_for(7, {1.0, 2.0, 3.0}),
                                   [&](serve::ExplainResponse r) {
                                       ran_on = std::this_thread::get_id();
                                       inline_answer = std::move(r);
                                   }),
              serve::ServeError::none);
    ASSERT_TRUE(inline_answer.has_value());
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    EXPECT_TRUE(inline_answer->cache_hit);
    inline_answer->cache_hit = false;
    EXPECT_EQ(serve::render_response(*inline_answer), serve::render_response(dispatched));

    // With an out-parameter, as the TCP server passes it: the hit comes back
    // there and the callback never runs.
    std::optional<serve::ExplainResponse> handed_back;
    std::atomic<int> calls{0};
    ASSERT_EQ(service.submit_async(request_for(7, {1.0, 2.0, 3.0}),
                                   [&](serve::ExplainResponse) { ++calls; }, &handed_back),
              serve::ServeError::none);
    ASSERT_TRUE(handed_back.has_value());
    EXPECT_EQ(calls.load(), 0);
    EXPECT_TRUE(handed_back->cache_hit);
    handed_back->cache_hit = false;
    EXPECT_EQ(serve::render_response(*handed_back), serve::render_response(dispatched));

    // Counted as dispatched hits are, but never as a batch.
    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_accepted, 2u);
    EXPECT_EQ(stats.requests_completed, 2u);
    EXPECT_EQ(stats.cache_hits, 2u);
    EXPECT_EQ(stats.cache_misses, 0u);
    EXPECT_EQ(stats.service_time_us.count, 2u);
    EXPECT_EQ(stats.batches, 0u);
    EXPECT_EQ(stats.batch_size.count, 0u);
    // Per-model counters survive stats_reset: the dispatched miss and two hits.
    ASSERT_EQ(stats.models.size(), 1u);
    EXPECT_EQ(stats.models[0].admitted, 3u);
    EXPECT_EQ(stats.models[0].completed, 3u);
}

namespace {

/// How a repeat of cached_request() fares: the rejection, and whether it
/// was answered from the cache at admission.
struct Repeat {
    serve::ServeError rejected = serve::ServeError::none;
    bool answered_from_cache = false;
};

/// The request each case caches first, under `model` ("" = default).
serve::ExplainRequest cached_request(const std::string& model = "") {
    auto r = request_for(1, {1.0, 2.0, 3.0});
    r.model = model;
    return r;
}

Repeat repeat_cached(serve::ExplanationService& service, const std::string& model = "") {
    Repeat out;
    std::optional<serve::ExplainResponse> hit;
    std::atomic<int> calls{0};
    out.rejected = service.submit_async(cached_request(model),
                                        [&](serve::ExplainResponse) { ++calls; }, &hit);
    out.answered_from_cache = hit.has_value() && hit->ok && hit->cache_hit;
    EXPECT_EQ(calls.load(), 0);  // a hit comes back through `hit`; a rejection not at all
    return out;
}

}  // namespace

TEST(ExplanationService, CachedKeyIsRejectedAfterStop) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(cached_request()).ok);
    ASSERT_TRUE(repeat_cached(service).answered_from_cache);

    service.stop();
    const Repeat after = repeat_cached(service);
    EXPECT_EQ(after.rejected, serve::ServeError::service_stopped);
    EXPECT_FALSE(after.answered_from_cache);
}

TEST(ExplanationService, CachedKeyIsRejectedWhileTheBreakerIsOpen) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.breaker.window = 2;
    cfg.breaker.error_threshold = 0.5;
    cfg.breaker.cooldown = std::chrono::minutes(10);
    serve::ExplanationService service(fails_on_four_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(cached_request()).ok);

    // A request whose model evaluation throws fails, and fills the
    // two-outcome window at one error in two: the breaker opens.
    EXPECT_EQ(service.explain_sync(request_for(2, {4.0, 5.0, 6.0})).error_code,
              serve::ServeError::internal_error);
    ASSERT_EQ(service.stats().models[0].breaker_state, 1u);

    const Repeat repeat = repeat_cached(service);
    EXPECT_EQ(repeat.rejected, serve::ServeError::circuit_open);
    EXPECT_FALSE(repeat.answered_from_cache);
}

// The breaker counts compute outcomes only (DESIGN.md §15): a method the
// model cannot run and a job that expired in the queue leave its window
// alone.
TEST(ExplanationService, UnsupportedMethodRequestsDoNotTripTheBreaker) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.breaker.window = 4;
    cfg.breaker.error_threshold = 0.5;
    cfg.breaker.cooldown = std::chrono::seconds(5);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    for (std::uint64_t id = 1; id <= 4; ++id) {
        auto forced = request_for(id, {static_cast<double>(id), 0.0, 0.0});
        forced.method = "tree_shap";
        EXPECT_EQ(service.explain_sync(std::move(forced)).error_code,
                  serve::ServeError::unsupported_explainer);
    }
    for (const char* method : {"auto", "occlusion"}) {
        auto valid = request_for(10, {1.0, 2.0, 3.0});
        valid.method = method;
        EXPECT_TRUE(service.explain_sync(std::move(valid)).ok) << method;
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.models[0].breaker_state, 0u);
    EXPECT_EQ(stats.models[0].breaker_opens, 0u);
    EXPECT_EQ(stats.models[0].breaker_rejected, 0u);
}

TEST(ExplanationService, QueueExpiredJobLeavesTheBreakerWindowAlone) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.breaker.window = 2;
    cfg.breaker.error_threshold = 0.5;
    cfg.breaker.cooldown = std::chrono::minutes(10);
    const auto gate = add_gate(cfg, 3);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    {
        DispatcherHold hold(service, gate);
        auto expiring = request_for(1, {1.0, 2.0, 3.0});
        expiring.deadline_ms = 1;
        auto sub = service.submit(std::move(expiring));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ASSERT_TRUE(hold.release().ok);
        EXPECT_EQ(sub.response.get().error_code, serve::ServeError::deadline_exceeded);
    }
    // Had the expiry counted, this success would complete a two-outcome
    // window at one error in two, and the breaker would open.
    EXPECT_TRUE(service.explain_sync(request_for(2, {2.0, 2.0, 3.0})).ok);
    const auto stats = service.stats();
    EXPECT_EQ(stats.models[0].breaker_state, 0u);
    EXPECT_EQ(stats.models[0].breaker_opens, 0u);
}

TEST(ExplanationService, UnsupportedHalfOpenProbeLetsTheNextRequestProbe) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.breaker.window = 2;
    cfg.breaker.error_threshold = 0.5;
    cfg.breaker.cooldown = std::chrono::milliseconds(20);
    serve::ExplanationService service(fails_on_four_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(request_for(1, {1.0, 2.0, 3.0})).ok);
    ASSERT_FALSE(service.explain_sync(request_for(2, {4.0, 5.0, 6.0})).ok);
    ASSERT_EQ(service.stats().models[0].breaker_state, 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));

    // The cooldown is over: the unsupported request is admitted as the
    // half-open probe, and its answer releases the probe.
    auto forced = request_for(3, {2.0, 2.0, 3.0});
    forced.method = "tree_shap";
    EXPECT_EQ(service.explain_sync(std::move(forced)).error_code,
              serve::ServeError::unsupported_explainer);
    EXPECT_EQ(service.stats().models[0].breaker_state, 2u);
    // So the next request probes, and its success closes the breaker.
    EXPECT_TRUE(service.explain_sync(request_for(4, {3.0, 2.0, 3.0})).ok);
    const auto stats = service.stats();
    EXPECT_EQ(stats.models[0].breaker_state, 0u);
    EXPECT_EQ(stats.models[0].breaker_opens, 1u);
}

TEST(ExplanationService, CachedKeyIsAnsweredWhileTheQueueIsFull) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.queue_depth = 2;
    const auto gate = add_gate(cfg, 3);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(cached_request()).ok);

    DispatcherHold hold(service, gate);
    auto q1 = service.submit(request_for(2, {4.0, 0.0, 0.0}));
    auto q2 = service.submit(request_for(3, {5.0, 0.0, 0.0}));
    ASSERT_EQ(q1.rejected, serve::ServeError::none);
    ASSERT_EQ(q2.rejected, serve::ServeError::none);
    ASSERT_EQ(service.submit(request_for(4, {6.0, 0.0, 0.0})).rejected,
              serve::ServeError::queue_full);

    // A hit takes no queue slot.
    const Repeat repeat = repeat_cached(service);
    EXPECT_EQ(repeat.rejected, serve::ServeError::none);
    EXPECT_TRUE(repeat.answered_from_cache);

    ASSERT_TRUE(hold.release().ok);
    EXPECT_TRUE(q1.response.get().ok);
    EXPECT_TRUE(q2.response.get().ok);
}

TEST(ExplanationService, CachedKeyIsAnsweredWhileItsQuotaIsSpent) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.extra_models.push_back({"capped", sum_model(), 1, 1});
    const auto gate = add_gate(cfg, 3);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(cached_request("capped")).ok);

    DispatcherHold hold(service, gate);
    auto queued = request_for(2, {4.0, 0.0, 0.0});
    queued.model = "capped";
    auto over = request_for(3, {5.0, 0.0, 0.0});
    over.model = "capped";
    auto q1 = service.submit(std::move(queued));
    ASSERT_EQ(q1.rejected, serve::ServeError::none);
    ASSERT_EQ(service.submit(std::move(over)).rejected, serve::ServeError::quota_exceeded);

    // A hit takes no slot of the model's quota.
    const Repeat repeat = repeat_cached(service, "capped");
    EXPECT_EQ(repeat.rejected, serve::ServeError::none);
    EXPECT_TRUE(repeat.answered_from_cache);

    ASSERT_TRUE(hold.release().ok);
    EXPECT_TRUE(q1.response.get().ok);
}

// -------------------------------------------------------------- threads ---

namespace {

/// Threads of this process, counted in /proc/self/task.
std::size_t thread_count() {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

/// thread_count() once it equals `want`, or after 5 s of polling: a joined
/// thread can linger in /proc for a moment after join() returns.
std::size_t settled_thread_count(std::size_t want) {
    const auto give_up = Clock::now() + std::chrono::seconds(5);
    std::size_t n = thread_count();
    while (n != want && Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        n = thread_count();
    }
    return n;
}

}  // namespace

TEST(ExplanationService, RunsOneThreadPlusOneForPeriodicSnapshots) {
    (void)xnfv::detail::shared_pool();  // start the lazy pool so it does not count
    const std::size_t base = thread_count();
    {
        serve::ExplanationService service(sum_model(), tiny_background());
        EXPECT_EQ(thread_count(), base + 1);  // the dispatcher
        service.stop();
        EXPECT_EQ(settled_thread_count(base), base);
    }
    serve::ServiceConfig cfg;
    cfg.snapshot_path = ::testing::TempDir() + "xnfv_service_threads.bin";
    cfg.snapshot_interval = std::chrono::milliseconds(1000);
    {
        serve::ExplanationService service(sum_model(), tiny_background(), cfg);
        EXPECT_EQ(thread_count(), base + 2);  // the dispatcher and the snapshot thread
        service.stop();
        EXPECT_EQ(settled_thread_count(base), base);
    }
    std::remove(cfg.snapshot_path.c_str());
}

// ----------------------------------- drift-triggered cache invalidation ---

namespace {

serve::ServiceConfig drift_config() {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 1;  // one request per batch: windows fill predictably
    cfg.drift_window = 2;
    return cfg;
}

}  // namespace

TEST(ExplanationService, DriftBumpsCacheEpochAndCountsFlush) {
    serve::ExplanationService service(sum_model(), tiny_background(),
                                      drift_config());
    // Reference window: all attribution mass on feature 2.
    ASSERT_TRUE(service.explain_sync(request_for(1, {0.0, 0.0, 50.0})).ok);
    ASSERT_TRUE(service.explain_sync(request_for(2, {0.0, 0.0, 60.0})).ok);
    EXPECT_EQ(service.cache_epoch(), 0u);
    // Current window: mass moves to feature 0 — ranking flips, mass shifts.
    ASSERT_TRUE(service.explain_sync(request_for(3, {50.0, 0.0, 0.0})).ok);
    ASSERT_TRUE(service.explain_sync(request_for(4, {60.0, 0.0, 0.0})).ok);

    const auto stats = service.stats();
    EXPECT_EQ(stats.drift_checks, 1u);
    EXPECT_EQ(stats.drift_flushes, 1u);
    EXPECT_EQ(stats.cache_epoch, 1u);
    EXPECT_EQ(service.cache_epoch(), 1u);

    // The epoch is mixed into every cache key: a pre-drift repeat misses and
    // is recomputed against the new epoch instead of returning stale bytes.
    const auto repeat = service.explain_sync(request_for(5, {0.0, 0.0, 50.0}));
    ASSERT_TRUE(repeat.ok);
    EXPECT_FALSE(repeat.cache_hit);
    EXPECT_EQ(service.stats().cache_misses, 5u);
}

TEST(ExplanationService, StableTrafficNeverFlushes) {
    serve::ExplanationService service(sum_model(), tiny_background(),
                                      drift_config());
    // Four near-identical instances: same ranking, tiny mass shift.
    ASSERT_TRUE(service.explain_sync(request_for(1, {1.0, 2.0, 3.0})).ok);
    ASSERT_TRUE(service.explain_sync(request_for(2, {1.1, 2.1, 3.1})).ok);
    ASSERT_TRUE(service.explain_sync(request_for(3, {0.9, 1.9, 2.9})).ok);
    ASSERT_TRUE(service.explain_sync(request_for(4, {1.2, 2.2, 3.2})).ok);

    const auto stats = service.stats();
    EXPECT_EQ(stats.drift_checks, 1u);
    EXPECT_EQ(stats.drift_flushes, 0u);
    EXPECT_EQ(stats.cache_epoch, 0u);

    // Cache behaves normally: an exact repeat still hits.
    const auto repeat = service.explain_sync(request_for(5, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(repeat.ok);
    EXPECT_TRUE(repeat.cache_hit);
}

TEST(ExplanationService, CacheHitsDoNotAdvanceDriftWindows) {
    serve::ExplanationService service(sum_model(), tiny_background(),
                                      drift_config());
    ASSERT_TRUE(service.explain_sync(request_for(1, {0.0, 0.0, 50.0})).ok);
    // Repeats are cache hits — not fresh computations — so the reference
    // window must still be half-filled and no check can have run.
    for (std::uint64_t id = 2; id <= 6; ++id)
        ASSERT_TRUE(service.explain_sync(request_for(id, {0.0, 0.0, 50.0})).ok);
    const auto stats = service.stats();
    EXPECT_EQ(stats.cache_hits, 5u);
    EXPECT_EQ(stats.drift_checks, 0u);
    EXPECT_EQ(stats.cache_epoch, 0u);
}

// ------------------------------------------- interaction-aware serving ---

TEST(ExplanationService, ServedInteractionsMatchOneShotFriedmanH2) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    auto req = request_for(1, {1.0, 2.0, 3.0});
    req.interactions = 2;
    const auto r = service.explain_sync(std::move(req));
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.explanation.interactions.size(), 2u);

    // Every served pair must be bitwise what the one-shot API computes for
    // the same (model, background, points) — the serving path may not add
    // sampling, reordering, or precision differences.
    const auto model = sum_model();
    const auto background = tiny_background();
    const xai::InteractionOptions opt{cfg.interaction_points};
    for (const auto& p : r.explanation.interactions) {
        ASSERT_LT(p.i, p.j);
        EXPECT_EQ(p.h2, xai::friedman_h2(*model, background, p.i, p.j, opt))
            << "pair (" << p.i << "," << p.j << ")";
    }
    // Strongest-first, and asking for more pairs than exist truncates.
    EXPECT_GE(r.explanation.interactions[0].h2, r.explanation.interactions[1].h2);
    auto req_all = request_for(2, {4.0, 5.0, 6.0});
    req_all.interactions = 100;
    const auto all = service.explain_sync(std::move(req_all));
    ASSERT_TRUE(all.ok);
    EXPECT_EQ(all.explanation.interactions.size(), 3u);  // C(3,2)
}

TEST(ExplanationService, InteractionRequestsHaveTheirOwnCacheKeys) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    const auto plain = service.explain_sync(request_for(1, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(plain.ok);
    EXPECT_TRUE(plain.explanation.interactions.empty());
    const std::string plain_bytes = serve::render_response(plain);

    // Same features with interactions on must MISS (different key) and
    // carry the pairs.
    auto with = request_for(1, {1.0, 2.0, 3.0});
    with.interactions = 1;
    const auto enriched = service.explain_sync(std::move(with));
    ASSERT_TRUE(enriched.ok);
    EXPECT_FALSE(enriched.cache_hit);
    ASSERT_EQ(enriched.explanation.interactions.size(), 1u);
    EXPECT_NE(serve::render_response(enriched).find("\"interactions\""),
              std::string::npos);

    // A later k=0 request hits the original entry and renders byte-identical
    // to the first response — the regression pin that opting OUT of
    // interactions leaves the pre-existing wire format and cache keys
    // untouched.
    const auto replay = service.explain_sync(request_for(1, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(replay.ok);
    EXPECT_TRUE(replay.cache_hit);
    serve::ExplainResponse replay_normalized = replay;
    replay_normalized.cache_hit = false;
    EXPECT_EQ(serve::render_response(replay_normalized), plain_bytes);
    EXPECT_EQ(plain_bytes.find("\"interactions\""), std::string::npos);
}

// ------------------------------------------------------- stats_reset op ---

TEST(ExplanationService, StatsResetZerosCountersButKeepsCacheEntries) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(request_for(1, {1.0, 2.0, 3.0})).ok);
    ASSERT_TRUE(service.explain_sync(request_for(2, {1.0, 2.0, 3.0})).ok);

    auto stats = service.stats();
    EXPECT_EQ(stats.requests_completed, 2u);
    EXPECT_EQ(stats.cache_hits, 1u);

    service.stats_reset();
    stats = service.stats();
    EXPECT_EQ(stats.requests_accepted, 0u);
    EXPECT_EQ(stats.requests_completed, 0u);
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 0u);
    EXPECT_EQ(stats.batches, 0u);

    // Counters are a measurement window; the cache itself is state and
    // survives, so the next repeat still hits (and is counted afresh).
    const auto after = service.explain_sync(request_for(3, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(after.ok);
    EXPECT_TRUE(after.cache_hit);
    EXPECT_EQ(service.stats().cache_hits, 1u);
}

// ------------------------------------------------- histogram tail fix ---

TEST(Histogram, QuantileReachesObservedMaxAboveTopGeometricBucket) {
    // bucket_of clamps bit_width to the last bucket, whose nominal range
    // tops out at 2^63-1; samples beyond it used to be interpolated against
    // that nominal bound, under-reporting heavy tails by up to 2x.  The
    // recorded max is the true upper edge.
    serve::Histogram h;
    for (int i = 0; i < 100; ++i) h.record(UINT64_MAX);
    EXPECT_EQ(h.max(), UINT64_MAX);
    EXPECT_GE(h.quantile(0.99), 0.9 * static_cast<double>(UINT64_MAX));
    // And no quantile may exceed an observed sample in inner buckets either.
    serve::Histogram inner;
    for (int i = 0; i < 10; ++i) inner.record(100);
    EXPECT_LE(inner.quantile(0.99), 100.0);
}
