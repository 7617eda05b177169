// Unit tests for the online explanation service building blocks: bounded
// queue backpressure, micro-batcher flush policies (with an explicit clock,
// so flush-by-timeout is deterministic), sharded LRU cache accounting,
// metrics, the ND-JSON codec, and the assembled ExplanationService.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/interaction.hpp"
#include "serve/batcher.hpp"
#include "serve/explanation_cache.hpp"
#include "serve/metrics.hpp"
#include "serve/ndjson.hpp"
#include "serve/request_queue.hpp"
#include "serve/service.hpp"

namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

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
    EXPECT_TRUE(queue.try_pop().has_value());
    EXPECT_EQ(queue.try_push(make_job(3)), serve::ServeError::none);
}

TEST(RequestQueue, PopsInFifoOrder) {
    serve::RequestQueue queue(8);
    for (std::uint64_t id = 1; id <= 4; ++id)
        ASSERT_EQ(queue.try_push(make_job(id)), serve::ServeError::none);
    for (std::uint64_t id = 1; id <= 4; ++id) {
        auto job = queue.try_pop();
        ASSERT_TRUE(job.has_value());
        EXPECT_EQ(job->request.id, id);
    }
    EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(RequestQueue, CloseRejectsNewButDrainsQueued) {
    serve::RequestQueue queue(4);
    ASSERT_EQ(queue.try_push(make_job(1)), serve::ServeError::none);
    queue.close();
    EXPECT_EQ(queue.try_push(make_job(2)), serve::ServeError::service_stopped);
    // Already-admitted work survives the close.
    auto job = queue.pop_wait(Clock::now() + microseconds(100));
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->request.id, 1u);
    // Drained + closed: pop returns immediately with nothing.
    EXPECT_FALSE(queue.pop_wait(Clock::now() + std::chrono::seconds(5)).has_value());
}

TEST(RequestQueue, PopWaitTimesOutOnEmptyQueue) {
    serve::RequestQueue queue(4);
    const auto start = Clock::now();
    EXPECT_FALSE(queue.pop_wait(start + std::chrono::milliseconds(20)).has_value());
    EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(19));
}

// -------------------------------------------------------------- batcher ---

TEST(MicroBatcher, FlushesBySize) {
    serve::MicroBatcher batcher({.max_batch = 3, .max_wait = microseconds(1000000)});
    const auto t0 = Clock::now();
    EXPECT_FALSE(batcher.add(make_job(1), t0));
    EXPECT_FALSE(batcher.add(make_job(2), t0));
    EXPECT_TRUE(batcher.add(make_job(3), t0));  // full -> caller must flush
    EXPECT_TRUE(batcher.due(t0));               // full batches are due immediately

    const auto batch = batcher.flush();
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].request.id, 1u);
    EXPECT_EQ(batch[2].request.id, 3u);
    EXPECT_EQ(batcher.pending(), 0u);
    EXPECT_FALSE(batcher.due(t0 + std::chrono::hours(1)));  // empty is never due
}

TEST(MicroBatcher, FlushesByTimeoutFromOldestPending) {
    serve::MicroBatcher batcher({.max_batch = 100, .max_wait = microseconds(200)});
    const auto t0 = Clock::now();
    EXPECT_FALSE(batcher.add(make_job(1), t0));
    // A later add does not restart the timer: deadline stays t0 + 200us.
    EXPECT_FALSE(batcher.add(make_job(2), t0 + microseconds(150)));
    ASSERT_TRUE(batcher.deadline().has_value());
    EXPECT_EQ(*batcher.deadline(), t0 + microseconds(200));

    EXPECT_FALSE(batcher.due(t0 + microseconds(199)));
    EXPECT_TRUE(batcher.due(t0 + microseconds(200)));
    EXPECT_EQ(batcher.flush().size(), 2u);
    EXPECT_FALSE(batcher.deadline().has_value());
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
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 2u);
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

/// Gate every model evaluation can block on — lets tests hold the dispatcher
/// inside a batch while they fill the queue behind it.
struct Gate {
    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    void wait() {
        std::unique_lock lock(m);
        cv.wait(lock, [this] { return open; });
    }
    void release() {
        {
            std::lock_guard lock(m);
            open = true;
        }
        cv.notify_all();
    }
};

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

}  // namespace

TEST(ExplanationService, ServesRequestsAndCountsCacheHits) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 4;
    cfg.max_wait = microseconds(100);
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
    cfg.max_wait = microseconds(0);
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
    cfg.max_wait = std::chrono::microseconds(50000);  // force one batch of 4
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    std::vector<std::future<serve::ExplainResponse>> futures;
    for (std::uint64_t id = 0; id < 4; ++id) {
        auto sub = service.submit(request_for(id, {5.0, 6.0, 7.0}));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);
        futures.push_back(std::move(sub.response));
    }
    std::vector<serve::ExplainResponse> responses;
    for (auto& f : futures) responses.push_back(f.get());

    // One computation, three batch-local hits, identical bytes everywhere.
    const auto stats = service.stats();
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
    cfg.max_wait = microseconds(50000);  // coalesce all three into one batch
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

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
    std::unique_lock lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return delivered.size() == 3; }));
    for (std::uint64_t id = 1; id <= 3; ++id) {
        EXPECT_EQ(delivered[id - 1].id, id);
        EXPECT_TRUE(delivered[id - 1].ok);
    }
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

// ----------------------------------- drift-triggered cache invalidation ---

namespace {

serve::ServiceConfig drift_config() {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 1;  // one request per batch: windows fill predictably
    cfg.max_wait = microseconds(100);
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

// ----------------------------------------- adaptive wait instrumentation ---

TEST(ExplanationService, AdaptiveWaitGaugeReportsCeilingWhenUnpressured) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_wait = microseconds(300);
    cfg.adaptive.slo_p99_us = 1e9;  // enabled, but unreachable SLO
    cfg.adaptive.min_wait = microseconds(10);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(request_for(1, {1.0, 2.0, 3.0})).ok);
    // No pressure: the effective wait equals the configured ceiling.
    EXPECT_EQ(service.stats().adaptive_wait_us, 300u);
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
