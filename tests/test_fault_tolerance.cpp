// Fault-tolerance tests for the serving layer: cooperative cancellation and
// per-request deadlines, the graceful-degradation ladder, the deterministic
// fault injector, dispatcher stall counting, queue shutdown races, and the
// chaos acceptance run — 1k requests under injected predict faults, with
// every non-faulted response bitwise identical to a fault-free run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/budget.hpp"
#include "mlcore/model.hpp"
#include "serve/degradation.hpp"
#include "serve/errors.hpp"
#include "serve/fault_injector.hpp"
#include "serve/ndjson.hpp"
#include "serve/request_queue.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"

namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;
using std::chrono::milliseconds;

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

constexpr auto fp = [](serve::FaultPoint p) { return static_cast<std::size_t>(p); };

}  // namespace

// ---------------------------------------------------------- cancel token ---

TEST(CancelToken, DefaultNeverFires) {
    xai::CancelToken token;
    EXPECT_FALSE(token.expired());
    EXPECT_NO_THROW(token.check());
    EXPECT_NO_THROW(xai::check_budget(&token));
    EXPECT_NO_THROW(xai::check_budget(nullptr));
}

TEST(CancelToken, ManualCancelFires) {
    xai::CancelToken token;
    token.cancel();
    EXPECT_TRUE(token.expired());
    EXPECT_THROW(token.check(), xai::BudgetExceeded);
}

TEST(CancelToken, DeadlineFiresOncePassed) {
    xai::CancelToken token;
    token.set_deadline(Clock::now() + std::chrono::hours(1));
    EXPECT_FALSE(token.expired());
    token.set_deadline(Clock::now() - milliseconds(1));
    EXPECT_TRUE(token.expired());
}

TEST(CancelToken, AbortsKernelShapMidFlight) {
    xai::CancelToken token;
    token.cancel();
    serve::ExplainerLimits limits;
    limits.cancel = &token;
    const auto bg = tiny_background();
    auto explainer = serve::make_explainer("kernel_shap", bg, 7, 1, limits);
    const std::vector<double> x = {1.0, 2.0, 3.0};
    const auto model = sum_model();
    EXPECT_THROW((void)explainer->explain(*model, x), xai::BudgetExceeded);
}

TEST(CancelToken, AbortsEverySamplingMethod) {
    xai::CancelToken token;
    token.cancel();
    serve::ExplainerLimits limits;
    limits.cancel = &token;
    const auto bg = tiny_background();
    const auto model = sum_model();
    const std::vector<double> x = {1.0, 2.0, 3.0};
    for (const char* method : {"kernel_shap", "sampling", "lime", "occlusion"}) {
        auto explainer = serve::make_explainer(method, bg, 7, 1, limits);
        EXPECT_THROW((void)explainer->explain(*model, x), xai::BudgetExceeded)
            << method;
    }
}

// --------------------------------------------------------- budget scaling ---

TEST(ExplainerLimits, BudgetScalesWithFloors) {
    const auto bg = tiny_background();
    EXPECT_EQ(serve::effective_budget("kernel_shap", 1.0, bg), 2048u);
    EXPECT_EQ(serve::effective_budget("kernel_shap", 0.25, bg), 512u);
    EXPECT_EQ(serve::effective_budget("kernel_shap", 0.001, bg), 16u);  // floor
    EXPECT_EQ(serve::effective_budget("sampling", 0.25, bg), 50u);
    EXPECT_EQ(serve::effective_budget("sampling", 0.001, bg), 8u);  // floor
    EXPECT_EQ(serve::effective_budget("lime", 0.5, bg), 500u);
    EXPECT_EQ(serve::effective_budget("lime", 0.001, bg), 5u);  // d + 2
    EXPECT_EQ(serve::effective_budget("occlusion", 0.1, bg), 3u);  // one per feature
    EXPECT_EQ(serve::effective_budget("tree_shap", 0.1, bg), 0u);  // exact method
}

TEST(ExplainerLimits, ReducedBudgetIsDeterministicAndDiffersFromFull) {
    const auto bg = tiny_background();
    const auto model = sum_model();
    const std::vector<double> x = {1.0, 2.0, 3.0};
    serve::ExplainerLimits reduced;
    reduced.budget_scale = 0.05;

    const auto full = serve::make_explainer("kernel_shap", bg, 7, 1)->explain(*model, x);
    const auto a =
        serve::make_explainer("kernel_shap", bg, 7, 1, reduced)->explain(*model, x);
    const auto b =
        serve::make_explainer("kernel_shap", bg, 7, 1, reduced)->explain(*model, x);
    ASSERT_EQ(a.attributions.size(), b.attributions.size());
    for (std::size_t j = 0; j < a.attributions.size(); ++j)
        EXPECT_EQ(a.attributions[j], b.attributions[j]);  // same (seed, level)
    // Sanity: both budgets produce additive, finite attributions.
    for (const double v : a.attributions) EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(full.attributions.size(), a.attributions.size());
}

// ------------------------------------------------------------ degradation ---

TEST(DegradationPolicy, DisabledByDefault) {
    serve::DegradationPolicy policy;
    EXPECT_FALSE(policy.enabled());
    EXPECT_EQ(policy.classify(1000), serve::DegradeLevel::full);
}

TEST(DegradationPolicy, ClassifiesByQueueDepth) {
    serve::DegradationConfig cfg;
    cfg.reduced_queue_depth = 4;
    cfg.baseline_queue_depth = 8;
    serve::DegradationPolicy policy(cfg);
    EXPECT_TRUE(policy.enabled());
    EXPECT_EQ(policy.classify(0), serve::DegradeLevel::full);
    EXPECT_EQ(policy.classify(3), serve::DegradeLevel::full);
    EXPECT_EQ(policy.classify(4), serve::DegradeLevel::reduced);
    EXPECT_EQ(policy.classify(7), serve::DegradeLevel::reduced);
    EXPECT_EQ(policy.classify(8), serve::DegradeLevel::baseline);
    EXPECT_EQ(policy.classify(100), serve::DegradeLevel::baseline);
}

TEST(DegradationPolicy, MostDegradedRungWins) {
    serve::DegradationConfig cfg;
    cfg.reduced_queue_depth = 4;
    cfg.baseline_queue_depth = 6;
    serve::DegradationPolicy policy(cfg);
    // Depth crosses both rungs -> baseline.
    EXPECT_EQ(policy.classify(6), serve::DegradeLevel::baseline);
}

TEST(DegradationPolicy, OrdersInvertedThresholds) {
    serve::DegradationConfig cfg;
    cfg.reduced_queue_depth = 10;
    cfg.baseline_queue_depth = 2;  // below reduced: would shadow it
    serve::DegradationPolicy policy(cfg);
    EXPECT_EQ(policy.config().baseline_queue_depth, 10u);
    EXPECT_EQ(policy.classify(5), serve::DegradeLevel::full);
}

TEST(ExplanationService, DegradesUnderQueueDepthAndNeverCachesDegraded) {
    auto gate = std::make_shared<Gate>();
    std::atomic<int> calls{0};
    auto model = std::make_shared<ml::LambdaModel>(3, [gate, &calls](std::span<const double> x) {
        if (calls.fetch_add(1) == 0) gate->wait();  // block only the first batch
        return x[0] + x[1] + x[2];
    });

    serve::ServiceConfig cfg;
    cfg.method = "sampling";
    cfg.seed = 5;
    cfg.max_batch = 1;  // the first request becomes its own stuck batch
    cfg.threads = 1;
    cfg.degradation.reduced_queue_depth = 2;
    cfg.degradation.baseline_queue_depth = 4;
    serve::ExplanationService service(model, tiny_background(), cfg);

    // Block the dispatcher inside request 0's batch.
    auto blocker = service.submit(request_for(0, {9.0, 9.0, 9.0}));
    ASSERT_EQ(blocker.rejected, serve::ServeError::none);
    while (service.stats().queue_depth != 0)
        std::this_thread::sleep_for(milliseconds(1));

    // Queue five more: admission depths 1..5 -> full, reduced, reduced,
    // baseline, baseline.
    std::vector<std::future<serve::ExplainResponse>> futures;
    for (std::uint64_t id = 1; id <= 5; ++id) {
        auto sub = service.submit(
            request_for(id, {static_cast<double>(id), 2.0, 3.0}));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);
        futures.push_back(std::move(sub.response));
    }
    gate->release();

    std::vector<serve::ExplainResponse> responses;
    for (auto& f : futures) responses.push_back(f.get());
    for (const auto& r : responses) ASSERT_TRUE(r.ok);

    EXPECT_FALSE(responses[0].degraded);  // depth 1 < reduced threshold
    EXPECT_TRUE(responses[1].degraded);   // depth 2
    EXPECT_TRUE(responses[2].degraded);   // depth 3
    EXPECT_TRUE(responses[3].degraded);   // depth 4 -> baseline
    EXPECT_TRUE(responses[4].degraded);   // depth 5 -> baseline

    // reduced keeps the requested method at a smaller budget; baseline falls
    // back to occlusion.  Both carry the effective budget.
    EXPECT_EQ(responses[1].explanation.method, "sampling_shapley");
    EXPECT_EQ(responses[1].budget_used, 50u);  // 200 * 0.25
    EXPECT_EQ(responses[3].explanation.method, "occlusion");
    EXPECT_EQ(responses[3].budget_used, 3u);
    EXPECT_EQ(service.stats().requests_degraded, 4u);

    // Degraded results must not be pinned into the cache: repeating request 2
    // (served reduced) under no load recomputes at full fidelity.
    const auto repeat = service.explain_sync(request_for(10, {2.0, 2.0, 3.0}));
    ASSERT_TRUE(repeat.ok);
    EXPECT_FALSE(repeat.cache_hit);
    EXPECT_FALSE(repeat.degraded);
}

// -------------------------------------------------------------- deadlines ---

TEST(ExplanationService, ZeroDeadlineIsRejectedAtSubmit) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    auto req = request_for(1, {1.0, 2.0, 3.0});
    req.deadline_ms = 0;
    auto sub = service.submit(std::move(req));
    EXPECT_EQ(sub.rejected, serve::ServeError::deadline_exceeded);

    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_rejected, 1u);
    EXPECT_EQ(stats.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::deadline_exceeded)],
              1u);
    // No silent full computation happened.
    EXPECT_EQ(stats.requests_completed, 0u);
    EXPECT_EQ(stats.cache_misses, 0u);
}

TEST(ExplanationService, ExpiredDeadlineAnsweredWithoutComputing) {
    auto gate = std::make_shared<Gate>();
    std::atomic<int> calls{0};
    auto model = std::make_shared<ml::LambdaModel>(3, [gate, &calls](std::span<const double> x) {
        if (calls.fetch_add(1) == 0) gate->wait();
        return x[0];
    });

    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 1;
    cfg.threads = 1;
    serve::ExplanationService service(model, tiny_background(), cfg);

    // Hold the dispatcher inside the first batch.
    auto blocker = service.submit(request_for(1, {1.0, 2.0, 3.0}));
    ASSERT_EQ(blocker.rejected, serve::ServeError::none);
    while (service.stats().queue_depth != 0)
        std::this_thread::sleep_for(milliseconds(1));

    // This request's 5 ms deadline expires while it waits behind the gate.
    auto doomed = request_for(2, {4.0, 5.0, 6.0});
    doomed.deadline_ms = 5;
    auto sub = service.submit(std::move(doomed));
    ASSERT_EQ(sub.rejected, serve::ServeError::none);
    std::this_thread::sleep_for(milliseconds(20));
    gate->release();

    EXPECT_TRUE(blocker.response.get().ok);
    const auto r = sub.response.get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, serve::ServeError::deadline_exceeded);
    const auto stats = service.stats();
    EXPECT_EQ(stats.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::deadline_exceeded)],
              1u);
    // The expired request never probed the cache or computed.
    EXPECT_EQ(stats.cache_misses, 1u);  // only the blocker
}

TEST(ExplanationService, GenerousDeadlineStillServes) {
    // Up to the largest deadline the wire can carry: one past the clock's
    // range is no deadline.  Each request is a miss, so each sets a deadline.
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    const std::int64_t deadlines[] = {60000, 10'000'000'000'000,
                                      std::numeric_limits<std::int64_t>::max()};
    for (std::size_t i = 0; i < std::size(deadlines); ++i) {
        const double v = static_cast<double>(i);
        auto req = request_for(i + 1, {v, v + 1.0, v + 2.0});
        req.deadline_ms = deadlines[i];
        const auto r = service.explain_sync(std::move(req));
        EXPECT_TRUE(r.ok) << deadlines[i];
        EXPECT_FALSE(r.degraded);
    }
}

// --------------------------------------------------------- input hardening ---

TEST(ExplanationService, RejectsNonFiniteFeatures) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    auto nan_req = request_for(1, {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0});
    EXPECT_EQ(service.submit(std::move(nan_req)).rejected, serve::ServeError::bad_features);
    auto inf_req = request_for(2, {std::numeric_limits<double>::infinity(), 2.0, 3.0});
    EXPECT_EQ(service.submit(std::move(inf_req)).rejected, serve::ServeError::bad_features);

    const auto stats = service.stats();
    EXPECT_EQ(stats.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::bad_features)],
              2u);
}

TEST(NdjsonHardening, ExtractFeaturesValidates) {
    const auto parse = [](const std::string& s) { return serve::parse_json(s); };

    auto good = serve::extract_features(parse(R"({"features":[1,2,3]})"), 3);
    EXPECT_EQ(good.error, serve::ServeError::none);
    EXPECT_EQ(good.features, (std::vector<double>{1.0, 2.0, 3.0}));

    auto missing = serve::extract_features(parse(R"({"row":3})"), 3);
    EXPECT_EQ(missing.error, serve::ServeError::bad_request);

    auto not_array = serve::extract_features(parse(R"({"features":"abc"})"), 3);
    EXPECT_EQ(not_array.error, serve::ServeError::bad_request);

    auto wrong_dim = serve::extract_features(parse(R"({"features":[1,2]})"), 3);
    EXPECT_EQ(wrong_dim.error, serve::ServeError::bad_request);
    EXPECT_NE(wrong_dim.message.find("2"), std::string::npos);

    auto non_number = serve::extract_features(parse(R"({"features":[1,"x",3]})"), 3);
    EXPECT_EQ(non_number.error, serve::ServeError::bad_request);

    // strtod parses 1e999 to +Inf — a non-finite value reachable from the
    // wire without writing "Infinity".
    auto inf = serve::extract_features(parse(R"({"features":[1,1e999,3]})"), 3);
    EXPECT_EQ(inf.error, serve::ServeError::bad_features);
    EXPECT_TRUE(inf.features.empty());
}

// ---------------------------------------------------------- fault injector ---

TEST(FaultInjector, DefaultInjectsNothing) {
    serve::FaultInjector injector;
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(injector.should_fire(serve::FaultPoint::predict_throw));
    EXPECT_EQ(injector.total_fired(), 0u);
    EXPECT_EQ(injector.polls(serve::FaultPoint::predict_throw), 100u);
    EXPECT_FALSE(serve::fault_fires(nullptr, serve::FaultPoint::predict_throw));
}

TEST(FaultInjector, ScheduleIsDeterministicPerSeed) {
    serve::FaultInjector::Config cfg;
    cfg.seed = 42;
    cfg.rate[fp(serve::FaultPoint::predict_throw)] = 0.2;

    const auto pattern_of = [&cfg] {
        serve::FaultInjector injector(cfg);
        std::vector<bool> pattern;
        for (int i = 0; i < 500; ++i)
            pattern.push_back(injector.should_fire(serve::FaultPoint::predict_throw));
        return pattern;
    };
    const auto a = pattern_of();
    const auto b = pattern_of();
    EXPECT_EQ(a, b);  // same seed -> identical schedule
    const std::size_t fired = static_cast<std::size_t>(
        std::count(a.begin(), a.end(), true));
    EXPECT_GT(fired, 50u);   // ~100 expected at rate 0.2
    EXPECT_LT(fired, 200u);

    cfg.seed = 43;
    serve::FaultInjector other(cfg);
    std::vector<bool> c;
    for (int i = 0; i < 500; ++i)
        c.push_back(other.should_fire(serve::FaultPoint::predict_throw));
    EXPECT_NE(a, c);  // different seed -> different schedule
}

TEST(FaultInjector, MaxFiresCapsTheFaultCount) {
    serve::FaultInjector::Config cfg;
    cfg.seed = 1;
    cfg.rate[fp(serve::FaultPoint::queue_stall)] = 1.0;
    cfg.max_fires[fp(serve::FaultPoint::queue_stall)] = 2;
    serve::FaultInjector injector(cfg);
    int fired = 0;
    for (int i = 0; i < 50; ++i)
        if (injector.should_fire(serve::FaultPoint::queue_stall)) ++fired;
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(injector.fired(serve::FaultPoint::queue_stall), 2u);
}

TEST(FaultInjector, InjectingModelThrowsOnSchedule) {
    serve::FaultInjector::Config cfg;
    cfg.seed = 9;
    cfg.rate[fp(serve::FaultPoint::predict_throw)] = 1.0;
    cfg.max_fires[fp(serve::FaultPoint::predict_throw)] = 1;
    auto injector = std::make_shared<serve::FaultInjector>(cfg);
    serve::FaultInjectingModel model(sum_model(), injector);

    const std::vector<double> x = {1.0, 2.0, 3.0};
    EXPECT_THROW((void)model.predict(x), serve::InjectedFault);
    EXPECT_EQ(model.predict(x), 0.25 * 1.0 + 0.5 * 2.0 - 3.0);  // cap reached
    EXPECT_EQ(model.num_features(), 3u);
}

TEST(ExplanationService, PredictFaultBecomesErrorResponseNotCrash) {
    serve::FaultInjector::Config fi;
    fi.seed = 3;
    fi.rate[fp(serve::FaultPoint::predict_throw)] = 1.0;
    fi.max_fires[fp(serve::FaultPoint::predict_throw)] = 1;

    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.fault_injector = std::make_shared<serve::FaultInjector>(fi);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    const auto faulted = service.explain_sync(request_for(1, {1.0, 2.0, 3.0}));
    EXPECT_FALSE(faulted.ok);
    EXPECT_EQ(faulted.error_code, serve::ServeError::fault_injected);

    // The cap is spent; the same request now succeeds (and was not poisoned
    // by a cached error).
    const auto healthy = service.explain_sync(request_for(2, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(healthy.ok);
    EXPECT_FALSE(healthy.cache_hit);

    const auto stats = service.stats();
    EXPECT_EQ(stats.faults_injected, 1u);
    EXPECT_EQ(stats.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::fault_injected)],
              1u);
}

// --------------------------------------------------------- stall counting ---

// A stall is a dispatcher heartbeat older than 1 s while jobs are queued,
// counted once per episode.  Each case builds its own service and gate: a
// second hold on a used gate is a cache hit and never blocks.
TEST(ExplanationService, StallWithQueuedWorkCountsOnce) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    const auto gate = add_gate(cfg, 3);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    DispatcherHold hold(service, gate);
    auto queued = service.submit(request_for(1, {1.0, 2.0, 3.0}));
    ASSERT_EQ(queued.rejected, serve::ServeError::none);
    std::this_thread::sleep_for(milliseconds(1100));
    EXPECT_EQ(service.stats().worker_stalls, 1u);
    EXPECT_EQ(service.stats().worker_stalls, 1u);  // the same episode
    ASSERT_TRUE(hold.release().ok);
    ASSERT_TRUE(queued.response.get().ok);
    EXPECT_EQ(service.stats().worker_stalls, 1u);
}

TEST(ExplanationService, LongBatchWithNothingQueuedIsNoStall) {
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    const auto gate = add_gate(cfg, 3);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);

    DispatcherHold hold(service, gate);
    std::this_thread::sleep_for(milliseconds(1100));
    EXPECT_EQ(service.stats().worker_stalls, 0u);
    ASSERT_TRUE(hold.release().ok);
    EXPECT_EQ(service.stats().worker_stalls, 0u);
}

TEST(ExplanationService, SubmitAfterAnIdleSecondIsNoStall) {
    // An idle dispatcher waits for work with no deadline, so its last stamp
    // ages; it marks the heartbeat idle before it blocks, and the first job
    // after a quiet second is no stall.
    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(request_for(1, {1.0, 2.0, 3.0})).ok);
    std::this_thread::sleep_for(milliseconds(1100));
    auto sub = service.submit(request_for(2, {4.0, 5.0, 6.0}));
    ASSERT_EQ(sub.rejected, serve::ServeError::none);
    EXPECT_EQ(service.stats().worker_stalls, 0u);
    ASSERT_TRUE(sub.response.get().ok);
    EXPECT_EQ(service.stats().worker_stalls, 0u);
}

// ------------------------------------------------------------ queue stall ---

TEST(ExplanationService, QueueStallFaultDelaysButServes) {
    serve::FaultInjector::Config fi;
    fi.seed = 2;
    fi.rate[fp(serve::FaultPoint::queue_stall)] = 1.0;
    fi.max_fires[fp(serve::FaultPoint::queue_stall)] = 3;

    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.fault_injector = std::make_shared<serve::FaultInjector>(fi);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    EXPECT_TRUE(service.explain_sync(request_for(1, {1.0, 2.0, 3.0})).ok);
}

// -------------------------------------------------- queue shutdown races ---

TEST(RequestQueueShutdownRace, ConcurrentPushersSurviveClose) {
    for (int round = 0; round < 20; ++round) {
        serve::RequestQueue queue(64);
        constexpr int kPushers = 4;
        constexpr int kPerThread = 50;
        std::atomic<int> accepted{0};
        std::atomic<int> stopped{0};
        std::atomic<int> full{0};
        std::vector<std::thread> pushers;
        pushers.reserve(kPushers);
        for (int t = 0; t < kPushers; ++t) {
            pushers.emplace_back([&queue, &accepted, &stopped, &full, t] {
                for (int i = 0; i < kPerThread; ++i) {
                    serve::Job job;
                    job.request.id = static_cast<std::uint64_t>(t * 1000 + i);
                    job.enqueued_at = Clock::now();
                    const auto err = queue.try_push(std::move(job));
                    if (err == serve::ServeError::none) accepted.fetch_add(1);
                    else if (err == serve::ServeError::service_stopped)
                        stopped.fetch_add(1);
                    else if (err == serve::ServeError::queue_full)
                        full.fetch_add(1);
                }
            });
        }
        // An empty pop means the queue is closed and drained.
        std::thread popper([&queue] {
            while (!queue.pop_batch(16).empty()) {
            }
        });
        std::this_thread::sleep_for(microseconds(200 * (round % 5)));
        queue.close();
        for (auto& t : pushers) t.join();
        popper.join();
        // Every push got a definitive answer, and nothing deadlocked.
        EXPECT_EQ(accepted.load() + stopped.load() + full.load(),
                  kPushers * kPerThread);
    }
}

TEST(RequestQueueShutdownRace, ServiceStopRacesWithSubmitters) {
    for (int round = 0; round < 5; ++round) {
        serve::ServiceConfig cfg;
        cfg.method = "occlusion";
        cfg.max_batch = 4;
        auto service = std::make_unique<serve::ExplanationService>(
            sum_model(), tiny_background(), cfg);

        std::atomic<bool> go{false};
        std::vector<std::thread> submitters;
        std::mutex futures_mutex;
        std::vector<std::future<serve::ExplainResponse>> futures;
        for (int t = 0; t < 3; ++t) {
            submitters.emplace_back([&service, &go, &futures, &futures_mutex, t] {
                while (!go.load()) std::this_thread::yield();
                for (std::uint64_t i = 0; i < 20; ++i) {
                    auto sub = service->submit(request_for(
                        static_cast<std::uint64_t>(t) * 100 + i,
                        {static_cast<double>(i), 1.0, 2.0}));
                    if (sub.rejected == serve::ServeError::none) {
                        std::lock_guard lock(futures_mutex);
                        futures.push_back(std::move(sub.response));
                    }
                }
            });
        }
        go.store(true);
        std::this_thread::sleep_for(microseconds(100 * round));
        service->stop();
        for (auto& t : submitters) t.join();
        // Every accepted request still gets its promise fulfilled.
        for (auto& f : futures) EXPECT_TRUE(f.get().ok);
    }
}

// ------------------------------------------------------- chaos acceptance ---

TEST(ChaosAcceptance, ThousandRequestsUnderFaultsMatchFaultFreeRun) {
    const auto bg = tiny_background();
    const auto model = sum_model();
    constexpr std::size_t kRequests = 1000;
    constexpr std::size_t kDistinct = 50;

    const auto features_for = [](std::size_t i) {
        const auto k = static_cast<double>(i % kDistinct);
        return std::vector<double>{k, 2.0 * k - 10.0, 0.5 * k};
    };

    // Reference run: no faults.
    std::map<std::uint64_t, std::vector<double>> reference;
    {
        serve::ServiceConfig cfg;
        cfg.method = "occlusion";
        cfg.max_batch = 8;
        serve::ExplanationService service(model, bg, cfg);
        for (std::size_t i = 0; i < kRequests; ++i) {
            const auto r = service.explain_sync(request_for(i, features_for(i)));
            ASSERT_TRUE(r.ok);
            reference[i] = r.explanation.attributions;
        }
    }

    // Chaos run: ~1% of predict calls throw.
    serve::FaultInjector::Config fi;
    fi.seed = 2024;
    fi.rate[fp(serve::FaultPoint::predict_throw)] = 0.01;

    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.max_batch = 8;
    cfg.fault_injector = std::make_shared<serve::FaultInjector>(fi);
    serve::ExplanationService service(model, bg, cfg);

    std::vector<std::future<serve::ExplainResponse>> futures;
    futures.reserve(kRequests);
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        auto sub = service.submit(request_for(i, features_for(i)));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);  // queue never fills here
        futures.push_back(std::move(sub.response));
        ++accepted;
        if (futures.size() >= 64) {
            // Bounded client window, mirroring the CLI loop.
            for (auto& f : futures) {
                const auto r = f.get();
                if (r.ok) {
                    ASSERT_EQ(r.explanation.attributions, reference.at(r.id))
                        << "non-faulted response diverged from fault-free run";
                } else {
                    EXPECT_EQ(r.error_code, serve::ServeError::fault_injected);
                }
            }
            futures.clear();
        }
    }
    for (auto& f : futures) {
        const auto r = f.get();
        if (r.ok) {
            ASSERT_EQ(r.explanation.attributions, reference.at(r.id));
        } else {
            EXPECT_EQ(r.error_code, serve::ServeError::fault_injected);
        }
    }
    service.stop();

    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_accepted, accepted);
    EXPECT_EQ(stats.requests_completed, accepted);  // every future resolved
    EXPECT_GE(stats.faults_injected, 1u);  // at least one predict throw
    const auto faulted = stats.errors_by_reason[static_cast<std::size_t>(
        serve::ServeError::fault_injected)];
    EXPECT_GE(faulted, 1u);
    EXPECT_EQ(stats.requests_completed,
              stats.cache_hits + stats.cache_misses);
}
