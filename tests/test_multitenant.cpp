// Multi-tenant fair-serving tests: the DWRR admission queue
// (serve/request_queue.hpp) and the per-model quota path through the
// assembled service.
//
// Queue-level tests are fully deterministic (single thread, explicit pops).
// The service-level tests assert robust properties — a flooding hot tenant
// is capped by its quota while a cold tenant is never rejected and always
// completes — rather than timing-dependent latency numbers (those live in
// bench_s3_multitenant).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "mlcore/forest.hpp"
#include "mlcore/tree.hpp"
#include "serve/request_queue.hpp"
#include "serve/service.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

namespace {

serve::Job class_job(std::uint64_t id, std::size_t model_class) {
    serve::Job job;
    job.request.id = id;
    job.request.features = {1.0};
    job.model_class = model_class;
    job.enqueued_at = std::chrono::steady_clock::now();
    return job;
}

/// Pops everything as one batch, returning the class of each job in order.
std::vector<std::size_t> drain_classes(serve::RequestQueue& queue) {
    std::vector<std::size_t> order;
    for (const auto& job : queue.pop_batch(queue.size()))
        order.push_back(job.model_class);
    return order;
}

}  // namespace

// ------------------------------------------------------------ DWRR queue ---

TEST(DwrrQueue, SingleClassDegeneratesToFifo) {
    serve::RequestQueue queue(16);
    for (std::uint64_t id = 1; id <= 5; ++id)
        ASSERT_EQ(queue.try_push(class_job(id, 0)), serve::ServeError::none);
    for (std::uint64_t id = 1; id <= 5; ++id) {
        auto batch = queue.pop_batch(1);
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(batch[0].request.id, id);
    }
}

TEST(DwrrQueue, EqualWeightsInterleaveBackloggedClasses) {
    serve::RequestQueue queue(32);
    queue.configure_class(0, {.quota = 0, .weight = 1});
    queue.configure_class(1, {.quota = 0, .weight = 1});
    // Class 0 queues all its jobs first; DWRR still alternates.
    for (std::uint64_t id = 0; id < 4; ++id)
        ASSERT_EQ(queue.try_push(class_job(id, 0)), serve::ServeError::none);
    for (std::uint64_t id = 4; id < 8; ++id)
        ASSERT_EQ(queue.try_push(class_job(id, 1)), serve::ServeError::none);
    EXPECT_EQ(drain_classes(queue),
              (std::vector<std::size_t>{0, 1, 0, 1, 0, 1, 0, 1}));
}

TEST(DwrrQueue, WeightsSkewTheRound) {
    serve::RequestQueue queue(32);
    queue.configure_class(0, {.quota = 0, .weight = 2});
    queue.configure_class(1, {.quota = 0, .weight = 1});
    for (std::uint64_t id = 0; id < 6; ++id)
        ASSERT_EQ(queue.try_push(class_job(id, 0)), serve::ServeError::none);
    for (std::uint64_t id = 6; id < 9; ++id)
        ASSERT_EQ(queue.try_push(class_job(id, 1)), serve::ServeError::none);
    // Weight 2 takes two pops per round to weight 1's one.
    EXPECT_EQ(drain_classes(queue),
              (std::vector<std::size_t>{0, 0, 1, 0, 0, 1, 0, 0, 1}));
}

TEST(DwrrQueue, EmptiedClassForfeitsItsDeficit) {
    serve::RequestQueue queue(32);
    queue.configure_class(0, {.quota = 0, .weight = 4});
    queue.configure_class(1, {.quota = 0, .weight = 1});
    // Class 0 has only one job: it must not bank the unused 3 credits.
    ASSERT_EQ(queue.try_push(class_job(0, 0)), serve::ServeError::none);
    ASSERT_EQ(queue.try_push(class_job(1, 1)), serve::ServeError::none);
    ASSERT_EQ(queue.try_push(class_job(2, 1)), serve::ServeError::none);
    EXPECT_EQ(drain_classes(queue), (std::vector<std::size_t>{0, 1, 1}));
    // Refill class 0: a fresh round starts from a zero deficit (weight 4
    // again earns at most 4 pops, not 4 + the forfeited 3).
    for (std::uint64_t id = 0; id < 6; ++id)
        ASSERT_EQ(queue.try_push(class_job(id, 0)), serve::ServeError::none);
    ASSERT_EQ(queue.try_push(class_job(6, 1)), serve::ServeError::none);
    EXPECT_EQ(drain_classes(queue),
              (std::vector<std::size_t>{0, 0, 0, 0, 1, 0, 0}));
}

TEST(DwrrQueue, LateJoiningClassIsServedWithinOneRound) {
    serve::RequestQueue queue(64);
    queue.configure_class(0, {.quota = 0, .weight = 1});
    queue.configure_class(1, {.quota = 0, .weight = 1});
    for (std::uint64_t id = 0; id < 8; ++id)
        ASSERT_EQ(queue.try_push(class_job(id, 0)), serve::ServeError::none);
    // Two pops of the monopolist, then the cold tenant arrives.
    const auto first = queue.pop_batch(2);
    ASSERT_EQ(first.size(), 2u);
    ASSERT_EQ(first[0].model_class, 0u);
    ASSERT_EQ(first[1].model_class, 0u);
    ASSERT_EQ(queue.try_push(class_job(100, 1)), serve::ServeError::none);
    const auto order = drain_classes(queue);
    // The newcomer is popped after at most one more class-0 pop — it cannot
    // be starved behind the whole backlog.
    const auto first_one = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), 1u) - order.begin());
    EXPECT_LE(first_one, 1u);
}

TEST(DwrrQueue, QuotaCapsOneClassUnderTheGlobalDepth) {
    serve::RequestQueue queue(8);
    queue.configure_class(0, {.quota = 0, .weight = 1});
    queue.configure_class(1, {.quota = 2, .weight = 1});
    ASSERT_EQ(queue.try_push(class_job(0, 1)), serve::ServeError::none);
    ASSERT_EQ(queue.try_push(class_job(1, 1)), serve::ServeError::none);
    // The hot class hits its quota; the other class still admits.
    EXPECT_EQ(queue.try_push(class_job(2, 1)), serve::ServeError::quota_exceeded);
    EXPECT_EQ(queue.class_size(1), 2u);
    for (std::uint64_t id = 3; id < 9; ++id)
        ASSERT_EQ(queue.try_push(class_job(id, 0)), serve::ServeError::none);
    // Global depth reached: now everyone sees queue_full, not quota.
    EXPECT_EQ(queue.try_push(class_job(9, 0)), serve::ServeError::queue_full);
    EXPECT_EQ(queue.try_push(class_job(10, 1)), serve::ServeError::queue_full);
    EXPECT_EQ(queue.size(), 8u);
    // Popping a quota-capped job frees its slot.
    while (queue.class_size(1) > 1)
        ASSERT_EQ(queue.pop_batch(1).size(), 1u);
    EXPECT_EQ(queue.try_push(class_job(11, 1)), serve::ServeError::none);
}

// --------------------------------------------------------------- service ---

namespace {

struct Scenario {
    ml::Dataset data;
    std::shared_ptr<ml::RandomForest> forest;
    std::shared_ptr<ml::DecisionTree> tree;
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
        out.tree = std::make_shared<ml::DecisionTree>(
            ml::DecisionTree::Config{.max_depth = 5});
        out.tree->fit(out.data);
        out.background = xai::BackgroundData(out.data.x, 32);
        return out;
    }();
    return s;
}

serve::ExplainRequest tenant_request(std::uint64_t id, std::size_t row,
                                     const std::string& model) {
    const auto& s = scenario();
    serve::ExplainRequest er;
    er.id = id;
    const auto x = s.data.x.row(row % s.data.size());
    er.features.assign(x.begin(), x.end());
    er.method = "tree_shap";
    er.model = model;
    er.seed = 11;
    return er;
}

}  // namespace

TEST(MultiTenantService, QuotaRejectionsCountAgainstTheHotTenantOnly) {
    const auto& s = scenario();
    serve::ServiceConfig cfg;
    cfg.method = "tree_shap";
    cfg.seed = 11;
    cfg.queue_depth = 64;
    cfg.max_batch = 4;
    cfg.extra_models.push_back({"hot", s.tree, 1, /*quota=*/4});
    serve::ExplanationService service(s.forest, s.background, cfg);

    // Flood the hot tenant from one thread; trickle the cold tenant from
    // this one.  The hot tenant can hold at most 4 queue slots, so the cold
    // tenant (and the 64-deep global queue) never rejects it.
    std::atomic<std::uint64_t> hot_accepted{0}, hot_quota_rejected{0};
    std::atomic<bool> stop{false};
    std::thread flood([&] {
        std::vector<std::future<serve::ExplainResponse>> inflight;
        std::uint64_t id = 1000;
        while (!stop.load()) {
            auto sub = service.submit(tenant_request(id, id % 40, "hot"));
            ++id;
            if (sub.rejected == serve::ServeError::none) {
                hot_accepted.fetch_add(1);
                inflight.push_back(std::move(sub.response));
            } else {
                ASSERT_EQ(sub.rejected, serve::ServeError::quota_exceeded);
                hot_quota_rejected.fetch_add(1);
            }
            if (inflight.size() >= 64) {
                for (auto& f : inflight) (void)f.get();
                inflight.clear();
            }
        }
        for (auto& f : inflight) (void)f.get();
    });
    // Start the cold loop only after the flood's first admission: on a busy
    // host the flood thread can otherwise start after the cold loop ends.
    using Clock = std::chrono::steady_clock;
    const auto flood_deadline = Clock::now() + std::chrono::seconds(10);
    while (hot_accepted.load() == 0 && Clock::now() < flood_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (hot_accepted.load() == 0) {
        stop.store(true);
        flood.join();
        FAIL() << "the flood admitted no hot request within 10 s";
    }

    std::size_t cold_completed = 0;
    for (std::uint64_t i = 0; i < 60; ++i) {
        const auto r = service.explain_sync(tenant_request(i, i % 40, ""));
        ASSERT_TRUE(r.ok) << "cold tenant rejected: " << r.error;
        ++cold_completed;
    }
    stop.store(true);
    flood.join();

    EXPECT_EQ(cold_completed, 60u);
    EXPECT_GT(hot_accepted.load(), 0u);
    const auto stats = service.stats();
    ASSERT_EQ(stats.models.size(), 2u);
    EXPECT_EQ(stats.models[0].rejected_quota, 0u);  // cold tenant: never
    EXPECT_EQ(stats.models[1].rejected_quota, hot_quota_rejected.load());
    EXPECT_EQ(stats.models[0].admitted, 60u);
    EXPECT_EQ(stats.models[1].admitted, hot_accepted.load());
    EXPECT_EQ(stats.errors_by_reason[static_cast<std::size_t>(
                  serve::ServeError::quota_exceeded)],
              hot_quota_rejected.load());
    service.stop();
}

TEST(MultiTenantService, ColdTenantCompletesEverythingUnderSustainedFlood) {
    // Starvation robustness: with DWRR weights equal and the hot tenant
    // quota-capped, a cold tenant submitting strictly serial traffic always
    // finishes — no request is rejected and none is starved behind the hot
    // backlog.  (The quantitative 10x/1x throughput-ratio gate lives in
    // bench_s3_multitenant.)
    const auto& s = scenario();
    serve::ServiceConfig cfg;
    cfg.method = "tree_shap";
    cfg.seed = 11;
    cfg.queue_depth = 32;
    cfg.max_batch = 8;
    cfg.extra_models.push_back({"hot", s.tree, 1, /*quota=*/8});
    serve::ExplanationService service(s.forest, s.background, cfg);

    std::atomic<bool> stop{false};
    std::vector<std::thread> flooders;
    for (int t = 0; t < 3; ++t) {
        flooders.emplace_back([&, t] {
            std::uint64_t id = 10000 + static_cast<std::uint64_t>(t) * 100000;
            std::vector<std::future<serve::ExplainResponse>> inflight;
            while (!stop.load()) {
                auto sub = service.submit(tenant_request(id, id % 30, "hot"));
                ++id;
                if (sub.rejected == serve::ServeError::none)
                    inflight.push_back(std::move(sub.response));
                if (inflight.size() >= 32) {
                    for (auto& f : inflight) (void)f.get();
                    inflight.clear();
                }
            }
            for (auto& f : inflight) (void)f.get();
        });
    }

    std::size_t completed = 0;
    for (std::uint64_t i = 0; i < 40; ++i) {
        const auto r = service.explain_sync(tenant_request(i, i, ""));
        ASSERT_TRUE(r.ok) << "cold request " << i << ": " << r.error;
        ++completed;
    }
    stop.store(true);
    for (auto& t : flooders) t.join();
    EXPECT_EQ(completed, 40u);

    const auto stats = service.stats();
    ASSERT_EQ(stats.models.size(), 2u);
    EXPECT_EQ(stats.models[0].admitted, 40u);
    EXPECT_EQ(stats.models[0].completed, 40u);
    EXPECT_EQ(stats.models[0].rejected_quota, 0u);
    service.stop();
}
