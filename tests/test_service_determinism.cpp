// Determinism contract of the serving path (DESIGN.md section 9):
//
// > A served explanation is bitwise identical to the one-shot path for the
// > same (model, method, seed, background) — at any batch size, queue
// > timing, and thread count — and a cache hit returns identical bytes.
//
// The one-shot reference is exactly what `xnfv_cli explain` does: build a
// fresh explainer via serve::make_explainer and call explain() once.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "mlcore/forest.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace testutil = xnfv::testutil;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

namespace {

constexpr std::uint64_t kSeed = 11;  // the `xnfv_cli explain` default

/// Fixed-seed NFV scenario dataset + forest shared by every test here.
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

const std::vector<std::size_t>& test_rows() {
    static const std::vector<std::size_t> rows{0, 7, 42, 99, 7};  // note repeat
    return rows;
}

/// The one-shot path: fresh explainer, one explain() call.
xai::Explanation one_shot(const std::string& method, std::size_t row,
                          std::uint64_t seed = kSeed) {
    const auto& s = scenario();
    const auto explainer = serve::make_explainer(method, s.background, seed);
    return explainer->explain(*s.forest, s.data.x.row(row));
}

void expect_identical(const xai::Explanation& a, const xai::Explanation& b) {
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.prediction, b.prediction);
    EXPECT_EQ(a.base_value, b.base_value);
    ASSERT_EQ(a.attributions.size(), b.attributions.size());
    for (std::size_t j = 0; j < a.attributions.size(); ++j)
        EXPECT_EQ(a.attributions[j], b.attributions[j]) << "feature " << j;
}

serve::ExplainRequest request_for_row(std::uint64_t id, std::size_t row) {
    const auto& s = scenario();
    serve::ExplainRequest r;
    r.id = id;
    const auto x = s.data.x.row(row);
    r.features.assign(x.begin(), x.end());
    return r;
}

/// Queues every test row behind a held dispatcher, then checks each response
/// against the one-shot reference.  Every row is queued before the
/// dispatcher moves on, so the batch shape follows from max_batch alone.
void check_service_matches_one_shot(const std::string& method,
                                    serve::ServiceConfig cfg) {
    cfg.method = method;
    cfg.seed = kSeed;
    const auto gate = testutil::add_gate(cfg, scenario().data.x.cols());
    serve::ExplanationService service(scenario().forest, scenario().background, cfg);

    testutil::DispatcherHold hold(service, gate);
    std::vector<std::future<serve::ExplainResponse>> futures;
    for (std::size_t k = 0; k < test_rows().size(); ++k) {
        auto sub = service.submit(request_for_row(k, test_rows()[k]));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);
        futures.push_back(std::move(sub.response));
    }
    ASSERT_TRUE(hold.release().ok);
    for (std::size_t k = 0; k < futures.size(); ++k) {
        const auto response = futures[k].get();
        ASSERT_TRUE(response.ok) << response.error;
        expect_identical(response.explanation, one_shot(method, test_rows()[k]));
    }
    // The held request's batch, then the rows in batches of max_batch.
    const auto n = test_rows().size();
    const auto stats = service.stats();
    EXPECT_EQ(stats.batches, 1 + (n + cfg.max_batch - 1) / cfg.max_batch);
    EXPECT_EQ(stats.batch_size.max, std::min(n, cfg.max_batch));
}

serve::ServiceConfig sequential_config() {
    serve::ServiceConfig cfg;
    cfg.max_batch = 1;
    cfg.threads = 1;
    return cfg;
}

serve::ServiceConfig batched_config() {
    serve::ServiceConfig cfg;
    cfg.max_batch = 4;
    cfg.threads = 8;
    return cfg;
}

serve::ServiceConfig coalescing_config() {
    serve::ServiceConfig cfg;
    cfg.max_batch = 16;  // the whole row set in one batch
    cfg.threads = 8;
    return cfg;
}

}  // namespace

TEST(ServiceDeterminism, TreeShapServedEqualsOneShotAtAnyBatchSizeAndThreads) {
    check_service_matches_one_shot("tree_shap", sequential_config());
    check_service_matches_one_shot("tree_shap", batched_config());
    check_service_matches_one_shot("tree_shap", coalescing_config());
}

TEST(ServiceDeterminism, KernelShapServedEqualsOneShotAtAnyBatchSizeAndThreads) {
    check_service_matches_one_shot("kernel_shap", sequential_config());
    check_service_matches_one_shot("kernel_shap", batched_config());
    check_service_matches_one_shot("kernel_shap", coalescing_config());
}

TEST(ServiceDeterminism, SamplingShapleyServedEqualsOneShot) {
    check_service_matches_one_shot("sampling", sequential_config());
    check_service_matches_one_shot("sampling", coalescing_config());
}

TEST(ServiceDeterminism, LimeServedEqualsOneShot) {
    check_service_matches_one_shot("lime", sequential_config());
    check_service_matches_one_shot("lime", coalescing_config());
}

TEST(ServiceDeterminism, OcclusionServedEqualsOneShot) {
    check_service_matches_one_shot("occlusion", sequential_config());
    check_service_matches_one_shot("occlusion", batched_config());
}

TEST(ServiceDeterminism, RequestSeedOverrideMatchesOneShotWithThatSeed) {
    serve::ServiceConfig cfg = batched_config();
    cfg.method = "sampling";
    cfg.seed = kSeed;
    serve::ExplanationService service(scenario().forest, scenario().background, cfg);

    auto req = request_for_row(1, 42);
    req.seed = 99;
    const auto r = service.explain_sync(std::move(req));
    ASSERT_TRUE(r.ok) << r.error;
    expect_identical(r.explanation, one_shot("sampling", 42, 99));

    // And the override is honoured (different seed -> different samples).
    const auto base = one_shot("sampling", 42, kSeed);
    bool any_diff = false;
    for (std::size_t j = 0; j < base.attributions.size(); ++j)
        any_diff = any_diff || base.attributions[j] != r.explanation.attributions[j];
    EXPECT_TRUE(any_diff);
}

TEST(ServiceDeterminism, CacheHitReturnsIdenticalBytes) {
    serve::ServiceConfig cfg = batched_config();
    cfg.method = "kernel_shap";
    serve::ExplanationService service(scenario().forest, scenario().background, cfg);

    const auto cold = service.explain_sync(request_for_row(1, 7));
    const auto warm = service.explain_sync(request_for_row(2, 7));
    ASSERT_TRUE(cold.ok);
    ASSERT_TRUE(warm.ok);
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(warm.cache_hit);
    expect_identical(warm.explanation, cold.explanation);
    expect_identical(warm.explanation, one_shot("kernel_shap", 7));

    // Byte-level: the served JSON rendering (what `xnfv_cli serve` prints,
    // minus the id and cache_hit flag) must match character for character.
    const auto render = [](const serve::ExplainResponse& r) {
        serve::JsonWriter w;
        w.field("method", r.explanation.method);
        w.field("prediction", r.explanation.prediction);
        w.field("base_value", r.explanation.base_value);
        w.field_array("attributions", r.explanation.attributions);
        return w.finish();
    };
    EXPECT_EQ(render(cold), render(warm));
}

TEST(ServiceDeterminism, RepeatedRowsInOneBatchMatchOneShot) {
    // The row list contains a repeat (rows[1] == rows[4]); with the whole
    // set coalesced into one batch the duplicate is served from the batch-
    // local result and must still equal the one-shot reference bitwise.
    serve::ServiceConfig cfg = coalescing_config();
    cfg.method = "lime";
    cfg.seed = kSeed;
    const auto gate = testutil::add_gate(cfg, scenario().data.x.cols());
    serve::ExplanationService service(scenario().forest, scenario().background, cfg);

    testutil::DispatcherHold hold(service, gate);
    std::vector<std::future<serve::ExplainResponse>> futures;
    for (std::size_t k = 0; k < test_rows().size(); ++k) {
        auto sub = service.submit(request_for_row(k, test_rows()[k]));
        ASSERT_EQ(sub.rejected, serve::ServeError::none);
        futures.push_back(std::move(sub.response));
    }
    ASSERT_TRUE(hold.release().ok);
    for (std::size_t k = 0; k < futures.size(); ++k) {
        const auto response = futures[k].get();
        ASSERT_TRUE(response.ok) << response.error;
        expect_identical(response.explanation, one_shot("lime", test_rows()[k]));
    }
    // The held request, then all five rows in one batch: the repeat was
    // answered inside that batch, not from an earlier batch's cache entry.
    const auto stats = service.stats();
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.batch_size.max, test_rows().size());
    EXPECT_GT(stats.cache_hits, 0u);
}
