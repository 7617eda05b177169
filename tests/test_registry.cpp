// Multi-model registry tests (serve/registry.hpp): fingerprinting, load /
// swap / retire semantics, per-model cache isolation, the atomic hot-swap
// contract under live load, per-model snapshot persistence, and the shared
// admin ND-JSON handler.
//
// The two central claims, straight from DESIGN.md section 14:
//
//   * Single-model equivalence — a registry-backed service with one model
//     answers byte-identically to the one-shot explainer path for every
//     request, model field present or absent.
//   * Atomic hot swap — every response produced while swaps land under live
//     load is byte-identical to what a fresh single-model service built on
//     either the old or the new model would produce; no request is dropped,
//     errored, or served by a half-installed model.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mlcore/forest.hpp"
#include "mlcore/serialize.hpp"
#include "mlcore/tree.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/sharded_server.hpp"
#include "serve/ndjson.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

namespace {

constexpr std::uint64_t kSeed = 11;

struct Scenario {
    ml::Dataset data;
    std::shared_ptr<ml::RandomForest> forest_a;  ///< "old" version
    std::shared_ptr<ml::RandomForest> forest_b;  ///< "new" version (retrain)
    std::shared_ptr<ml::DecisionTree> tree;      ///< a second tenant
    xai::BackgroundData background;
};

const Scenario& scenario() {
    static const Scenario s = [] {
        Scenario out;
        ml::Rng rng(2020);
        wl::BuildOptions opt;
        opt.num_samples = 220;
        out.data = wl::build_dataset(wl::standard_scenarios()[0], opt, rng).data;
        out.forest_a = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 6});
        out.forest_a->fit(out.data, rng);
        ml::Rng rng_b(4242);  // different bootstrap -> different trees
        out.forest_b = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 6});
        out.forest_b->fit(out.data, rng_b);
        out.tree = std::make_shared<ml::DecisionTree>(
            ml::DecisionTree::Config{.max_depth = 5});
        out.tree->fit(out.data);
        out.background = xai::BackgroundData(out.data.x, 32);
        return out;
    }();
    return s;
}

serve::ExplainRequest row_request(std::uint64_t id, std::size_t row,
                                  const std::string& model = "") {
    const auto& s = scenario();
    serve::ExplainRequest er;
    er.id = id;
    const auto x = s.data.x.row(row % s.data.size());
    er.features.assign(x.begin(), x.end());
    er.method = "tree_shap";
    er.model = model;
    er.seed = kSeed;
    return er;
}

serve::ServiceConfig base_config() {
    serve::ServiceConfig cfg;
    cfg.method = "tree_shap";
    cfg.seed = kSeed;
    cfg.queue_depth = 256;
    cfg.max_batch = 8;
    return cfg;
}

/// Response bytes a fresh single-model service produces for `row` — the
/// equivalence oracle (and, transitively, the one-shot CLI path: see
/// ServedLineMatchesOneShotExplainer in test_net_sharded.cpp).
std::string solo_answer(const std::shared_ptr<const ml::Model>& model,
                        std::size_t row) {
    serve::ExplanationService service(model, scenario().background, base_config());
    auto r = service.explain_sync(row_request(1, row));
    r.cache_hit = false;  // normalize: oracle services are always cold
    service.stop();
    return serve::render_response(r);
}

}  // namespace

// ---------------------------------------------------------- fingerprints ---

TEST(ModelFingerprint, IdenticalModelsShareItDistinctModelsDiffer) {
    const auto& s = scenario();
    // Deterministic: the same model fingerprints the same twice.
    EXPECT_EQ(serve::fingerprint_model(*s.forest_a),
              serve::fingerprint_model(*s.forest_a));
    // A retrain and a different architecture both change it.
    EXPECT_NE(serve::fingerprint_model(*s.forest_a),
              serve::fingerprint_model(*s.forest_b));
    EXPECT_NE(serve::fingerprint_model(*s.forest_a),
              serve::fingerprint_model(*s.tree));
    // Hex rendering is 16 lower-case digits (snapshot filenames).
    const auto hex = serve::fingerprint_hex(serve::fingerprint_model(*s.forest_a));
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// ------------------------------------------------------ load/swap/retire ---

TEST(ModelRegistry, LoadSwapRetireSemantics) {
    const auto& s = scenario();
    serve::ModelRegistry reg({}, &s.background);
    std::string why;

    // First load becomes the default.
    ASSERT_EQ(reg.load("prod", s.forest_a, 1, 0, &why), serve::ServeError::none);
    EXPECT_EQ(reg.default_name(), "prod");
    EXPECT_EQ(reg.size(), 1u);

    // Duplicate name, empty name, null model, arity mismatch all reject.
    EXPECT_EQ(reg.load("prod", s.forest_b, 1, 0, &why),
              serve::ServeError::bad_request);
    EXPECT_EQ(reg.load("", s.forest_b, 1, 0, &why), serve::ServeError::bad_request);
    EXPECT_EQ(reg.load("null", nullptr, 1, 0, &why),
              serve::ServeError::bad_request);
    // Swap of an unknown name is unknown_model; retire of the default is
    // refused; retire of a secondary tenant works and resolve() then fails.
    EXPECT_EQ(reg.swap("ghost", s.forest_b, &why), serve::ServeError::unknown_model);
    ASSERT_EQ(reg.load("canary", s.tree, 2, 8, &why), serve::ServeError::none);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_NE(reg.resolve("canary"), nullptr);
    EXPECT_EQ(reg.retire("prod", &why), serve::ServeError::bad_request);
    EXPECT_EQ(reg.retire("canary", &why), serve::ServeError::none);
    EXPECT_EQ(reg.resolve("canary"), nullptr);
    EXPECT_EQ(reg.retire("canary", &why), serve::ServeError::unknown_model);
    // Class ids are never reused after a retire.
    ASSERT_EQ(reg.load("canary2", s.tree, 1, 0, &why), serve::ServeError::none);
    EXPECT_EQ(reg.resolve("canary2")->class_id, 2u);
    EXPECT_EQ(reg.classes_created(), 3u);
}

TEST(ModelRegistry, SwapPublishesNewSnapshotOldPinsSurvive) {
    const auto& s = scenario();
    serve::ModelRegistry reg({}, &s.background);
    ASSERT_EQ(reg.load("prod", s.forest_a, 1, 0), serve::ServeError::none);
    const auto entry = reg.resolve("prod");
    const auto pinned = entry->current();  // what an in-flight job would hold
    EXPECT_EQ(pinned->version, 0u);

    ASSERT_EQ(reg.swap("prod", s.forest_b), serve::ServeError::none);
    const auto fresh = entry->current();
    EXPECT_EQ(fresh->version, 1u);
    EXPECT_NE(fresh->fingerprint, pinned->fingerprint);
    // The pinned snapshot is untouched — still the old model, old base value.
    EXPECT_EQ(pinned->version, 0u);
    EXPECT_EQ(pinned->model.get(), s.forest_a.get());
    EXPECT_EQ(entry->swaps.value(), 1u);
}

// -------------------------------------------------- service integration ---

TEST(RegistryService, SingleModelAnswersAreByteIdenticalWithAndWithoutModelField) {
    const auto& s = scenario();
    serve::ExplanationService service(s.forest_a, s.background, base_config());
    for (std::size_t row = 0; row < 4; ++row) {
        auto implicit = service.explain_sync(row_request(1, row));
        auto named = service.explain_sync(row_request(1, row, "default"));
        implicit.cache_hit = false;
        named.cache_hit = false;
        EXPECT_EQ(serve::render_response(implicit), serve::render_response(named));
        EXPECT_EQ(serve::render_response(implicit), solo_answer(s.forest_a, row));
    }
    service.stop();
}

TEST(RegistryService, UnknownModelIsRejectedStructurally) {
    const auto& s = scenario();
    serve::ExplanationService service(s.forest_a, s.background, base_config());
    const auto r = service.explain_sync(row_request(9, 0, "nope"));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, serve::ServeError::unknown_model);
    EXPECT_FALSE(service.feature_dim("nope").has_value());
    EXPECT_TRUE(service.feature_dim("").has_value());
    service.stop();
}

TEST(RegistryService, TenantsAreCacheIsolatedAndCountedSeparately) {
    const auto& s = scenario();
    auto cfg = base_config();
    cfg.extra_models.push_back({"canary", s.tree, 2, 0});
    serve::ExplanationService service(s.forest_a, s.background, cfg);

    // Same instance explained under both tenants: different models, so the
    // answers differ and neither hits the other's cache slice.
    auto prod1 = service.explain_sync(row_request(1, 5));
    auto canary1 = service.explain_sync(row_request(2, 5, "canary"));
    ASSERT_TRUE(prod1.ok);
    ASSERT_TRUE(canary1.ok);
    EXPECT_FALSE(prod1.cache_hit);
    EXPECT_FALSE(canary1.cache_hit);
    EXPECT_NE(prod1.explanation.prediction, canary1.explanation.prediction);

    // Repeats hit each tenant's own slice.
    EXPECT_TRUE(service.explain_sync(row_request(3, 5)).cache_hit);
    EXPECT_TRUE(service.explain_sync(row_request(4, 5, "canary")).cache_hit);

    const auto stats = service.stats();
    ASSERT_EQ(stats.models.size(), 2u);
    EXPECT_EQ(stats.models_registered, 2u);
    EXPECT_EQ(stats.models[0].name, "default");
    EXPECT_EQ(stats.models[1].name, "canary");
    EXPECT_EQ(stats.models[0].admitted, 2u);
    EXPECT_EQ(stats.models[1].admitted, 2u);
    EXPECT_EQ(stats.models[0].completed, 2u);
    EXPECT_EQ(stats.models[1].completed, 2u);
    EXPECT_EQ(stats.models[1].weight, 2u);
    // The rendered stats frame carries the per-model array.
    const auto frame = serve::parse_json(serve::render_stats(stats));
    const auto* models = frame.find("models");
    ASSERT_NE(models, nullptr);
    ASSERT_EQ(models->array.size(), 2u);
    EXPECT_EQ(models->array[1].get_string("name", ""), "canary");
    service.stop();
}

TEST(RegistryService, SwapInvalidatesOldAnswersAndSwapBackRehits) {
    const auto& s = scenario();
    serve::ExplanationService service(s.forest_a, s.background, base_config());
    const auto before = service.explain_sync(row_request(1, 7));
    ASSERT_TRUE(before.ok);

    // Swap to the retrained model: same request now computes fresh (the old
    // version's cache entries are unreachable under the new fingerprint).
    ASSERT_EQ(service.model_swap("", s.forest_b), serve::ServeError::none);
    const auto after = service.explain_sync(row_request(2, 7));
    ASSERT_TRUE(after.ok);
    EXPECT_FALSE(after.cache_hit);
    auto a = before, b = after;
    a.id = b.id = 0;
    a.cache_hit = b.cache_hit = false;
    EXPECT_NE(serve::render_response(a), serve::render_response(b));

    // Swap back to a byte-identical model: the surviving old entries re-hit.
    ASSERT_EQ(service.model_swap("", s.forest_a), serve::ServeError::none);
    const auto back = service.explain_sync(row_request(3, 7));
    ASSERT_TRUE(back.ok);
    EXPECT_TRUE(back.cache_hit);
    auto c = back;
    c.id = before.id;
    c.cache_hit = before.cache_hit;
    EXPECT_EQ(serve::render_response(c), serve::render_response(before));
    EXPECT_EQ(service.stats().model_swaps, 2u);
    service.stop();
}

TEST(RegistryService, HotSwapUnderLiveLoadLosesNothingAndStaysBitwiseExact) {
    // The acceptance gate: a client stream runs while another thread swaps
    // prod -> retrained -> prod repeatedly.  Every single response must be
    // byte-identical to a fresh solo service built on one of the two
    // versions; zero requests may be dropped or errored.
    const auto& s = scenario();
    const std::size_t kRows = 6;
    std::vector<std::string> oracle_a(kRows), oracle_b(kRows);
    for (std::size_t row = 0; row < kRows; ++row) {
        oracle_a[row] = solo_answer(s.forest_a, row);
        oracle_b[row] = solo_answer(s.forest_b, row);
    }
    ASSERT_NE(oracle_a[0], oracle_b[0]);  // the swap must be observable

    serve::ExplanationService service(s.forest_a, s.background, base_config());
    std::atomic<bool> stop{false};
    std::thread swapper([&] {
        bool to_b = true;
        while (!stop.load()) {
            ASSERT_EQ(service.model_swap("", to_b ? s.forest_b : s.forest_a),
                      serve::ServeError::none);
            to_b = !to_b;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    std::size_t matched_a = 0, matched_b = 0;
    for (std::uint64_t i = 0; i < 400; ++i) {
        const std::size_t row = i % kRows;
        auto er = row_request(1, row);
        auto r = service.explain_sync(std::move(er));
        ASSERT_TRUE(r.ok) << "request " << i << ": " << r.error;
        r.cache_hit = false;  // hits are byte-equal to the compute they cached
        const auto line = serve::render_response(r);
        if (line == oracle_a[row]) {
            ++matched_a;
        } else if (line == oracle_b[row]) {
            ++matched_b;
        } else {
            FAIL() << "request " << i << " matched neither model version";
        }
    }
    stop.store(true);
    swapper.join();
    // Both versions actually served (the swap landed mid-stream).
    EXPECT_GT(matched_a, 0u);
    EXPECT_GT(matched_b, 0u);
    EXPECT_EQ(matched_a + matched_b, 400u);
    const auto stats = service.stats();
    EXPECT_EQ(stats.requests_accepted, stats.requests_completed);
    service.stop();
}

TEST(RegistryService, RetiredTenantFinishesInFlightWorkThenRejects) {
    const auto& s = scenario();
    auto cfg = base_config();
    cfg.extra_models.push_back({"canary", s.tree, 1, 0});
    serve::ExplanationService service(s.forest_a, s.background, cfg);

    auto sub = service.submit(row_request(1, 3, "canary"));
    ASSERT_EQ(sub.rejected, serve::ServeError::none);
    ASSERT_EQ(service.model_retire("canary"), serve::ServeError::none);
    // The admitted request still completes on its pinned entry.
    const auto r = sub.response.get();
    EXPECT_TRUE(r.ok);
    // New traffic for the retired name is rejected.
    const auto rejected = service.explain_sync(row_request(2, 3, "canary"));
    EXPECT_EQ(rejected.error_code, serve::ServeError::unknown_model);
    service.stop();
}

// ------------------------------------------------------------- snapshots ---

TEST(RegistrySnapshots, PerModelFilesRoundTripAndMismatchesAreSkipped) {
    const auto& s = scenario();
    const std::string base =
        ::testing::TempDir() + "registry_snap_" +
        std::to_string(::getpid()) + ".bin";
    auto cfg = base_config();
    cfg.snapshot_path = base;
    cfg.extra_models.push_back({"canary", s.tree, 1, 0});
    const auto canary_fp = serve::fingerprint_model(*s.tree);
    const std::string canary_file =
        base + "." + serve::fingerprint_hex(canary_fp);

    std::string prod_line, canary_line;
    {
        serve::ExplanationService service(s.forest_a, s.background, cfg);
        auto p = service.explain_sync(row_request(1, 2));
        auto c = service.explain_sync(row_request(2, 2, "canary"));
        ASSERT_TRUE(p.ok);
        ASSERT_TRUE(c.ok);
        p.cache_hit = c.cache_hit = false;
        prod_line = serve::render_response(p);
        canary_line = serve::render_response(c);
        service.stop();  // writes <base> and <base>.<canary-fp>
    }

    {
        // Restart: both tenants restore their own slice and hit immediately.
        serve::ExplanationService service(s.forest_a, s.background, cfg);
        EXPECT_GT(service.stats().snapshot_records_loaded, 0u);
        auto p = service.explain_sync(row_request(1, 2));
        auto c = service.explain_sync(row_request(2, 2, "canary"));
        EXPECT_TRUE(p.cache_hit);
        EXPECT_TRUE(c.cache_hit);
        p.cache_hit = c.cache_hit = false;
        EXPECT_EQ(serve::render_response(p), prod_line);
        EXPECT_EQ(serve::render_response(c), canary_line);
        service.stop();
    }

    {
        // A snapshot whose header fingerprint matches no registered model
        // (the canary was retrained offline) is skipped, not an error: the
        // tenant just starts cold.
        auto cfg2 = base_config();
        cfg2.snapshot_path = base;
        cfg2.extra_models.push_back({"canary", s.forest_b, 1, 0});
        serve::ExplanationService service(s.forest_a, s.background, cfg2);
        auto c = service.explain_sync(row_request(1, 2, "canary"));
        ASSERT_TRUE(c.ok);
        EXPECT_FALSE(c.cache_hit);
        service.stop();
    }
    std::remove(base.c_str());
    std::remove(canary_file.c_str());
    std::remove((base + "." +
                 serve::fingerprint_hex(serve::fingerprint_model(*s.forest_b)))
                    .c_str());
}

// ------------------------------------------------------------------ TCP ---

TEST(RegistryOverTcp, HotSwapUnderLiveTcpLoadAcrossShards) {
    // The TCP incarnation of the hot-swap gate: a client streams explains at
    // window 1 against a 2-shard server while another connection fires swap
    // admin ops (fanned out to every shard under the admin mutex).  Every
    // response must byte-match a fresh solo server built on the old or the
    // new version; the loadgen accounting proves zero drops.
    namespace net = xnfv::net;
    const auto& s = scenario();
    const std::string file_a = ::testing::TempDir() + "swap_a_" +
                               std::to_string(::getpid()) + ".xnfv";
    const std::string file_b = ::testing::TempDir() + "swap_b_" +
                               std::to_string(::getpid()) + ".xnfv";
    ml::save_model_file(*s.forest_a, file_a);
    ml::save_model_file(*s.forest_b, file_b);

    // All-distinct rows: every answer is a cold compute on both the oracles
    // and the live server, so cache_hit flags can never diverge.
    const std::size_t kRequests = 160;
    std::vector<std::string> script, oracle_a(kRequests), oracle_b(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        const auto x = s.data.x.row(i % s.data.size());
        net::RequestSpec spec;
        spec.id = i + 1;
        spec.features.assign(x.begin(), x.end());
        spec.method = "tree_shap";
        spec.seed = kSeed;
        script.push_back(net::render_request_line(spec));
    }
    script.push_back("{\"op\":\"quit\"}");
    for (const auto* oracle : {&oracle_a, &oracle_b}) {
        const auto model = oracle == &oracle_a
                               ? std::static_pointer_cast<const ml::Model>(s.forest_a)
                               : std::static_pointer_cast<const ml::Model>(s.forest_b);
        serve::ExplanationService solo(model, s.background, base_config());
        for (std::size_t i = 0; i < kRequests; ++i) {
            auto r = solo.explain_sync(row_request(i + 1, i));
            ASSERT_TRUE(r.ok);
            const_cast<std::vector<std::string>&>(*oracle)[i] =
                serve::render_response(r);
        }
        solo.stop();
    }

    net::ServerConfig ncfg;
    ncfg.shards = 2;
    net::ShardedServer server(s.forest_a, s.background, base_config(), ncfg);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });

    std::atomic<bool> stop{false};
    std::thread swapper([&] {
        net::Client admin;
        std::string err;
        ASSERT_TRUE(admin.connect("127.0.0.1", server.port(), &err)) << err;
        bool to_b = true;
        std::string line;
        while (!stop.load()) {
            const auto op = std::string("{\"op\":\"swap\",\"name\":\"default\"") +
                            ",\"model\":\"" + (to_b ? file_b : file_a) + "\"}";
            ASSERT_TRUE(admin.send_line(op));
            ASSERT_TRUE(admin.recv_line(line, std::chrono::milliseconds(10000)));
            EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
            to_b = !to_b;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });

    net::LoadgenConfig lg;
    lg.port = server.port();
    lg.window = 1;
    lg.timeout = std::chrono::milliseconds(120000);
    const auto report = net::run_load(lg, {script});
    stop.store(true);
    swapper.join();
    server.request_drain();
    loop.join();
    server.stop_services();

    ASSERT_FALSE(report.timed_out);
    ASSERT_EQ(report.conns.size(), 1u);
    const auto& conn = report.conns[0];
    EXPECT_FALSE(conn.io_error);
    EXPECT_TRUE(conn.eof);
    ASSERT_EQ(conn.lines.size(), kRequests) << "dropped responses";
    std::size_t matched_a = 0, matched_b = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        if (conn.lines[i] == oracle_a[i]) {
            ++matched_a;
        } else if (conn.lines[i] == oracle_b[i]) {
            ++matched_b;
        } else {
            FAIL() << "line " << i << " matched neither version: "
                   << conn.lines[i];
        }
    }
    EXPECT_GT(matched_a, 0u);
    EXPECT_GT(matched_b, 0u);

    // The swaps replicated to every shard: both report the same final
    // registry facts, and the fleet aggregate says so once.
    const auto stats = server.stats();
    ASSERT_EQ(stats.models.size(), 1u);
    EXPECT_GT(stats.models[0].swaps, 0u);
    EXPECT_EQ(stats.models_registered, 1u);
    std::remove(file_a.c_str());
    std::remove(file_b.c_str());
}

TEST(RegistryOverTcp, ModelFieldAndUseOpSelectTenantsPerConnection) {
    namespace net = xnfv::net;
    const auto& s = scenario();
    auto cfg = base_config();
    cfg.extra_models.push_back({"canary", s.tree, 1, 0});
    net::ServerConfig ncfg;
    ncfg.shards = 1;
    net::ShardedServer server(s.forest_a, s.background, cfg, ncfg);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.run(); });

    // No row lookup installed on this server, so requests carry features.
    const auto feature_line = [&](std::uint64_t id, std::size_t row,
                                  const std::string& model) {
        const auto x = s.data.x.row(row);
        net::RequestSpec spec;
        spec.id = id;
        spec.features.assign(x.begin(), x.end());
        spec.method = "tree_shap";
        spec.model = model;
        spec.seed = kSeed;
        return net::render_request_line(spec);
    };

    const std::vector<std::string> script{
        feature_line(1, 10, ""),          // default tenant (prod)
        feature_line(2, 11, "canary"),    // explicit per-request override
        "{\"op\":\"use\",\"model\":\"canary\"}",
        feature_line(3, 12, ""),          // now resolves to canary
        feature_line(4, 13, "ghost"),     // unknown -> structured error
        "{\"op\":\"quit\"}",
    };
    net::LoadgenConfig lg;
    lg.port = server.port();
    lg.window = 1;
    lg.timeout = std::chrono::milliseconds(60000);
    const auto report = net::run_load(lg, {script});
    server.request_drain();
    loop.join();
    server.stop_services();

    ASSERT_FALSE(report.timed_out);
    const auto& lines = report.conns[0].lines;
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(lines[0], solo_answer(s.forest_a, 10));
    {
        // Byte-identical to a solo canary service answering the same id.
        serve::ExplanationService solo(s.tree, s.background, base_config());
        auto resp = solo.explain_sync(row_request(2, 11));
        resp.cache_hit = false;
        EXPECT_EQ(lines[1], serve::render_response(resp));
        solo.stop();
    }
    EXPECT_NE(lines[2].find("\"op\":\"use\""), std::string::npos);
    {
        serve::ExplanationService solo(s.tree, s.background, base_config());
        auto resp = solo.explain_sync(row_request(3, 12));
        resp.cache_hit = false;
        EXPECT_EQ(lines[3], serve::render_response(resp));
        solo.stop();
    }
    EXPECT_NE(lines[4].find("unknown_model"), std::string::npos) << lines[4];
}

// ------------------------------------------------------------- admin ops ---

TEST(ModelAdmin, LoadSwapRetireModelsOverNdjson) {
    const auto& s = scenario();
    const std::string model_file =
        ::testing::TempDir() + "admin_model_" + std::to_string(::getpid()) +
        ".xnfv";
    ml::save_model_file(*s.tree, model_file);

    serve::ExplanationService service(s.forest_a, s.background, base_config());
    const std::vector<serve::ExplanationService*> services{&service};

    auto loaded = serve::parse_json(serve::handle_model_admin(
        serve::parse_json(R"({"op":"load","name":"canary","model":")" +
                          model_file + R"(","weight":2,"quota":8})"),
        services));
    EXPECT_EQ(loaded.get_string("op", ""), "load");
    EXPECT_EQ(loaded.get_string("name", ""), "canary");
    EXPECT_EQ(loaded.get_string("fingerprint", ""),
              serve::fingerprint_hex(serve::fingerprint_model(*s.tree)));
    ASSERT_TRUE(service.feature_dim("canary").has_value());

    // The canary serves; a swap republished from the same file keeps it
    // serving the same bytes (fingerprint unchanged -> cache re-hit).
    const auto before = service.explain_sync(row_request(1, 4, "canary"));
    ASSERT_TRUE(before.ok);
    auto swapped = serve::parse_json(serve::handle_model_admin(
        serve::parse_json(R"({"op":"swap","name":"canary","model":")" +
                          model_file + R"("})"),
        services));
    EXPECT_EQ(swapped.get_string("op", ""), "swap");
    EXPECT_TRUE(service.explain_sync(row_request(2, 4, "canary")).cache_hit);

    auto listing = serve::parse_json(serve::handle_model_admin(
        serve::parse_json(R"({"op":"models"})"), services));
    EXPECT_EQ(listing.get_string("default", ""), "default");
    const auto* models = listing.find("models");
    ASSERT_NE(models, nullptr);
    ASSERT_EQ(models->array.size(), 2u);
    EXPECT_EQ(models->array[1].get_string("name", ""), "canary");
    EXPECT_EQ(models->array[1].get_number("weight", 0), 2.0);
    EXPECT_EQ(models->array[1].get_number("quota", 0), 8.0);
    EXPECT_EQ(models->array[1].get_number("swaps", 0), 1.0);

    auto retired = serve::parse_json(serve::handle_model_admin(
        serve::parse_json(R"({"op":"retire","name":"canary"})"), services));
    EXPECT_EQ(retired.get_string("op", ""), "retire");
    EXPECT_FALSE(service.feature_dim("canary").has_value());

    // Structured failures: unknown op, missing file, unknown swap target.
    auto bad_op = serve::parse_json(serve::handle_model_admin(
        serve::parse_json(R"({"op":"frobnicate"})"), services));
    EXPECT_EQ(bad_op.get_string("error_code", ""), "bad_request");
    auto bad_file = serve::parse_json(serve::handle_model_admin(
        serve::parse_json(R"({"op":"load","name":"x","model":"/nope.xnfv"})"),
        services));
    EXPECT_EQ(bad_file.get_string("error_code", ""), "bad_request");
    auto bad_swap = serve::parse_json(serve::handle_model_admin(
        serve::parse_json(R"({"op":"swap","name":"ghost","model":")" +
                          model_file + R"("})"),
        services));
    EXPECT_EQ(bad_swap.get_string("error_code", ""), "unknown_model");

    service.stop();
    std::remove(model_file.c_str());
}

TEST(ModelAdmin, LoadRefusesAWeightOrQuotaItCannotHold) {
    // A negative, fractional or huge weight or quota is refused by name
    // before the model file is read, and registers nothing.
    const auto& s = scenario();
    const std::string model_file =
        ::testing::TempDir() + "admin_refuse_" + std::to_string(::getpid()) + ".xnfv";
    ml::save_model_file(*s.tree, model_file);
    serve::ExplanationService service(s.forest_a, s.background, base_config());
    const std::vector<std::pair<std::string, std::string>> fields{
        {"weight", "-1"}, {"weight", "0.5"}, {"quota", "-1"}, {"quota", "1e300"}};
    for (const auto& [field, value] : fields) {
        SCOPED_TRACE(field + ":" + value);
        const auto answer = serve::parse_json(serve::handle_model_admin(
            serve::parse_json(R"({"op":"load","name":"canary","model":")" + model_file +
                              "\",\"" + field + "\":" + value + "}"),
            {&service}));
        EXPECT_EQ(answer.get_string("error_code", ""), "bad_request");
        EXPECT_EQ(answer.get_string("error", ""),
                  "\"" + field + "\" must be a whole number in range");
    }
    EXPECT_FALSE(service.feature_dim("canary").has_value());
    EXPECT_EQ(service.stats().models_registered, 1u);
    service.stop();
    std::remove(model_file.c_str());
}

TEST(CircuitBreaker, OpensOnErrorWindowRecoversViaHalfOpenProbe) {
    // Per-tenant circuit breaker state machine (DESIGN.md section 15):
    // closed -> open when a full window's error fraction reaches the
    // threshold, open -> half-open single probe after the cooldown, probe
    // outcome alone decides re-close vs re-open.  `now` is a parameter of
    // admit, so the cooldown is simulated without sleeping.
    serve::BreakerConfig cfg;
    cfg.window = 4;
    cfg.error_threshold = 0.5;
    cfg.cooldown = std::chrono::milliseconds(250);
    serve::ModelEntry entry("tenant", 0, 16, 1);
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const auto after_cooldown = t0 + std::chrono::seconds(2);

    // Closed admits freely; a full window of successes stays closed.
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(entry.breaker_admit(cfg, t0));
        entry.breaker_record(cfg, true);
    }
    EXPECT_EQ(entry.breaker_state(), 0);

    // Two failures put the window at 2/4 errors == threshold: opens.
    for (int i = 0; i < 2; ++i) {
        EXPECT_TRUE(entry.breaker_admit(cfg, t0));
        entry.breaker_record(cfg, false);
    }
    EXPECT_EQ(entry.breaker_state(), 1);
    EXPECT_EQ(entry.breaker_opens.value(), 1u);

    // Open rejects while the cooldown runs.
    EXPECT_FALSE(entry.breaker_admit(cfg, t0));
    EXPECT_EQ(entry.breaker_rejected.value(), 1u);

    // Cooldown over: exactly one half-open probe; concurrent admits reject.
    EXPECT_TRUE(entry.breaker_admit(cfg, after_cooldown));
    EXPECT_EQ(entry.breaker_state(), 2);
    EXPECT_FALSE(entry.breaker_admit(cfg, after_cooldown));
    EXPECT_EQ(entry.breaker_rejected.value(), 2u);

    // Failed probe re-opens...
    entry.breaker_record(cfg, false);
    EXPECT_EQ(entry.breaker_state(), 1);
    EXPECT_EQ(entry.breaker_opens.value(), 2u);

    // ...an admitted probe lost to a queue rejection is released by
    // abandon (otherwise the breaker would wedge half-open forever)...
    EXPECT_TRUE(entry.breaker_admit(cfg, after_cooldown + std::chrono::seconds(2)));
    entry.breaker_abandon(cfg);
    EXPECT_TRUE(entry.breaker_admit(cfg, after_cooldown + std::chrono::seconds(2)));

    // ...and a successful probe closes with a fresh window: one further
    // failure is 1/4, not enough to re-open.
    entry.breaker_record(cfg, true);
    EXPECT_EQ(entry.breaker_state(), 0);
    EXPECT_TRUE(entry.breaker_admit(cfg, t0));
    entry.breaker_record(cfg, false);
    EXPECT_EQ(entry.breaker_state(), 0);
}

TEST(CircuitBreaker, DisabledByDefaultNeverRejects) {
    serve::BreakerConfig off;  // error_threshold 0.0 = disabled
    serve::ModelEntry entry("tenant", 0, 16, 1);
    for (int i = 0; i < 64; ++i) {
        EXPECT_TRUE(entry.breaker_admit(off, std::chrono::steady_clock::now()));
        entry.breaker_record(off, false);
    }
    EXPECT_EQ(entry.breaker_state(), 0);
    EXPECT_EQ(entry.breaker_opens.value(), 0u);
    EXPECT_EQ(entry.breaker_rejected.value(), 0u);
}
