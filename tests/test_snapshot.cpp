// Crash-safe cache snapshot tests: CRC correctness, write/read round-trips,
// truncation at every offset, mid-file corruption with resync, header and
// fingerprint invalidation, and service-level persistence (a restarted
// service serves byte-identical cache hits from the snapshot, including
// after the cache_corrupt fault has scrambled a record).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/explanation.hpp"
#include "mlcore/model.hpp"
#include "serve/fault_injector.hpp"
#include "serve/request_queue.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "xnfv_snapshot_" + name;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spill(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

serve::SnapshotRecord make_record(std::uint64_t tag) {
    serve::SnapshotRecord r;
    r.key_words = {tag, tag * 31 + 7, ~tag};
    r.key_context = 0x9e3779b97f4a7c15ULL ^ tag;
    r.explanation.method = "kernel_shap";
    r.explanation.prediction = 1.5 * static_cast<double>(tag);
    r.explanation.base_value = -0.25;
    r.explanation.attributions = {0.125 * static_cast<double>(tag), -3.0, 42.0};
    r.explanation.feature_names = {"cpu", "mem", "pkt_rate"};
    return r;
}

void expect_pairs_eq(const std::vector<xai::InteractionPair>& a,
                     const std::vector<xai::InteractionPair>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].i, b[k].i);
        EXPECT_EQ(a[k].j, b[k].j);
        EXPECT_EQ(a[k].h2, b[k].h2);
    }
}

void expect_record_eq(const serve::SnapshotRecord& a, const serve::SnapshotRecord& b) {
    EXPECT_EQ(a.key_words, b.key_words);
    EXPECT_EQ(a.key_context, b.key_context);
    EXPECT_EQ(a.explanation.method, b.explanation.method);
    EXPECT_EQ(a.explanation.prediction, b.explanation.prediction);
    EXPECT_EQ(a.explanation.base_value, b.explanation.base_value);
    EXPECT_EQ(a.explanation.attributions, b.explanation.attributions);
    EXPECT_EQ(a.explanation.feature_names, b.explanation.feature_names);
    expect_pairs_eq(a.explanation.interactions, b.explanation.interactions);
}

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

constexpr serve::SnapshotHeader kHeader{0x1111, 0x2222, 0.0};

}  // namespace

TEST(Crc32, MatchesStandardCheckValue) {
    const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(serve::crc32(check), 0xCBF43926u);
    EXPECT_EQ(serve::crc32({}), 0u);
    // One flipped bit changes the CRC.
    std::uint8_t flipped[sizeof(check)];
    std::copy(std::begin(check), std::end(check), std::begin(flipped));
    flipped[4] ^= 0x01;
    EXPECT_NE(serve::crc32(flipped), 0xCBF43926u);
}

TEST(Snapshot, RoundTripsRecordsInOrder) {
    const auto path = temp_path("roundtrip.bin");
    std::vector<serve::SnapshotRecord> records;
    for (std::uint64_t t = 0; t < 5; ++t) records.push_back(make_record(t));
    // Exercise edge shapes: interaction pairs, empty names, empty
    // attributions, empty key words.
    records[1].explanation.interactions = {{0, 2, 0.75}, {1, 2, 0x1.5555555555555p-3}};
    records[2].explanation.feature_names.clear();
    records[3].explanation.attributions.clear();
    records[4].key_words.clear();

    ASSERT_TRUE(serve::write_snapshot(path, kHeader, records));
    const auto result = serve::read_snapshot(path, kHeader);
    ASSERT_TRUE(result.loaded);
    EXPECT_EQ(result.skipped, 0u);
    ASSERT_EQ(result.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        expect_record_eq(result.records[i], records[i]);
    std::remove(path.c_str());
}

TEST(Snapshot, EmptySnapshotRoundTrips) {
    const auto path = temp_path("empty.bin");
    ASSERT_TRUE(serve::write_snapshot(path, kHeader, {}));
    const auto result = serve::read_snapshot(path, kHeader);
    EXPECT_TRUE(result.loaded);
    EXPECT_TRUE(result.records.empty());
    EXPECT_EQ(result.skipped, 0u);
    std::remove(path.c_str());
}

TEST(Snapshot, MissingFileStartsCold) {
    const auto result = serve::read_snapshot(temp_path("does_not_exist.bin"), kHeader);
    EXPECT_FALSE(result.loaded);
    EXPECT_TRUE(result.records.empty());
}

TEST(Snapshot, FingerprintMismatchInvalidatesWholeFile) {
    const auto path = temp_path("mismatch.bin");
    ASSERT_TRUE(serve::write_snapshot(path, kHeader, {make_record(1)}));

    serve::SnapshotHeader other_model = kHeader;
    other_model.model_fingerprint ^= 1;
    EXPECT_FALSE(serve::read_snapshot(path, other_model).loaded);

    serve::SnapshotHeader other_bg = kHeader;
    other_bg.background_fingerprint ^= 1;
    EXPECT_FALSE(serve::read_snapshot(path, other_bg).loaded);

    serve::SnapshotHeader other_quantum = kHeader;
    other_quantum.quantum = 0.5;
    EXPECT_FALSE(serve::read_snapshot(path, other_quantum).loaded);
    std::remove(path.c_str());
}

TEST(Snapshot, GarbageFileStartsCold) {
    const auto path = temp_path("garbage.bin");
    spill(path, {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03});
    const auto result = serve::read_snapshot(path, kHeader);
    EXPECT_FALSE(result.loaded);
    EXPECT_TRUE(result.records.empty());
    std::remove(path.c_str());
}

TEST(Snapshot, TruncationAtEveryOffsetNeverFailsStartup) {
    const auto path = temp_path("trunc_src.bin");
    const auto trunc = temp_path("trunc.bin");
    std::vector<serve::SnapshotRecord> records;
    for (std::uint64_t t = 0; t < 4; ++t) records.push_back(make_record(t));
    ASSERT_TRUE(serve::write_snapshot(path, kHeader, records));
    const auto bytes = slurp(path);
    ASSERT_GT(bytes.size(), 36u);

    for (std::size_t len = 0; len <= bytes.size(); ++len) {
        spill(trunc, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)});
        const auto result = serve::read_snapshot(trunc, kHeader);
        // Whatever survives must be an exact prefix of what was written.
        ASSERT_LE(result.records.size(), records.size()) << "len=" << len;
        for (std::size_t i = 0; i < result.records.size(); ++i)
            expect_record_eq(result.records[i], records[i]);
        if (len == bytes.size()) {
            EXPECT_TRUE(result.loaded);
            EXPECT_EQ(result.records.size(), records.size());
        }
    }
    std::remove(path.c_str());
    std::remove(trunc.c_str());
}

TEST(Snapshot, MidFileCorruptionSkipsOnlyDamagedRecords) {
    const auto path = temp_path("corrupt.bin");
    std::vector<serve::SnapshotRecord> records;
    for (std::uint64_t t = 0; t < 6; ++t) records.push_back(make_record(t));
    ASSERT_TRUE(serve::write_snapshot(path, kHeader, records));
    auto bytes = slurp(path);

    // Flip one byte in the middle of the file — inside some record's payload.
    bytes[bytes.size() / 2] ^= 0xFF;
    spill(path, bytes);

    const auto result = serve::read_snapshot(path, kHeader);
    ASSERT_TRUE(result.loaded);
    EXPECT_GE(result.skipped, 1u);
    EXPECT_LT(result.records.size(), records.size());
    EXPECT_GE(result.records.size(), 1u);  // records before the damage survive
    // Every surviving record is bit-exact against the original with the same
    // (unique) key context.
    for (const auto& got : result.records) {
        bool matched = false;
        for (const auto& want : records) {
            if (want.key_context != got.key_context) continue;
            expect_record_eq(got, want);
            matched = true;
        }
        EXPECT_TRUE(matched);
    }
    std::remove(path.c_str());
}

TEST(Snapshot, WriteIsAtomicAgainstExistingSnapshot) {
    const auto path = temp_path("atomic.bin");
    ASSERT_TRUE(serve::write_snapshot(path, kHeader, {make_record(1)}));
    const auto before = slurp(path);

    // A second successful write replaces the file completely (no partial
    // append) and leaves no temporary behind.
    ASSERT_TRUE(serve::write_snapshot(path, kHeader, {make_record(2), make_record(3)}));
    const auto result = serve::read_snapshot(path, kHeader);
    ASSERT_TRUE(result.loaded);
    ASSERT_EQ(result.records.size(), 2u);
    expect_record_eq(result.records[0], make_record(2));
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
    EXPECT_NE(slurp(path), before);
    std::remove(path.c_str());
}

// ------------------------------------------------------ service-level ---

TEST(ServicePersistence, RestartServesByteIdenticalCacheHits) {
    const auto path = temp_path("service.bin");
    std::remove(path.c_str());

    serve::ServiceConfig cfg;
    cfg.method = "kernel_shap";
    cfg.snapshot_path = path;

    const auto features = [](std::uint64_t k) {
        return std::vector<double>{static_cast<double>(k), 0.5, -1.0};
    };
    // The third request also asks for its top two interaction pairs, which
    // the restored entry must carry too.
    const auto request = [&](std::uint64_t id, std::uint64_t k) {
        auto r = request_for(id, features(k));
        r.interactions = k == 2 ? 2 : 0;
        return r;
    };

    // First life: compute and cache three explanations, snapshot at stop().
    std::vector<xai::Explanation> first_life;
    {
        serve::ExplanationService service(sum_model(), tiny_background(), cfg);
        for (std::uint64_t k = 0; k < 3; ++k) {
            auto r = service.explain_sync(request(k, k));
            ASSERT_TRUE(r.ok);
            EXPECT_FALSE(r.cache_hit);
            first_life.push_back(std::move(r.explanation));
        }
        service.stop();
        EXPECT_GE(service.stats().snapshot_writes, 1u);
    }

    // Second life: the same requests must be warm hits with identical bytes.
    {
        serve::ExplanationService service(sum_model(), tiny_background(), cfg);
        EXPECT_EQ(service.stats().snapshot_records_loaded, 3u);
        EXPECT_EQ(service.stats().cache_entries, 3u);
        for (std::uint64_t k = 0; k < 3; ++k) {
            const auto r = service.explain_sync(request(100 + k, k));
            ASSERT_TRUE(r.ok);
            EXPECT_TRUE(r.cache_hit);
            EXPECT_EQ(r.explanation.method, first_life[k].method);
            EXPECT_EQ(r.explanation.prediction, first_life[k].prediction);
            EXPECT_EQ(r.explanation.base_value, first_life[k].base_value);
            EXPECT_EQ(r.explanation.attributions, first_life[k].attributions);
            EXPECT_EQ(r.explanation.interactions.size(), k == 2 ? 2u : 0u);
            expect_pairs_eq(r.explanation.interactions, first_life[k].interactions);
        }
        // A served hit equals what a cold one-shot computation would produce:
        // the snapshot round-trip preserved the determinism contract.
        const auto cold = serve::make_explainer("kernel_shap", tiny_background(),
                                                cfg.seed, 1)
                              ->explain(*sum_model(), features(1));
        EXPECT_EQ(cold.attributions, first_life[1].attributions);
    }
    std::remove(path.c_str());
}

TEST(ServicePersistence, IncompatibleModelStartsColdNotWrong) {
    const auto path = temp_path("service_mismatch.bin");
    std::remove(path.c_str());

    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.snapshot_path = path;
    {
        serve::ExplanationService service(sum_model(), tiny_background(), cfg);
        ASSERT_TRUE(service.explain_sync(request_for(1, {1.0, 2.0, 3.0})).ok);
    }

    // A differently-named model has a different fingerprint: its service must
    // ignore the snapshot rather than serve another model's attributions.
    auto other = std::make_shared<ml::LambdaModel>(
        3, [](std::span<const double> x) { return x[0]; }, "other_model");
    serve::ExplanationService service(other, tiny_background(), cfg);
    EXPECT_EQ(service.stats().snapshot_records_loaded, 0u);
    EXPECT_EQ(service.stats().cache_entries, 0u);
    const auto r = service.explain_sync(request_for(2, {1.0, 2.0, 3.0}));
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.cache_hit);
    std::remove(path.c_str());
}

TEST(ServicePersistence, PeriodicSnapshotsWrittenBySnapshotThread) {
    const auto path = temp_path("service_periodic.bin");
    std::remove(path.c_str());

    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.snapshot_path = path;
    cfg.snapshot_interval = std::chrono::milliseconds(5);
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    ASSERT_TRUE(service.explain_sync(request_for(1, {1.0, 2.0, 3.0})).ok);
    // The snapshot thread must write at least one snapshot without stop().
    for (int spin = 0; spin < 2000 && service.stats().snapshot_writes == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(service.stats().snapshot_writes, 1u);
    const auto result = serve::read_snapshot(
        path, serve::SnapshotHeader{0, 0, cfg.cache_quantum});
    // Loaded under the service's own fingerprints, not zeros — just assert
    // the file exists and is non-empty.
    (void)result;
    EXPECT_FALSE(slurp(path).empty());
    service.stop();
    std::remove(path.c_str());
}

TEST(ServicePersistence, CacheCorruptFaultDegradesToPartialWarmStart) {
    const auto path = temp_path("service_corrupt.bin");
    std::remove(path.c_str());

    serve::FaultInjector::Config fi;
    fi.seed = 77;
    fi.rate[static_cast<std::size_t>(serve::FaultPoint::cache_corrupt)] = 1.0;
    fi.max_fires[static_cast<std::size_t>(serve::FaultPoint::cache_corrupt)] = 1;

    serve::ServiceConfig cfg;
    cfg.method = "occlusion";
    cfg.snapshot_path = path;
    {
        serve::ServiceConfig chaos = cfg;
        chaos.fault_injector = std::make_shared<serve::FaultInjector>(fi);
        serve::ExplanationService service(sum_model(), tiny_background(), chaos);
        for (std::uint64_t k = 0; k < 8; ++k) {
            ASSERT_TRUE(service
                            .explain_sync(request_for(
                                k, {static_cast<double>(k), 2.0, 3.0}))
                            .ok);
        }
        // stop() writes the snapshot, then the fault scrambles one byte.
    }

    // The next life must still start and serve; the damaged record is
    // dropped, the intact ones are warm.
    serve::ExplanationService service(sum_model(), tiny_background(), cfg);
    const auto stats = service.stats();
    EXPECT_GE(stats.snapshot_records_skipped, 1u);
    EXPECT_GE(stats.snapshot_records_loaded, 1u);
    EXPECT_LT(stats.snapshot_records_loaded, 8u);
    const auto r = service.explain_sync(request_for(99, {0.0, 2.0, 3.0}));
    EXPECT_TRUE(r.ok);
    std::remove(path.c_str());
}
