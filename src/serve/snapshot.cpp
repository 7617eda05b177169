#include "serve/snapshot.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace xnfv::serve {

namespace {

constexpr std::uint64_t kFileMagic = 0x3150414e53564e58ULL;  // "XNVSNAP1"
constexpr std::uint32_t kVersion = 2;  // 2: records carry interaction pairs
constexpr std::uint32_t kRecordMagic = 0x52564e58U;  // "XNVR"

/// The CRC-32 lookup table, built once.
const std::array<std::uint32_t, 256>& crc_table() {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/// Append-only byte sink for building a record payload.
struct ByteWriter {
    std::vector<std::uint8_t> bytes;

    void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
    void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }
    void raw(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        bytes.insert(bytes.end(), b, b + n);
    }
};

/// Bounds-checked cursor over a record payload.  Every read reports success;
/// a short or malformed payload fails the record instead of crashing.
struct ByteReader {
    std::span<const std::uint8_t> bytes;
    std::size_t pos = 0;

    [[nodiscard]] bool u32(std::uint32_t& v) { return raw(&v, sizeof(v)); }
    [[nodiscard]] bool u64(std::uint64_t& v) { return raw(&v, sizeof(v)); }
    [[nodiscard]] bool f64(double& v) {
        std::uint64_t bits = 0;
        if (!u64(bits)) return false;
        v = std::bit_cast<double>(bits);
        return true;
    }
    [[nodiscard]] bool str(std::string& s) {
        std::uint32_t len = 0;
        if (!u32(len) || bytes.size() - pos < len) return false;
        s.assign(reinterpret_cast<const char*>(bytes.data() + pos), len);
        pos += len;
        return true;
    }
    [[nodiscard]] bool raw(void* p, std::size_t n) {
        if (bytes.size() - pos < n) return false;
        std::memcpy(p, bytes.data() + pos, n);
        pos += n;
        return true;
    }
    [[nodiscard]] bool done() const { return pos == bytes.size(); }
};

[[nodiscard]] std::vector<std::uint8_t> encode_record(const SnapshotRecord& rec) {
    ByteWriter w;
    w.u64(rec.key_context);
    w.u64(rec.key_words.size());
    for (const std::uint64_t word : rec.key_words) w.u64(word);
    w.str(rec.explanation.method);
    w.f64(rec.explanation.prediction);
    w.f64(rec.explanation.base_value);
    w.u64(rec.explanation.attributions.size());
    for (const double a : rec.explanation.attributions) w.f64(a);
    w.u64(rec.explanation.feature_names.size());
    for (const std::string& name : rec.explanation.feature_names) w.str(name);
    w.u64(rec.explanation.interactions.size());
    for (const xai::InteractionPair& p : rec.explanation.interactions) {
        w.u64(p.i);
        w.u64(p.j);
        w.f64(p.h2);
    }
    return std::move(w.bytes);
}

[[nodiscard]] bool decode_record(std::span<const std::uint8_t> payload,
                                 SnapshotRecord& rec) {
    ByteReader r{payload};
    std::uint64_t n = 0;
    if (!r.u64(rec.key_context) || !r.u64(n)) return false;
    // A length prefix larger than the remaining payload is corruption, not a
    // huge record; the per-element reads below would catch it, but checking
    // up front avoids a pathological reserve.
    if (n > payload.size() / sizeof(std::uint64_t)) return false;
    rec.key_words.resize(n);
    for (std::uint64_t& word : rec.key_words)
        if (!r.u64(word)) return false;
    if (!r.str(rec.explanation.method) || !r.f64(rec.explanation.prediction) ||
        !r.f64(rec.explanation.base_value) || !r.u64(n))
        return false;
    if (n > payload.size() / sizeof(double)) return false;
    rec.explanation.attributions.resize(n);
    for (double& a : rec.explanation.attributions)
        if (!r.f64(a)) return false;
    if (!r.u64(n)) return false;
    if (n > payload.size()) return false;
    rec.explanation.feature_names.resize(n);
    for (std::string& name : rec.explanation.feature_names)
        if (!r.str(name)) return false;
    if (!r.u64(n)) return false;
    if (n > payload.size() / (3 * sizeof(std::uint64_t))) return false;
    rec.explanation.interactions.resize(n);
    for (xai::InteractionPair& p : rec.explanation.interactions) {
        std::uint64_t i = 0, j = 0;
        if (!r.u64(i) || !r.u64(j) || !r.f64(p.h2)) return false;
        p.i = i;
        p.j = j;
    }
    return r.done();
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
    const auto& table = crc_table();
    std::uint32_t c = 0xFFFFFFFFU;
    for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFU] ^ (c >> 8);
    return c ^ 0xFFFFFFFFU;
}

bool write_snapshot(const std::string& path, const SnapshotHeader& header,
                    const std::vector<SnapshotRecord>& records) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return false;
        ByteWriter h;
        h.u64(kFileMagic);
        h.u32(kVersion);
        h.u64(header.model_fingerprint);
        h.u64(header.background_fingerprint);
        h.f64(header.quantum);
        out.write(reinterpret_cast<const char*>(h.bytes.data()),
                  static_cast<std::streamsize>(h.bytes.size()));
        for (const SnapshotRecord& rec : records) {
            const std::vector<std::uint8_t> payload = encode_record(rec);
            ByteWriter frame;
            frame.u32(kRecordMagic);
            frame.u32(static_cast<std::uint32_t>(payload.size()));
            frame.u32(crc32(payload));
            out.write(reinterpret_cast<const char*>(frame.bytes.data()),
                      static_cast<std::streamsize>(frame.bytes.size()));
            out.write(reinterpret_cast<const char*>(payload.data()),
                      static_cast<std::streamsize>(payload.size()));
        }
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

SnapshotLoadResult read_snapshot(const std::string& path, const SnapshotHeader& expect) {
    SnapshotLoadResult result;
    std::ifstream in(path, std::ios::binary);
    if (!in) return result;
    std::vector<std::uint8_t> data{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
    ByteReader r{data};

    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    SnapshotHeader header;
    if (!r.u64(magic) || magic != kFileMagic || !r.u32(version) ||
        version != kVersion || !r.u64(header.model_fingerprint) ||
        !r.u64(header.background_fingerprint) || !r.f64(header.quantum))
        return result;
    if (header.model_fingerprint != expect.model_fingerprint ||
        header.background_fingerprint != expect.background_fingerprint ||
        header.quantum != expect.quantum)
        return result;
    result.loaded = true;

    // Record scan.  On any per-record failure, resync: advance one byte past
    // the failed record's magic and search for the next one, so a single
    // corrupted record cannot take the rest of the snapshot with it.
    while (r.pos < data.size()) {
        const std::size_t record_start = r.pos;
        std::uint32_t magic32 = 0, len = 0, crc = 0;
        bool ok = r.u32(magic32) && magic32 == kRecordMagic && r.u32(len) &&
                  r.u32(crc) && data.size() - r.pos >= len;
        if (ok) {
            const std::span<const std::uint8_t> payload(data.data() + r.pos, len);
            SnapshotRecord rec;
            if (crc32(payload) == crc && decode_record(payload, rec)) {
                r.pos += len;
                result.records.push_back(std::move(rec));
                continue;
            }
            ok = false;
        }
        // Truncated tail: no further complete record can start here.
        if (data.size() - record_start < 12) {
            if (!ok) ++result.skipped;
            break;
        }
        ++result.skipped;
        // Resync on the next record magic after this failed start.
        std::size_t next = record_start + 1;
        const std::uint8_t m0 = static_cast<std::uint8_t>(kRecordMagic & 0xFF);
        while (next + 4 <= data.size()) {
            if (data[next] == m0) {
                std::uint32_t candidate = 0;
                std::memcpy(&candidate, data.data() + next, 4);
                if (candidate == kRecordMagic) break;
            }
            ++next;
        }
        if (next + 4 > data.size()) break;
        r.pos = next;
    }
    return result;
}

}  // namespace xnfv::serve
