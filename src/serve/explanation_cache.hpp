// Sharded LRU cache of computed explanations.
//
// NFV monitoring traffic is highly repetitive: the same telemetry rows (or
// rows quantized to the same grid) are flagged again and again across
// polling intervals.  An explanation is a pure function of
// (model, explainer spec, instance), so repeats can skip the entire
// model-evaluation loop.  Keys combine
//   * a model fingerprint (hash of the serialized model),
//   * an explainer-config hash (method, seed, background fingerprint,
//     quantization step),
//   * the quantized feature vector (bit patterns when quantum == 0).
// The store is sharded by key hash: each shard has its own mutex, intrusive
// LRU list and hash map, so concurrent lookups from batch workers contend
// only within a shard.  Hits, misses and evictions are counted per cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/explanation.hpp"
#include "serve/metrics.hpp"

namespace xnfv::serve {

/// Precomputed cache key: the quantized feature words plus the combined
/// model/config context, hashed once at construction.
class CacheKey {
public:
    /// Quantizes `features` with step `quantum` (0 = exact: raw IEEE-754 bit
    /// patterns) and mixes in `context` (model fingerprint ^ config hash).
    CacheKey(std::span<const double> features, double quantum, std::uint64_t context);

    /// Rehydrates a key from its persisted representation (serve/snapshot):
    /// the already-quantized words plus the context, hash recomputed.  A key
    /// rebuilt this way compares equal to the original.
    CacheKey(std::vector<std::uint64_t> words, std::uint64_t context);

    [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }
    [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
        return words_;
    }
    [[nodiscard]] std::uint64_t context() const noexcept { return context_; }
    [[nodiscard]] bool operator==(const CacheKey& other) const noexcept {
        return hash_ == other.hash_ && context_ == other.context_ &&
               words_ == other.words_;
    }

private:
    void rehash() noexcept;

    std::vector<std::uint64_t> words_;
    std::uint64_t context_;
    std::uint64_t hash_;
};

struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
};

/// Sharded LRU map from CacheKey to Explanation.
class ExplanationCache {
public:
    /// `capacity` entries total, spread over `shards` independent LRU lists
    /// (both clamped to >= 1; shards is rounded down to a power of two so
    /// shard selection is a mask).
    ExplanationCache(std::size_t capacity, std::size_t shards);

    ExplanationCache(const ExplanationCache&) = delete;
    ExplanationCache& operator=(const ExplanationCache&) = delete;

    /// Returns a copy of the cached explanation and refreshes its LRU
    /// position, or nullopt on miss.  Counts a hit or a miss.
    [[nodiscard]] std::optional<xnfv::xai::Explanation> lookup(const CacheKey& key);

    /// Inserts (or refreshes) an entry, evicting the shard's LRU tail when
    /// the shard is at capacity.
    void insert(const CacheKey& key, xnfv::xai::Explanation explanation);

    /// Copies every entry out, least-recently-used first (per shard, shards
    /// concatenated).  Re-inserting the result in order reproduces each
    /// shard's recency order exactly — the snapshot writer uses this so a
    /// restored cache evicts in the same order the live one would have.
    [[nodiscard]] std::vector<std::pair<CacheKey, xnfv::xai::Explanation>>
    export_lru_oldest_first() const;

    [[nodiscard]] CacheStats stats() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t capacity() const noexcept;
    [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }

private:
    struct Entry {
        CacheKey key;
        xnfv::xai::Explanation explanation;
    };
    struct KeyHash {
        std::size_t operator()(const CacheKey& k) const noexcept {
            return static_cast<std::size_t>(k.hash());
        }
    };
    struct Shard {
        mutable std::mutex mutex;
        std::list<Entry> lru;  ///< front = most recent
        std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index;
    };

    [[nodiscard]] Shard& shard_for(const CacheKey& key) noexcept {
        // High bits pick the shard; low bits drive the in-shard hash map.
        return shards_[(key.hash() >> 48) & shard_mask_];
    }

    std::vector<Shard> shards_;
    std::uint64_t shard_mask_;
    std::size_t shard_capacity_;
    Counter hits_, misses_, evictions_;
};

/// FNV-1a over arbitrary bytes — the project-wide fingerprint helper for
/// cache keys (model text, config fields, background data).
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;
[[nodiscard]] std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t seed) noexcept;
/// fnv1a over the bytes of `s`, chained from `seed`.
[[nodiscard]] std::uint64_t hash_string(const std::string& s, std::uint64_t seed) noexcept;

}  // namespace xnfv::serve
