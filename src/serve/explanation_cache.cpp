#include "serve/explanation_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace xnfv::serve {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t seed) noexcept {
    std::uint64_t h = seed;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t seed) noexcept {
    std::uint8_t bytes[8];
    std::memcpy(bytes, &value, sizeof(bytes));
    return fnv1a(bytes, seed);
}

std::uint64_t hash_string(const std::string& s, std::uint64_t seed) noexcept {
    return fnv1a({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, seed);
}

CacheKey::CacheKey(std::span<const double> features, double quantum,
                   std::uint64_t context)
    : context_(context) {
    words_.reserve(features.size());
    for (const double v : features) {
        if (quantum > 0.0) {
            // Grid index; +0.0 normalizes -0.0 so both sides share a cell.
            words_.push_back(std::bit_cast<std::uint64_t>(
                std::nearbyint(v / quantum) + 0.0));
        } else {
            words_.push_back(std::bit_cast<std::uint64_t>(v));
        }
    }
    rehash();
}

CacheKey::CacheKey(std::vector<std::uint64_t> words, std::uint64_t context)
    : words_(std::move(words)), context_(context) {
    rehash();
}

void CacheKey::rehash() noexcept {
    std::uint64_t h = fnv1a_u64(context_, 0xcbf29ce484222325ULL);
    for (const std::uint64_t w : words_) h = fnv1a_u64(w, h);
    hash_ = h;
}

ExplanationCache::ExplanationCache(std::size_t capacity, std::size_t shards) {
    capacity = std::max<std::size_t>(1, capacity);
    shards = std::min(std::max<std::size_t>(1, std::bit_floor(shards)), capacity);
    shards_ = std::vector<Shard>(shards);
    shard_mask_ = shards - 1;
    shard_capacity_ = (capacity + shards - 1) / shards;
}

std::optional<xnfv::xai::Explanation> ExplanationCache::lookup(const CacheKey& key) {
    Shard& shard = shard_for(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        misses_.inc();
        return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.inc();
    return it->second->explanation;
}

void ExplanationCache::insert(const CacheKey& key, xnfv::xai::Explanation explanation) {
    Shard& shard = shard_for(key);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        it->second->explanation = std::move(explanation);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    if (shard.lru.size() >= shard_capacity_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        evictions_.inc();
    }
    shard.lru.push_front(Entry{key, std::move(explanation)});
    shard.index.emplace(key, shard.lru.begin());
}

std::vector<std::pair<CacheKey, xnfv::xai::Explanation>>
ExplanationCache::export_lru_oldest_first() const {
    std::vector<std::pair<CacheKey, xnfv::xai::Explanation>> out;
    out.reserve(size());
    for (const Shard& shard : shards_) {
        std::lock_guard lock(shard.mutex);
        // front = most recent, so walk back-to-front for oldest-first.
        for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it)
            out.emplace_back(it->key, it->explanation);
    }
    return out;
}

CacheStats ExplanationCache::stats() const {
    CacheStats s;
    s.hits = hits_.value();
    s.misses = misses_.value();
    s.evictions = evictions_.value();
    s.entries = size();
    return s;
}

std::size_t ExplanationCache::size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard lock(shard.mutex);
        total += shard.lru.size();
    }
    return total;
}

std::size_t ExplanationCache::capacity() const noexcept {
    return shard_capacity_ * shards_.size();
}

}  // namespace xnfv::serve
