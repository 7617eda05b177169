// FNV-1a 64: the one hash behind every fingerprint in the project — cache
// keys, model fingerprints, snapshot headers, fault draws, and the scenario
// and load-generator hashes.  Persisted keys and seeded schedules are pure
// functions of these helpers, so they must never change a bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace xnfv::serve {

/// The FNV-1a 64 offset basis: the hash of the empty input, and the seed
/// every chain starts from.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over arbitrary bytes, chained from `seed`.
[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                         std::uint64_t seed = kFnvOffsetBasis) noexcept {
    std::uint64_t h = seed;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// fnv1a over the 8 bytes of `value` in native byte order, chained from `seed`.
[[nodiscard]] inline std::uint64_t fnv1a_u64(std::uint64_t value,
                                             std::uint64_t seed = kFnvOffsetBasis) noexcept {
    std::uint8_t bytes[8];
    std::memcpy(bytes, &value, sizeof(bytes));
    return fnv1a(bytes, seed);
}

/// fnv1a over the bytes of `s`, chained from `seed`.
[[nodiscard]] inline std::uint64_t hash_string(const std::string& s,
                                               std::uint64_t seed = kFnvOffsetBasis) noexcept {
    return fnv1a({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, seed);
}

}  // namespace xnfv::serve
