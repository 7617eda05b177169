// Crash-safe persistence of the explanation cache.
//
// A service restart normally starts cold: every cached explanation is lost
// and the first wave of repeat traffic pays full compute again.  The
// snapshot module writes the cache to disk in a format designed around the
// assumption that *the previous process may have died mid-write or the file
// may have been damaged afterwards*:
//
//   * the writer always produces a temporary file and atomically renames it
//     over the target, so a crash during writing leaves the previous
//     snapshot intact;
//   * every record carries its own magic, length and CRC32, so the reader
//     can verify each record independently, skip corrupted ones by scanning
//     forward to the next record magic, and stop cleanly at a truncation —
//     a damaged snapshot degrades to a smaller warm set, never to a failed
//     startup;
//   * the header pins the model fingerprint, background fingerprint and
//     cache quantum; a mismatch invalidates the whole snapshot (explanations
//     are pure functions of those inputs, so stale entries would be wrong,
//     not merely cold).
//
// Layout (all integers little-endian as written by this host):
//   header : u64 magic "XNVSNAP1" | u32 version | u64 model_fp
//          | u64 background_fp | f64 quantum
//   record : u32 magic "XNVR" | u32 payload_len | u32 crc32(payload)
//          | payload bytes
//   payload: u64 context | u64 nwords | nwords*u64
//          | method (u32 len + bytes) | f64 prediction | f64 base_value
//          | u64 nattr | nattr*f64 | u64 nnames | nnames*(u32 len + bytes)
//          | u64 npairs | npairs*(u64 i | u64 j | f64 h2)
// Version 2 added the interaction pairs; a version-1 file fails the header
// check, and its model starts cold.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/explanation.hpp"
#include "serve/explanation_cache.hpp"

namespace xnfv::serve {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `bytes`.
/// crc32 of "123456789" is 0xCBF43926 — the standard check value.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// Snapshot identity: what the cached explanations are a function of.
struct SnapshotHeader {
    std::uint64_t model_fingerprint = 0;
    std::uint64_t background_fingerprint = 0;
    double quantum = 0.0;
};

/// One persisted cache entry.
struct SnapshotRecord {
    std::vector<std::uint64_t> key_words;
    std::uint64_t key_context = 0;
    xnfv::xai::Explanation explanation;
};

struct SnapshotLoadResult {
    /// False when the file is missing, unreadable, has a bad header, or the
    /// header does not match `expect` — in every case `records` is empty and
    /// the caller simply starts cold.
    bool loaded = false;
    std::vector<SnapshotRecord> records;
    /// Records dropped for bad CRC, bad length, or truncation.
    std::uint64_t skipped = 0;
};

/// Writes `records` to `path` atomically (tmp file + rename).  Returns false
/// on any I/O failure; the previous snapshot, if any, is left untouched.
[[nodiscard]] bool write_snapshot(const std::string& path, const SnapshotHeader& header,
                                  const std::vector<SnapshotRecord>& records);

/// Reads a snapshot, tolerating truncation and per-record corruption: bad
/// records are skipped (counted in `skipped`) by resyncing on the record
/// magic; a short tail ends the scan.  Never throws on malformed input.
[[nodiscard]] SnapshotLoadResult read_snapshot(const std::string& path,
                                               const SnapshotHeader& expect);

}  // namespace xnfv::serve
