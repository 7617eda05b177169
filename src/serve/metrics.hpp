// Service metrics: lock-free recorders, plain snapshots, and the one table
// that defines every `stats` key.
//
// The online explanation service records every event on its hot path —
// enqueue, reject, batch flush, cache hit/miss, completion — so an operator
// can read queue depth, batch-size distribution, cache hit rate, and
// p50/p95/p99 service time from one report.  Recording is thread-safe and
// cheap: counters are single atomics, histograms are arrays of atomic
// bucket counts (relaxed ordering; a report is a statistical snapshot, not a
// linearizable one).
//
// Every `stats` key is defined once, by its row in metrics.cpp's descriptor
// table (kind, text-report label, fleet merge rule); reset, snapshot, both
// renderings and the fleet merge are loops over that table.  Snapshots carry
// raw histogram buckets, so fleet quantiles are exact.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/errors.hpp"
#include "serve/explainers.hpp"

namespace xnfv::serve {

class ModelEntry;

/// Monotonic event counter.
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    /// Zeroes the tally (per-phase SLO measurement via op=stats_reset).
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth) that also tracks its high-water mark.
class Gauge {
public:
    void set(std::uint64_t v) noexcept {
        value_.store(v, std::memory_order_relaxed);
        std::uint64_t seen = max_.load(std::memory_order_relaxed);
        while (v > seen && !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t max() const noexcept {
        return max_.load(std::memory_order_relaxed);
    }
    /// Restarts the high-water mark from the current level; the level itself
    /// is live state (queue depth) and survives a reset.
    void reset() noexcept {
        max_.store(value_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
    std::atomic<std::uint64_t> max_{0};
};

/// Plain copy of a Histogram's state.  The bucket bounds are fixed, so two
/// snapshots merge exactly: the merge of N shard snapshots equals the
/// snapshot of one histogram fed every shard's samples, quantiles included.
struct HistogramSnapshot {
    static constexpr std::size_t kBuckets = 64;

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< 0 when empty
    std::uint64_t max = 0;

    /// Adds `other`'s samples to this snapshot.
    void merge(const HistogramSnapshot& other) noexcept;
    [[nodiscard]] double mean() const noexcept;
    /// Same estimate as Histogram::quantile over the same samples.
    [[nodiscard]] double quantile(double q) const noexcept;

    [[nodiscard]] bool operator==(const HistogramSnapshot&) const = default;
};

/// Histogram over non-negative integer samples (microseconds, batch sizes)
/// with geometric bucket bounds: 1, 2, 4, ... 2^62, plus an underflow bucket
/// for 0.  Quantiles are estimated by linear interpolation inside the
/// containing bucket — coarse but monotone, and good enough for a p99 on a
/// log-scale latency distribution.
class Histogram {
public:
    void record(std::uint64_t sample) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double mean() const noexcept { return snapshot().mean(); }
    [[nodiscard]] std::uint64_t min() const noexcept { return snapshot().min; }
    [[nodiscard]] std::uint64_t max() const noexcept {
        return max_.load(std::memory_order_relaxed);
    }

    /// Estimated q-quantile, q in [0, 1].  Returns 0 on an empty histogram.
    [[nodiscard]] double quantile(double q) const noexcept;

    [[nodiscard]] HistogramSnapshot snapshot() const noexcept;

    /// Forgets every recorded sample (per-phase SLO measurement).
    void reset() noexcept;

private:
    std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
};

/// Per-explainer slice of a stats snapshot (only explainers that computed
/// at least one explanation are reported): how many explanations each
/// method computed, how many of those rode an exact fast path, and the
/// method's compute-latency distribution — the observability half of the
/// fast-path contract (a regression that silently drops tree traffic off
/// the flat kernel shows up here as fast_path_hits diverging from
/// requests).
struct ExplainerSliceStats {
    std::string name;
    std::uint64_t requests = 0;        ///< computed explanations (cache misses)
    std::uint64_t fast_path_hits = 0;  ///< subset served by an exact fast path
    double compute_us_p50 = 0.0;
    double compute_us_p99 = 0.0;
    double compute_us_mean = 0.0;
    HistogramSnapshot compute_us;  ///< raw buckets behind the compute_us_* figures
};

/// Per-model slice of a stats snapshot (one line of the "models" section;
/// one element of the `models` array in the ND-JSON stats payload).
struct ModelServiceStats {
    std::string name;
    std::string fingerprint;  ///< current version, lower-case hex
    std::uint64_t admitted = 0;
    std::uint64_t rejected_quota = 0;
    std::uint64_t swaps = 0;
    std::uint64_t evals = 0;
    std::uint64_t completed = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_epoch = 0;
    std::uint64_t queued = 0;  ///< jobs currently in this model's class FIFO
    std::uint64_t weight = 1;
    std::uint64_t quota = 0;
    double base_value = 0.0;
    /// Circuit-breaker state (0 closed, 1 open, 2 half-open) and lifetime
    /// open transitions / rejected admissions for this tenant.
    std::uint64_t breaker_state = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t breaker_rejected = 0;
};

/// Snapshot of ServiceMetrics plus registry and fleet facts,
/// renderable as the operator-facing text report and as the `stats`
/// request's payload.  Histogram figures (`*_p50`, `*_mean`, `*_max`) are
/// derived from the raw snapshots beside them by derive().
struct ServiceStats {
    std::uint64_t requests_accepted = 0;   ///< submissions admitted: hit at admission or queued
    std::uint64_t requests_rejected = 0;   ///< submissions refused at the door
    std::uint64_t requests_completed = 0;  ///< responses delivered (hit or computed)
    std::uint64_t requests_degraded = 0;   ///< responses served below full fidelity
    std::uint64_t batches = 0;             ///< batches executed (dispatched work only)
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_entries = 0;
    std::array<std::uint64_t, kNumServeErrors> errors_by_reason{};
    /// Dispatcher stall episodes: heartbeat older than kStallThreshold
    /// (serve/service.hpp) while jobs were queued.
    std::uint64_t worker_stalls = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t snapshot_writes = 0;  ///< cache snapshots persisted
    std::uint64_t snapshot_records_loaded = 0;
    std::uint64_t snapshot_records_skipped = 0;  ///< corrupt/truncated records dropped
    std::uint64_t queue_depth = 0;
    std::uint64_t queue_depth_max = 0;
    double batch_size_mean = 0.0;
    std::uint64_t batch_size_max = 0;
    double service_us_p50 = 0.0;
    double service_us_p95 = 0.0;
    double service_us_p99 = 0.0;
    double service_us_mean = 0.0;
    double compute_us_mean = 0.0;
    /// Total model rows evaluated by explainers (probe volume), and its
    /// per-computed-explanation distribution — the cost side of the
    /// batched-inference path.
    std::uint64_t model_evals = 0;
    double probe_rows_p50 = 0.0;
    double probe_rows_mean = 0.0;
    std::uint64_t probe_rows_max = 0;
    /// Explanations computed on an exact fast path, and the per-explainer
    /// breakdown (ExplainerSliceStats; empty until something computes).
    std::uint64_t fast_path_hits = 0;
    std::vector<ExplainerSliceStats> explainers;
    /// Drift-triggered invalidation: windows compared, epoch bumps, and the
    /// current cache epoch (mixed into every cache key).
    std::uint64_t drift_checks = 0;
    std::uint64_t drift_flushes = 0;
    std::uint64_t cache_epoch = 0;

    /// TCP front-end section (src/net/); all-zero with `net_enabled` false
    /// when the service runs in-process only.
    bool net_enabled = false;
    /// Event-loop shards serving (ShardedServer; `serve --shards`).
    std::uint64_t net_shards = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_active = 0;
    std::uint64_t connections_active_max = 0;
    std::uint64_t connections_rejected = 0;  ///< over the connection limit
    std::uint64_t connections_closed_idle = 0;
    std::uint64_t connections_closed_backpressure = 0;  ///< output cap breaches
    std::uint64_t net_bytes_in = 0;
    std::uint64_t net_bytes_out = 0;
    std::uint64_t net_requests = 0;  ///< frames answered; shown by the TCP server only
    double conn_requests_p50 = 0.0;  ///< per-connection request count quantiles
    double conn_requests_mean = 0.0;
    std::uint64_t conn_requests_max = 0;
    /// Resilience layer: socket-level chaos faults fired, and retried rids
    /// answered from a session's dedup window.
    std::uint64_t net_faults_injected = 0;
    std::uint64_t net_retry_duplicates = 0;

    /// Multi-model registry section: live entries in registration order.
    /// A single-model service reports exactly one entry (its default model).
    std::uint64_t models_registered = 0;
    std::uint64_t model_swaps = 0;  ///< hot swaps applied across all models
    std::vector<ModelServiceStats> models;

    /// Raw buckets behind the histogram figures above.
    HistogramSnapshot batch_size;
    HistogramSnapshot service_time_us;
    HistogramSnapshot compute_time_us;
    HistogramSnapshot probe_rows;
    HistogramSnapshot conn_requests;

    /// Hit fraction in [0, 1]; 0 when no lookups happened yet.
    [[nodiscard]] double cache_hit_rate() const noexcept;

    /// Recomputes every histogram figure from its raw buckets, and the
    /// errors_by_reason entries that mirror a net counter.  Idempotent.
    void derive();

    /// Multi-line text report, e.g. for `xnfv_cli serve` op=stats.
    [[nodiscard]] std::string to_string() const;
};

/// Renders a stats snapshot as the `{"op":"stats"}` response payload.  Net
/// front-end keys are included only when `stats.net_enabled` is set.
[[nodiscard]] std::string render_stats(const ServiceStats& stats);

/// Fleet snapshot of N shard snapshots, each key merged by its table rule.
/// Merging one snapshot returns its values unchanged.  `shards` must not be
/// empty.
[[nodiscard]] ServiceStats merge_stats(std::span<const ServiceStats> shards);

/// Recorders of one explainer's slice (indexed like kExplainerNames).
struct ExplainerMetrics {
    Counter requests;
    Counter fast_path_hits;
    Histogram compute_us;
};

static_assert(alignof(std::uint64_t) >= std::atomic_ref<std::uint64_t>::required_alignment);

/// Everything the service and its TCP front-end record, grouped for
/// snapshotting.
struct ServiceMetrics {
    /// Counts `n` events of a counter key: one relaxed atomic add.
    void inc(std::uint64_t ServiceStats::* key, std::uint64_t n = 1) noexcept {
        std::atomic_ref(counts.*key).fetch_add(n, std::memory_order_relaxed);
    }
    /// Per-ServeError failure tally: submit-time rejections and error
    /// responses alike, so one array answers "what is failing and why".
    void count_error(ServeError error) noexcept {
        const auto i = static_cast<std::size_t>(error);
        if (i == 0 || i >= kNumServeErrors) return;
        std::atomic_ref(counts.errors_by_reason[i]).fetch_add(1, std::memory_order_relaxed);
    }

    /// Zeroes every counter and histogram and restarts gauge high-water
    /// marks, so the next stats snapshot covers only what happened after the
    /// reset (the op=stats_reset contract).  Live levels (queue depth) and
    /// registry facts (model fingerprints, cache occupancy) are untouched.
    void reset() noexcept;

    /// Every recorded key, histogram figures derived.  Registry and fleet
    /// facts are left for their owners to fill in.
    [[nodiscard]] ServiceStats snapshot() const;

    /// The counter keys and errors_by_reason, counted in place and only
    /// ever accessed through std::atomic_ref; the other fields stay unused.
    mutable ServiceStats counts;
    std::array<ExplainerMetrics, kNumExplainers> explainers;
    Gauge queue_depth;
    Histogram batch_size;        ///< requests per executed batch
    Histogram service_time_us;   ///< enqueue -> response, per request
    Histogram compute_time_us;   ///< model/explainer time, per cache miss
    Histogram probe_rows;        ///< model rows evaluated, per ok computed explanation
    Histogram conn_requests;     ///< requests per closed TCP connection
};

/// Copies a registered model's counters into its stats slice.
void read_model_metrics(const ModelEntry& entry, ModelServiceStats& slice);

}  // namespace xnfv::serve
