#include "serve/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string_view>

#include "serve/ndjson.hpp"
#include "serve/registry.hpp"

namespace xnfv::serve {

namespace {

/// Bucket index for a sample: 0 holds the value 0, bucket i >= 1 holds
/// [2^(i-1), 2^i).  bit_width(1)=1 -> bucket 1, bit_width(2..3)=2 -> 2, ...
[[nodiscard]] std::size_t bucket_of(std::uint64_t sample) noexcept {
    if (sample == 0) return 0;
    return std::min<std::size_t>(std::bit_width(sample), HistogramSnapshot::kBuckets - 1);
}

/// Inclusive value range covered by bucket i (see bucket_of).
[[nodiscard]] std::pair<double, double> bucket_range(std::size_t i) noexcept {
    if (i == 0) return {0.0, 0.0};
    const double lo = static_cast<double>(std::uint64_t{1} << (i - 1));
    return {lo, 2.0 * lo - 1.0};
}

/// The q-quantile estimate over `n` samples whose bucket counts `bucket(i)`
/// yields; `top()` is the largest sample.  Shared by the live histogram
/// (which reads its atomics lazily) and by snapshots.
template <class Bucket, class Top>
[[nodiscard]] double estimate_quantile(std::uint64_t n, double q, Bucket bucket,
                                       Top top) noexcept {
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested quantile among n samples (1-based, ceil).
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
        const std::uint64_t in_bucket = bucket(i);
        if (in_bucket == 0) continue;
        if (seen + in_bucket >= rank) {
            const auto [lo, hi] = bucket_range(i);
            // The final bucket also absorbs every sample past its nominal
            // range (bucket_of clamps bit_width), so interpolating against
            // the nominal bound under-reports heavy tails; the recorded max
            // is the true upper edge.  Inner buckets clamp to it too, so a
            // quantile never exceeds any observed sample.
            const double max = static_cast<double>(top());
            const double hi_eff =
                i == HistogramSnapshot::kBuckets - 1 ? max : std::min(hi, max);
            const double frac =
                static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
            return lo + (hi_eff - lo) * frac;
        }
        seen += in_bucket;
    }
    return static_cast<double>(top());
}

}  // namespace

void Histogram::record(std::uint64_t sample) noexcept {
    buckets_[bucket_of(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (sample < seen &&
           !min_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (sample > seen &&
           !max_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
    }
}

double Histogram::quantile(double q) const noexcept {
    return estimate_quantile(
        count(), q,
        [this](std::size_t i) { return buckets_[i].load(std::memory_order_relaxed); },
        [this] { return max(); });
}

HistogramSnapshot Histogram::snapshot() const noexcept {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < s.buckets.size(); ++i)
        s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count = count();
    s.sum = sum();
    const std::uint64_t lo = min_.load(std::memory_order_relaxed);
    s.min = lo == UINT64_MAX ? 0 : lo;
    s.max = max();
    return s;
}

void Histogram::reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) noexcept {
    if (other.count == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
    min = count == 0 ? other.min : std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
    sum += other.sum;
}

double HistogramSnapshot::mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::quantile(double q) const noexcept {
    return estimate_quantile(
        count, q, [this](std::size_t i) { return buckets[i]; }, [this] { return max; });
}

double ServiceStats::cache_hit_rate() const noexcept {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) / static_cast<double>(lookups);
}

// ------------------------------------------------------ descriptor tables ---

namespace {

/// What a key measures.  A key with a recorder column is read from
/// ServiceMetrics (or a ModelEntry); the others are filled in by their
/// owner: the registry, an object the fleet shares, or the TCP front-end.
enum class Kind : std::uint8_t {
    counter,     ///< events since the last reset
    level,       ///< a current level; survives a reset
    high_water,  ///< the peak level since the last reset
    histogram,   ///< a figure derived from raw buckets
    fact,        ///< registry state or a fleet-wide count; survives a reset
    ratio,       ///< computed from other keys when rendered
    slices,      ///< per-reason, per-explainer or per-model breakdown
};

/// How a key combines across shards.
enum class Merge : std::uint8_t {
    sum,       ///< counters and levels
    largest,   ///< the largest shard's value: per-shard peaks, epochs, settings
    first,     ///< one shard's value: facts the admin fan-out copies to
               ///< every shard, and counts read from an object they share
    severity,  ///< breaker state: open > half-open > closed
    buckets,   ///< histograms: buckets added, figures derived once
    derived,   ///< recomputed from merged keys
    by_name,   ///< slices matched by name, each field by its own rule
};

enum class Stat : std::uint8_t { p50, p95, p99, mean, max };
enum class Slice : std::uint8_t { none, reasons, explainers, models };

/// One key of a stats struct S whose recorders live in R.
template <class S, class R>
struct Field {
    const char* key;
    Kind kind;
    Merge merge;
    const char* line = nullptr;   ///< text-report line
    const char* label = nullptr;  ///< text-report label; null = not in the report
    int digits = 1;               ///< decimals of a double in the report
    bool json = true;             ///< written to the `stats` payload
    bool net = false;             ///< TCP front-end key: needs net_enabled
    std::uint64_t S::* u64 = nullptr;
    double S::* f64 = nullptr;
    std::string S::* str = nullptr;
    HistogramSnapshot S::* hist = nullptr;  ///< a histogram figure's raw buckets
    Stat stat = Stat::p50;
    Counter R::* counter = nullptr;
    Gauge R::* gauge = nullptr;
    Histogram R::* recorder = nullptr;
    /// errors_by_reason entry that repeats this count.
    ServeError mirror = ServeError::none;
    double (S::*ratio)() const noexcept = nullptr;
    Slice slice = Slice::none;
};

using enum Kind;
using enum Merge;
using enum Stat;

using ExplainerField = Field<ExplainerSliceStats, ExplainerMetrics>;
using ModelField = Field<ModelServiceStats, ModelEntry>;
using Row = Field<ServiceStats, ServiceMetrics>;

using E = ExplainerSliceStats;
using EM = ExplainerMetrics;
constexpr ExplainerField kExplainerFields[] = {
    {.key = "name", .kind = fact, .merge = first, .str = &E::name},
    {.key = "requests", .kind = counter, .merge = sum, .label = "requests",
     .u64 = &E::requests, .counter = &EM::requests},
    {.key = "fast_path_hits", .kind = counter, .merge = sum, .label = "fast",
     .u64 = &E::fast_path_hits, .counter = &EM::fast_path_hits},
    {.key = "compute_us_p50", .kind = histogram, .merge = buckets, .label = "compute-us-p50",
     .f64 = &E::compute_us_p50, .hist = &E::compute_us, .stat = p50,
     .recorder = &EM::compute_us},
    {.key = "compute_us_p99", .kind = histogram, .merge = buckets, .label = "p99",
     .f64 = &E::compute_us_p99, .hist = &E::compute_us, .stat = p99,
     .recorder = &EM::compute_us},
    {.key = "compute_us_mean", .kind = histogram, .merge = buckets, .label = "mean",
     .f64 = &E::compute_us_mean, .hist = &E::compute_us, .stat = mean,
     .recorder = &EM::compute_us},
};

using M = ModelServiceStats;
constexpr ModelField kModelFields[] = {
    {.key = "name", .kind = fact, .merge = first, .str = &M::name},
    {.key = "fingerprint", .kind = fact, .merge = first, .label = "fp",
     .str = &M::fingerprint},
    {.key = "admitted", .kind = counter, .merge = sum, .label = "admitted",
     .u64 = &M::admitted, .counter = &ModelEntry::admitted},
    {.key = "rejected_quota", .kind = counter, .merge = sum, .label = "quota-rejected",
     .u64 = &M::rejected_quota, .counter = &ModelEntry::rejected_quota},
    // The admin fan-out applies every swap to every shard.
    {.key = "swaps", .kind = counter, .merge = first, .label = "swaps", .u64 = &M::swaps,
     .counter = &ModelEntry::swaps},
    {.key = "evals", .kind = counter, .merge = sum, .label = "evals", .u64 = &M::evals,
     .counter = &ModelEntry::evals},
    {.key = "completed", .kind = counter, .merge = sum, .label = "completed",
     .u64 = &M::completed, .counter = &ModelEntry::completed},
    {.key = "cache_entries", .kind = level, .merge = sum, .label = "cache",
     .u64 = &M::cache_entries},
    {.key = "cache_evictions", .kind = counter, .merge = sum, .label = "evictions",
     .u64 = &M::cache_evictions},
    {.key = "cache_epoch", .kind = fact, .merge = largest, .label = "epoch",
     .u64 = &M::cache_epoch},
    {.key = "queued", .kind = level, .merge = sum, .label = "queued", .u64 = &M::queued},
    {.key = "weight", .kind = fact, .merge = first, .label = "w", .u64 = &M::weight},
    {.key = "quota", .kind = fact, .merge = first, .label = "q", .u64 = &M::quota},
    {.key = "base_value", .kind = fact, .merge = first, .f64 = &M::base_value},
    {.key = "breaker_state", .kind = fact, .merge = severity, .label = "breaker",
     .u64 = &M::breaker_state},
    {.key = "breaker_opens", .kind = counter, .merge = sum, .label = "opens",
     .u64 = &M::breaker_opens, .counter = &ModelEntry::breaker_opens},
    {.key = "breaker_rejected", .kind = counter, .merge = sum, .label = "breaker-rejected",
     .u64 = &M::breaker_rejected, .counter = &ModelEntry::breaker_rejected},
};

/// Every top-level key of a stats snapshot, in `stats` payload order; rows
/// of one text-report line are adjacent.
using S = ServiceStats;
using R = ServiceMetrics;
constexpr Row kRows[] = {
    {.key = "requests_accepted", .kind = counter, .merge = sum, .line = "requests",
     .label = "accepted", .u64 = &S::requests_accepted},
    {.key = "requests_rejected", .kind = counter, .merge = sum, .line = "requests",
     .label = "rejected", .u64 = &S::requests_rejected},
    {.key = "requests_completed", .kind = counter, .merge = sum, .line = "requests",
     .label = "completed", .u64 = &S::requests_completed},
    {.key = "requests_degraded", .kind = counter, .merge = sum, .line = "requests",
     .label = "degraded", .u64 = &S::requests_degraded},
    // Queues and their capacity are per shard, so the fleet peak is the
    // deepest shard queue.
    {.key = "queue_depth", .kind = level, .merge = sum, .line = "queue", .label = "depth",
     .json = false, .u64 = &S::queue_depth, .gauge = &R::queue_depth},
    {.key = "queue_depth_max", .kind = high_water, .merge = largest, .line = "queue",
     .label = "max-depth", .json = false, .u64 = &S::queue_depth_max,
     .gauge = &R::queue_depth},
    {.key = "batches", .kind = counter, .merge = sum, .line = "batches", .label = "flushed",
     .u64 = &S::batches},
    {.key = "batch_size_mean", .kind = histogram, .merge = buckets, .line = "batches",
     .label = "mean-size", .digits = 2, .f64 = &S::batch_size_mean, .hist = &S::batch_size,
     .stat = mean, .recorder = &R::batch_size},
    {.key = "batch_size_max", .kind = histogram, .merge = buckets, .line = "batches",
     .label = "max-size", .json = false, .u64 = &S::batch_size_max, .hist = &S::batch_size,
     .stat = max, .recorder = &R::batch_size},
    {.key = "cache_hits", .kind = counter, .merge = sum, .line = "cache", .label = "hits",
     .u64 = &S::cache_hits},
    {.key = "cache_misses", .kind = counter, .merge = sum, .line = "cache", .label = "misses",
     .u64 = &S::cache_misses},
    {.key = "cache_hit_rate", .kind = ratio, .merge = derived, .line = "cache",
     .label = "hit-rate", .digits = 3, .ratio = &S::cache_hit_rate},
    {.key = "cache_entries", .kind = level, .merge = sum, .line = "cache", .label = "entries",
     .json = false, .u64 = &S::cache_entries},
    {.key = "cache_evictions", .kind = counter, .merge = sum, .line = "cache",
     .label = "evictions", .u64 = &S::cache_evictions},
    // The default model's epoch; drift bumps it per shard, so the fleet
    // reports the highest.
    {.key = "cache_epoch", .kind = fact, .merge = largest, .line = "cache", .label = "epoch",
     .u64 = &S::cache_epoch},
    {.key = "drift_checks", .kind = counter, .merge = sum, .line = "drift", .label = "checks",
     .u64 = &S::drift_checks},
    {.key = "drift_flushes", .kind = counter, .merge = sum, .line = "drift",
     .label = "flushes", .u64 = &S::drift_flushes},
    {.key = "service_us_p50", .kind = histogram, .merge = buckets, .line = "latency-us",
     .label = "p50", .f64 = &S::service_us_p50, .hist = &S::service_time_us, .stat = p50,
     .recorder = &R::service_time_us},
    {.key = "service_us_p95", .kind = histogram, .merge = buckets, .line = "latency-us",
     .label = "p95", .f64 = &S::service_us_p95, .hist = &S::service_time_us, .stat = p95,
     .recorder = &R::service_time_us},
    {.key = "service_us_p99", .kind = histogram, .merge = buckets, .line = "latency-us",
     .label = "p99", .f64 = &S::service_us_p99, .hist = &S::service_time_us, .stat = p99,
     .recorder = &R::service_time_us},
    {.key = "service_us_mean", .kind = histogram, .merge = buckets, .line = "latency-us",
     .label = "mean", .json = false, .f64 = &S::service_us_mean, .hist = &S::service_time_us,
     .stat = mean, .recorder = &R::service_time_us},
    {.key = "compute_us_mean", .kind = histogram, .merge = buckets, .line = "compute-us",
     .label = "mean-per-miss", .json = false, .f64 = &S::compute_us_mean,
     .hist = &S::compute_time_us, .stat = mean, .recorder = &R::compute_time_us},
    {.key = "model_evals", .kind = counter, .merge = sum, .line = "probes",
     .label = "model-evals", .u64 = &S::model_evals},
    {.key = "probe_rows_p50", .kind = histogram, .merge = buckets, .line = "probes",
     .label = "rows-p50", .f64 = &S::probe_rows_p50, .hist = &S::probe_rows, .stat = p50,
     .recorder = &R::probe_rows},
    {.key = "probe_rows_mean", .kind = histogram, .merge = buckets, .line = "probes",
     .label = "rows-mean", .f64 = &S::probe_rows_mean, .hist = &S::probe_rows, .stat = mean,
     .recorder = &R::probe_rows},
    {.key = "probe_rows_max", .kind = histogram, .merge = buckets, .line = "probes",
     .label = "rows-max", .u64 = &S::probe_rows_max, .hist = &S::probe_rows, .stat = max,
     .recorder = &R::probe_rows},
    {.key = "fast_path_hits", .kind = counter, .merge = sum, .line = "fast-path",
     .label = "hits", .u64 = &S::fast_path_hits},
    {.key = "explainers", .kind = slices, .merge = by_name, .line = "fast-path",
     .slice = Slice::explainers},
    {.key = "worker_stalls", .kind = counter, .merge = sum, .line = "faults",
     .label = "worker-stalls", .u64 = &S::worker_stalls},
    // Read from the FaultInjector every shard shares.
    {.key = "faults_injected", .kind = fact, .merge = first, .line = "faults",
     .label = "injected", .u64 = &S::faults_injected},
    {.key = "snapshot_writes", .kind = counter, .merge = sum, .line = "snapshot",
     .label = "writes", .u64 = &S::snapshot_writes},
    {.key = "snapshot_records_loaded", .kind = counter, .merge = sum, .line = "snapshot",
     .label = "records-loaded", .u64 = &S::snapshot_records_loaded},
    {.key = "snapshot_records_skipped", .kind = counter, .merge = sum, .line = "snapshot",
     .label = "records-skipped", .u64 = &S::snapshot_records_skipped},
    // Each event loop reports one shard.
    {.key = "net_shards", .kind = level, .merge = sum, .line = "net", .label = "shards",
     .net = true, .u64 = &S::net_shards},
    {.key = "connections_accepted", .kind = counter, .merge = sum, .line = "net",
     .label = "accepted", .net = true, .u64 = &S::connections_accepted},
    // Read from the ConnectionBudget every shard shares, which counts the
    // fleet's open connections exactly.
    {.key = "connections_active", .kind = level, .merge = first, .line = "net",
     .label = "active", .net = true, .u64 = &S::connections_active},
    {.key = "connections_active_max", .kind = high_water, .merge = first, .line = "net",
     .label = "max-active", .json = false, .net = true, .u64 = &S::connections_active_max},
    {.key = "connections_rejected", .kind = counter, .merge = sum, .line = "net",
     .label = "rejected", .net = true, .u64 = &S::connections_rejected},
    {.key = "connections_closed_idle", .kind = counter, .merge = sum, .line = "net-closed",
     .label = "idle", .net = true, .u64 = &S::connections_closed_idle},
    {.key = "connections_closed_backpressure", .kind = counter, .merge = sum,
     .line = "net-closed", .label = "backpressure", .net = true,
     .u64 = &S::connections_closed_backpressure},
    {.key = "net_bytes_in", .kind = counter, .merge = sum, .line = "net-io",
     .label = "bytes-in", .net = true, .u64 = &S::net_bytes_in},
    {.key = "net_bytes_out", .kind = counter, .merge = sum, .line = "net-io",
     .label = "bytes-out", .net = true, .u64 = &S::net_bytes_out},
    {.key = "net_requests", .kind = counter, .merge = sum, .line = "net-io",
     .label = "requests", .net = true, .u64 = &S::net_requests},
    {.key = "conn_requests_p50", .kind = histogram, .merge = buckets, .line = "net-io",
     .label = "reqs-per-conn-p50", .net = true, .f64 = &S::conn_requests_p50,
     .hist = &S::conn_requests, .stat = p50, .recorder = &R::conn_requests},
    {.key = "conn_requests_mean", .kind = histogram, .merge = buckets, .line = "net-io",
     .label = "mean", .json = false, .net = true, .f64 = &S::conn_requests_mean,
     .hist = &S::conn_requests, .stat = mean, .recorder = &R::conn_requests},
    {.key = "conn_requests_max", .kind = histogram, .merge = buckets, .line = "net-io",
     .label = "max", .net = true, .u64 = &S::conn_requests_max, .hist = &S::conn_requests,
     .stat = max, .recorder = &R::conn_requests},
    // Read from the NetFaultInjector every shard shares.
    {.key = "net_faults_injected", .kind = fact, .merge = first, .line = "chaos",
     .label = "faults", .net = true, .u64 = &S::net_faults_injected,
     .mirror = ServeError::net_fault_injected},
    {.key = "net_retry_duplicates", .kind = counter, .merge = sum, .line = "chaos",
     .label = "retry-duplicates", .net = true, .u64 = &S::net_retry_duplicates,
     .mirror = ServeError::retry_duplicate},
    // Counted by the shard supervisor, once for the fleet.
    {.key = "net_shard_respawns", .kind = fact, .merge = first, .line = "chaos",
     .label = "shard-respawns", .net = true, .u64 = &S::net_shard_respawns,
     .mirror = ServeError::shard_respawn},
    {.key = "errors_by_reason", .kind = slices, .merge = sum, .line = "errors",
     .slice = Slice::reasons},
    // The admin fan-out copies the registry to every shard.
    {.key = "models_registered", .kind = fact, .merge = first, .line = "models",
     .label = "registered", .u64 = &S::models_registered},
    {.key = "model_swaps", .kind = fact, .merge = first, .line = "models", .label = "swaps",
     .u64 = &S::model_swaps},
    {.key = "models", .kind = slices, .merge = by_name, .line = "models",
     .slice = Slice::models},
};

// -------------------------------------------------- per-field operations ---

template <class S, class R>
void reset_field(const Field<S, R>& f, R& r) noexcept {
    if (f.counter != nullptr) (r.*f.counter).reset();
    if (f.gauge != nullptr) (r.*f.gauge).reset();
    if (f.recorder != nullptr) (r.*f.recorder).reset();
}

template <class S, class R>
void read_field(const Field<S, R>& f, const R& r, S& s) noexcept {
    if (f.counter != nullptr) s.*f.u64 = (r.*f.counter).value();
    if (f.gauge != nullptr)
        s.*f.u64 = f.kind == high_water ? (r.*f.gauge).max() : (r.*f.gauge).value();
    if (f.recorder != nullptr) s.*f.hist = (r.*f.recorder).snapshot();
}

template <class S, class R>
void derive_field(const Field<S, R>& f, S& s) noexcept {
    if (f.hist == nullptr) return;
    const HistogramSnapshot& h = s.*f.hist;
    switch (f.stat) {
        case Stat::p50: s.*f.f64 = h.quantile(0.50); break;
        case Stat::p95: s.*f.f64 = h.quantile(0.95); break;
        case Stat::p99: s.*f.f64 = h.quantile(0.99); break;
        case Stat::mean: s.*f.f64 = h.mean(); break;
        case Stat::max: s.*f.u64 = h.max; break;
    }
}

/// open (1) outranks half-open (2), which outranks closed (0).
[[nodiscard]] int severity_of(std::uint64_t breaker_state) noexcept {
    return breaker_state == 1 ? 2 : breaker_state == 2 ? 1 : 0;
}

/// Merges `parts`' values of one field into `out`, a copy of parts[0] (so
/// a `first` field is already in place).  Histogram figures are derived
/// afterwards from the merged buckets.
template <class S, class R>
void merge_field(const Field<S, R>& f, const std::vector<const S*>& parts, S& out) {
    if (f.hist != nullptr) {
        out.*f.hist = {};
        for (const S* p : parts) (out.*f.hist).merge(p->*f.hist);
    } else if (f.u64 != nullptr) {
        for (std::size_t i = 1; i < parts.size(); ++i) {
            const std::uint64_t v = parts[i]->*f.u64;
            std::uint64_t& acc = out.*f.u64;
            if (f.merge == sum) acc += v;
            if (f.merge == largest) acc = std::max(acc, v);
            if (f.merge == severity && severity_of(v) > severity_of(acc)) acc = v;
        }
    }
}

/// The slices of every shard matched by name, in first-seen order (which is
/// registration order for models).
template <class S, class R, std::size_t N>
[[nodiscard]] std::vector<S> merge_slices(std::span<const ServiceStats> shards,
                                          std::vector<S> ServiceStats::* list,
                                          const Field<S, R> (&fields)[N]) {
    std::vector<S> out;
    std::vector<std::vector<const S*>> parts;
    for (const ServiceStats& shard : shards)
        for (const S& slice : shard.*list) {
            std::size_t i = 0;
            while (i < out.size() && out[i].name != slice.name) ++i;
            if (i == out.size()) {
                out.push_back(slice);
                parts.emplace_back();
            }
            parts[i].push_back(&slice);
        }
    for (std::size_t i = 0; i < out.size(); ++i)
        for (const auto& f : fields) {
            merge_field(f, parts[i], out[i]);
            derive_field(f, out[i]);
        }
    return out;
}

template <class S, class R>
void write_field(JsonWriter& w, const Field<S, R>& f, const S& s) {
    if (f.str != nullptr) w.field(f.key, s.*f.str);
    if (f.u64 != nullptr) w.field(f.key, s.*f.u64);
    if (f.f64 != nullptr) w.field(f.key, s.*f.f64);
    if (f.ratio != nullptr) w.field(f.key, (s.*f.ratio)());
}

/// "  label value" for a labelled field of the text report.
template <class S, class R>
[[nodiscard]] std::string text_item(const Field<S, R>& f, const S& s) {
    if (f.label == nullptr || f.slice != Slice::none) return "";
    const std::string item = std::string("  ") + f.label + ' ';
    if (f.str != nullptr) return item + s.*f.str;
    char value[64];
    if (f.u64 != nullptr)
        std::snprintf(value, sizeof(value), "%llu", static_cast<unsigned long long>(s.*f.u64));
    else
        std::snprintf(value, sizeof(value), "%.*f", f.digits,
                      f.f64 != nullptr ? s.*f.f64 : (s.*f.ratio)());
    return item + value;
}

template <class S, class R, std::size_t N>
[[nodiscard]] std::string slices_json(const std::vector<S>& slices,
                                      const Field<S, R> (&fields)[N]) {
    std::string out = "[";
    for (const S& slice : slices) {
        JsonWriter w;
        for (const auto& f : fields) write_field(w, f, slice);
        if (out.size() > 1) out += ',';
        out += w.finish();
    }
    return out + ']';
}

/// One indented report line per slice: its name, then its labelled fields.
template <class S, class R, std::size_t N>
[[nodiscard]] std::string slices_text(const std::vector<S>& slices,
                                      const Field<S, R> (&fields)[N]) {
    std::string out;
    for (const S& slice : slices) {
        char head[64];
        std::snprintf(head, sizeof(head), "    %-20s", slice.name.c_str());
        out += head;
        for (const auto& f : fields) out += text_item(f, slice);
        out += '\n';
    }
    return out;
}

/// The reasons that occurred, as (name, count) items.
template <class Item>
void for_each_reason(const std::array<std::uint64_t, kNumServeErrors>& by, Item item) {
    for (std::size_t i = 1; i < kNumServeErrors; ++i)
        if (by[i] != 0) item(std::string(to_string(static_cast<ServeError>(i))), by[i]);
}

}  // namespace

// ------------------------------------------------------- table-driven ops ---

void ServiceMetrics::reset() noexcept {
    for (const Row& f : kRows) {
        reset_field(f, *this);
        if (f.kind == counter && f.u64 != nullptr)
            std::atomic_ref(counts.*f.u64).store(0, std::memory_order_relaxed);
    }
    for (auto& n : counts.errors_by_reason)
        std::atomic_ref(n).store(0, std::memory_order_relaxed);
    for (auto& e : explainers)
        for (const auto& f : kExplainerFields) reset_field(f, e);
}

ServiceStats ServiceMetrics::snapshot() const {
    ServiceStats s;
    for (const Row& f : kRows) {
        read_field(f, *this, s);
        if (f.kind == counter && f.u64 != nullptr)
            s.*f.u64 = std::atomic_ref(counts.*f.u64).load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kNumServeErrors; ++i)
        s.errors_by_reason[i] =
            std::atomic_ref(counts.errors_by_reason[i]).load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kNumExplainers; ++i) {
        if (explainers[i].requests.value() == 0) continue;
        ExplainerSliceStats& e = s.explainers.emplace_back();
        e.name = kExplainerNames[i];
        for (const auto& f : kExplainerFields) read_field(f, explainers[i], e);
    }
    s.derive();
    return s;
}

void read_model_metrics(const ModelEntry& entry, ModelServiceStats& slice) {
    for (const ModelField& f : kModelFields) read_field(f, entry, slice);
}

void ServiceStats::derive() {
    for (const Row& f : kRows) {
        derive_field(f, *this);
        if (f.mirror != ServeError::none)
            errors_by_reason[static_cast<std::size_t>(f.mirror)] = this->*f.u64;
    }
    for (auto& e : explainers)
        for (const auto& f : kExplainerFields) derive_field(f, e);
}

ServiceStats merge_stats(std::span<const ServiceStats> shards) {
    std::vector<const ServiceStats*> parts;
    for (const ServiceStats& s : shards) parts.push_back(&s);
    ServiceStats out = shards.front();
    for (const Row& f : kRows) merge_field(f, parts, out);
    for (std::size_t i = 0; i < kNumServeErrors; ++i)
        for (std::size_t k = 1; k < shards.size(); ++k)
            out.errors_by_reason[i] += shards[k].errors_by_reason[i];
    out.explainers = merge_slices(shards, &ServiceStats::explainers, kExplainerFields);
    out.models = merge_slices(shards, &ServiceStats::models, kModelFields);
    out.derive();
    return out;
}

std::string render_stats(const ServiceStats& s) {
    JsonWriter w;
    w.field("ok", true);
    w.field("op", "stats");
    for (const Row& f : kRows) {
        if (!f.json || (f.net && !s.net_enabled)) continue;
        write_field(w, f, s);
        std::string reasons;
        switch (f.slice) {
            case Slice::none: break;
            case Slice::reasons:
                // {"queue_full":2,...} — only reasons that occurred.
                for_each_reason(s.errors_by_reason, [&](const std::string& name, auto n) {
                    reasons += (reasons.empty() ? "\"" : ",\"") + name + "\":" +
                               std::to_string(n);
                });
                w.field_raw(f.key, '{' + reasons + '}');
                break;
            case Slice::explainers:
                w.field_raw(f.key, slices_json(s.explainers, kExplainerFields));
                break;
            case Slice::models: w.field_raw(f.key, slices_json(s.models, kModelFields)); break;
        }
    }
    w.field("report", s.to_string());
    return w.finish();
}

std::string ServiceStats::to_string() const {
    // One line per run of rows sharing a `line`; slices print below it.
    std::string out = "service stats\n", items, slices;
    for (std::size_t i = 0; i < std::size(kRows); ++i) {
        const Row& f = kRows[i];
        if (!f.net || net_enabled) {
            items += text_item(f, *this);
            if (f.slice == Slice::reasons)
                for_each_reason(errors_by_reason, [&](const std::string& name, auto n) {
                    items += "  " + name + ' ' + std::to_string(n);
                });
            if (f.slice == Slice::explainers)
                slices += slices_text(explainers, kExplainerFields);
            if (f.slice == Slice::models) slices += slices_text(models, kModelFields);
        }
        const bool line_ends =
            i + 1 == std::size(kRows) || std::string_view(kRows[i + 1].line) != f.line;
        if (!line_ends) continue;
        if (!items.empty() || !slices.empty()) {
            char head[32];
            std::snprintf(head, sizeof(head), "  %-10s", f.line);
            out += head + items + '\n' + slices;
        }
        items.clear();
        slices.clear();
    }
    return out;
}

}  // namespace xnfv::serve
