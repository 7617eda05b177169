// Online explanation service: admission -> cache | queue -> dispatcher ->
// thread pool -> cache.
//
// Long-running, in-process front door for explanation traffic.  Producers
// submit() ExplainRequests.  Admission probes the sharded LRU explanation
// cache and answers a hit on the calling thread; a miss is queued.  A
// dispatcher thread waits only for the first queued job, takes it with every
// job already queued behind it (up to max_batch; serve/request_queue.hpp),
// and executes that batch at once as one parallel_for over the shared pool,
// probing the cache again first (an entry can land between admission and
// dispatch).  Every stage is instrumented (serve/metrics.hpp).
//
// Determinism contract (the serving extension of DESIGN.md section 8):
//
// > A served explanation is bitwise identical to the one-shot CLI path for
// > the same (model, method, seed, background), at any batch size, queue
// > timing, and thread count.
//
// This holds because each request is explained by a *fresh* explainer seeded
// from the request's own seed — one explain() call, exactly what
// `xnfv_cli explain` performs — never by positional streams of a shared
// batch explainer (batch composition depends on arrival timing, so
// positional seeds would leak scheduling into results).  Batching therefore
// amortizes pool wake-ups, model/background sharing, and cache probes, not
// randomness.  The cache is consistent by construction: an entry's key pins
// everything its value depends on, so a hit returns the same bytes a fresh
// computation would produce.
//
// Fault tolerance (DESIGN.md section 10): every request may carry a
// deadline (expired requests are answered deadline_exceeded, with a
// cooperative CancelToken aborting in-flight compute); overload steps
// requests down a degradation ladder instead of rejecting them
// (serve/degradation.hpp); a dispatcher stuck for over a second while jobs
// wait is counted as a stall (`worker_stalls`) at admission and at stats();
// the cache persists to a crash-safe snapshot (serve/snapshot.hpp) at stop()
// and, when an interval is set, from a snapshot thread; and a deterministic
// FaultInjector (serve/fault_injector.hpp) can be wired in to chaos-test all
// of the above.
//
// Threads: the dispatcher, plus the snapshot thread only when periodic
// snapshots are configured.  Batches fan out over the process-wide pool
// (core/parallel.hpp).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/budget.hpp"
#include "core/drift.hpp"
#include "core/explanation.hpp"
#include "mlcore/model.hpp"
#include "serve/degradation.hpp"
#include "serve/errors.hpp"
#include "serve/explainers.hpp"
#include "serve/explanation_cache.hpp"
#include "serve/fault_injector.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "serve/request_queue.hpp"

namespace xnfv::serve {

/// Caps applied when constructing an explainer: a sample-budget multiplier
/// (degradation) and an optional cooperative stop signal (deadlines).  The
/// defaults reproduce the unconstrained explainer exactly.
struct ExplainerLimits {
    /// Multiplier on the method's default sample budget, clamped to
    /// [0.001, 1].  1.0 = the method default (bitwise-identical explainer).
    double budget_scale = 1.0;
    /// Optional cancellation token wired into the explainer config; must
    /// outlive the explain() call.  Null = never cancelled.
    const xnfv::xai::CancelToken* cancel = nullptr;
    /// Integrated-gradients Riemann steps before budget scaling (floor 8).
    /// Ignored by every other method.
    std::size_t ig_steps = 50;
};

/// Builds the explainer a request resolves to; shared with the CLI so the
/// served path and the one-shot path construct byte-identical explainers.
/// Supported methods: exactly serve/explainers.hpp's kExplainerNames
/// (tree_shap runs the flat fast-path kernel — bitwise identical to the
/// recursive walker).  Throws std::runtime_error on an unknown method,
/// with the registry's list in the message.
[[nodiscard]] std::unique_ptr<xnfv::xai::Explainer> make_explainer(
    const std::string& method, const xnfv::xai::BackgroundData& background,
    std::uint64_t seed, std::size_t threads = 0, const ExplainerLimits& limits = {});

/// The sample budget of `method` at `budget_scale` (coalitions,
/// permutations, neighborhood samples, or IG steps, each scaled with a
/// floor), which make_explainer configures its explainer with.  The number
/// of features for occlusion; 0 for tree_shap (exact).
[[nodiscard]] std::uint64_t effective_budget(const std::string& method,
                                             double budget_scale,
                                             const xnfv::xai::BackgroundData& background,
                                             std::size_t ig_steps = 50);

/// One additional model to register at construction (beyond the default
/// model the constructor takes directly).
struct ModelSpec {
    std::string name;
    std::shared_ptr<const xnfv::ml::Model> model;
    std::size_t weight = 1;  ///< DWRR weight of this model's queue class
    std::size_t quota = 0;   ///< per-model admission quota; 0 = uncapped
};

/// A dispatcher heartbeat older than this while jobs are queued is a stall
/// (`worker_stalls`).  A stuck thread cannot be safely killed, so stalls
/// are counted for the operator, not "fixed".
inline constexpr std::chrono::milliseconds kStallThreshold{1000};

struct ServiceConfig {
    /// Default explainer method for requests that leave `method` empty.
    /// May be "auto": each request then routes per the pinned snapshot's
    /// model kind (serve/router.hpp).
    std::string method = "tree_shap";
    /// Integrated-gradients Riemann steps (the `steps` knob of
    /// core/gradient.hpp's Config), hashed into cache keys so services
    /// with different step counts can never cross-hit each other's
    /// snapshot-restored entries.
    std::size_t ig_steps = 50;
    /// Default RNG seed for requests that leave `seed` == 0 (matches the
    /// `xnfv_cli explain` default so served == one-shot out of the box).
    std::uint64_t seed = 11;
    /// Background rows the Friedman-H² partial dependence sweep uses for
    /// served `"interactions": k` requests (core/interaction.hpp's
    /// max_points).  Hashed into the cache key of interaction-carrying
    /// requests only, so plain requests keep their pre-interaction keys.
    std::size_t interaction_points = 64;
    /// Backpressure bound of the admission queue.
    std::size_t queue_depth = 256;
    /// Most jobs one batch takes off the queue.  The dispatcher never waits
    /// to fill a batch: it runs whatever is queued, so batches grow only
    /// under backlog.
    std::size_t max_batch = 16;
    /// LRU cache geometry (each model's slice spreads over kCacheShards
    /// lists).  quantum == 0 keys on exact feature bit patterns (lossless:
    /// hits only for true repeats); quantum > 0 buckets features to that
    /// grid, trading bitwise fidelity for hit rate.
    std::size_t cache_capacity = 4096;
    double cache_quantum = 0.0;
    /// Worker threads for batch execution (0 = xnfv::default_threads()).
    std::size_t threads = 0;

    /// Overload ladder thresholds; all-zero (the default) disables
    /// degradation entirely.
    DegradationConfig degradation;

    /// Per-tenant circuit breaker on the registry path (serve/registry.hpp):
    /// each model entry trips open when its compute error rate over a full
    /// window crosses the threshold, sheds its own requests with
    /// `circuit_open` for the cooldown, then probes half-open.  Disabled by
    /// default (threshold 0) so existing behavior is unchanged.
    BreakerConfig breaker;

    /// Drift-triggered cache invalidation: after `drift_window` reference
    /// explanations are accumulated, every subsequent window of the same
    /// size is compared against it (core/drift.hpp, default thresholds);
    /// crossing a threshold bumps the cache epoch, so every key misses once
    /// and is recomputed against the drifted traffic.  0 disables
    /// monitoring.
    std::size_t drift_window = 0;

    /// Chaos-testing seam: null (the default) injects nothing and costs one
    /// pointer check per poll point.
    std::shared_ptr<FaultInjector> fault_injector;

    /// Cache snapshot file; empty disables persistence.  When set, the cache
    /// is restored from it at startup (if compatible) and written to it at
    /// stop() — plus every snapshot_interval if nonzero, from a thread of
    /// its own so no queued request waits behind the write.  This is the path
    /// of the *default* model's snapshot; every other model persists to
    /// `<path>.<fingerprint-hex><snapshot_suffix>` so multi-model snapshots
    /// can never collide or cross-restore (a file whose header fingerprint
    /// matches no registered model is simply skipped at startup).
    std::string snapshot_path;
    /// Appended to every snapshot filename (the sharded server sets
    /// ".shardK" here so shard slices stay distinct per model).
    std::string snapshot_suffix;
    std::chrono::milliseconds snapshot_interval{0};

    /// Registry identity of the constructor's model (the default model:
    /// requests that carry no "model" field resolve to it).
    std::string default_model_name = "default";
    std::size_t default_weight = 1;
    std::size_t default_quota = 0;  ///< 0 = uncapped
    /// Additional models registered before serving starts (same effect as
    /// model_load() calls, minus the race with early traffic).
    std::vector<ModelSpec> extra_models;
};

/// The in-process serving engine.  Thread-safe: any number of producer
/// threads may submit() concurrently with each other and with stats().
class ExplanationService {
public:
    /// The service holds shared ownership of the model; `background` is the
    /// reference distribution every request marginalizes over.
    ExplanationService(std::shared_ptr<const xnfv::ml::Model> model,
                       xnfv::xai::BackgroundData background,
                       ServiceConfig config = {});
    ~ExplanationService();

    ExplanationService(const ExplanationService&) = delete;
    ExplanationService& operator=(const ExplanationService&) = delete;

    /// Outcome of a submit(): either `rejected != none` (and `response` is
    /// invalid), or a future that completes when the request is served.
    struct Submission {
        ServeError rejected = ServeError::none;
        std::future<ExplainResponse> response;
    };

    /// submit_async() with a callback that fulfils the returned future;
    /// never blocks.  Rejects with `queue_full` under backpressure,
    /// `bad_request` on wrong feature count or unknown method,
    /// `bad_features` on NaN/Inf inputs, `deadline_exceeded` on an
    /// already-expired (0 ms) deadline, `service_stopped` after stop().
    [[nodiscard]] Submission submit(ExplainRequest request);

    /// submit() + wait.  A rejection is returned as an error response.
    [[nodiscard]] ExplainResponse explain_sync(ExplainRequest request);

    /// Push-style submission for event-driven callers (the TCP front-end):
    /// on acceptance the response is delivered exactly once, and no future
    /// is involved.  Checks run in a fixed order: validation, model pin,
    /// circuit breaker, stopped service, cache probe, queue.  A cache hit
    /// takes no queue slot, so it is answered even when the queue is full or
    /// the model's quota is spent; it is delivered on the calling thread
    /// before this returns — into `*hit` when the caller passes one (then
    /// `on_complete` is never called), else through `on_complete` inline —
    /// ahead of misses admitted earlier.  A miss is queued, and `on_complete`
    /// runs on the dispatcher thread, in admission order among misses.  On
    /// rejection the returned error is non-none and nothing is delivered
    /// (the caller already has everything needed to answer synchronously).
    /// `on_complete` must not throw and must not call back into this service.
    [[nodiscard]] ServeError submit_async(
        ExplainRequest request, std::function<void(ExplainResponse)> on_complete,
        std::optional<ExplainResponse>* hit = nullptr);

    /// Current cache epoch of the *default* model (bumped by drift-triggered
    /// invalidation; per-model epochs live in the registry entries).
    [[nodiscard]] std::uint64_t cache_epoch() const noexcept {
        const auto entry = registry_.default_entry();
        return entry ? entry->epoch.load(std::memory_order_relaxed) : 0;
    }

    /// Registers a new model under `name` and wires its queue class
    /// (first-load-is-default does not apply here — the constructor's model
    /// is always the default).  Safe while traffic is flowing.
    ServeError model_load(const std::string& name,
                          std::shared_ptr<const xnfv::ml::Model> model,
                          std::size_t weight = 1, std::size_t quota = 0,
                          std::string* why = nullptr);
    /// Atomically publishes a new version of `name` (""= default model).
    /// In-flight requests finish on the snapshot they pinned at admission.
    ServeError model_swap(const std::string& name,
                          std::shared_ptr<const xnfv::ml::Model> model,
                          std::string* why = nullptr);
    /// Unregisters `name`; queued/in-flight jobs still complete.  The
    /// default model cannot be retired.
    ServeError model_retire(const std::string& name, std::string* why = nullptr);

    [[nodiscard]] const ModelRegistry& registry() const noexcept { return registry_; }

    /// Snapshot of all counters/histograms plus cache occupancy.  Counts a
    /// dispatcher stall first, if one is under way (see note_stall()).
    [[nodiscard]] ServiceStats stats() const;

    /// The recorders behind stats().  A TCP front-end records its
    /// connection events here, so one stats_reset covers both layers.
    [[nodiscard]] ServiceMetrics& metrics() const noexcept { return metrics_; }

    /// Zeroes every counter and histogram (ServiceMetrics::reset) so the
    /// next stats() covers only traffic after this call — the per-phase SLO
    /// measurement primitive behind the `stats_reset` ND-JSON op.  Registry
    /// facts (models, fingerprints, cache contents, epochs) are untouched.
    void stats_reset() noexcept { metrics_.reset(); }

    /// Closes admission, joins the dispatcher once it has served everything
    /// already queued, joins the snapshot thread, and writes a final cache
    /// snapshot when persistence is configured.  Idempotent; the destructor
    /// calls it.
    void stop();

    [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
    /// Feature arity of `name` (""= default); nullopt for an unknown model.
    [[nodiscard]] std::optional<std::size_t> feature_dim(const std::string& name) const {
        const auto entry = registry_.resolve(name);
        if (!entry) return std::nullopt;
        return entry->current()->model->num_features();
    }

private:
    void dispatcher_loop();
    /// Writes a snapshot every snapshot_interval until stop() asks it to end.
    void snapshot_loop(std::stop_token stop);
    void execute_batch(std::vector<Job> batch);
    /// Counts one answered job: its service time from admission to `done`,
    /// the completion, the snapshot's base value or the error reason, and,
    /// when `compute_outcome` (the job ran an explainer or was answered from
    /// the cache), the breaker outcome.
    void record_completion(const Job& job, const ExplainResponse& response,
                           std::chrono::steady_clock::time_point done,
                           bool compute_outcome);
    /// Validation/resolution for submit_async(): resolves the model name,
    /// validates the payload, and stamps `job` (entry, pinned snapshot,
    /// class, timestamps).  Non-none = reject.
    [[nodiscard]] ServeError prepare_job(ExplainRequest request, Job& job);
    /// What one computed explanation cost and which path served it, for the
    /// per-explainer stats slices.
    struct ComputeOutcome {
        std::uint64_t probe_rows = 0;  ///< model rows evaluated (0 = direct walk)
        bool fast_path = false;        ///< exact fast path (flat tree / analytic IG)
        std::size_t explainer = kNumExplainers;  ///< kExplainerNames index
    };
    /// Explains one request at the given degradation rung against the model
    /// snapshot the job pinned at admission.  The request's method (or the
    /// config default) is routed per the snapshot's kind first: tree
    /// ensembles take the prebuilt flat TreeSHAP (one shared immutable
    /// walker, per-thread scratch, zero warm allocations), MLPs take
    /// analytic integrated gradients, probe methods build a fresh explainer
    /// per request exactly as before.  A forced exact method the kind
    /// cannot run fails with `unsupported_explainer`.  Any exception
    /// becomes an error response; the deadline, if armed, aborts probe
    /// compute via a CancelToken.
    [[nodiscard]] ExplainResponse run_request(
        const Job& job, DegradeLevel level,
        std::chrono::steady_clock::time_point deadline,
        ComputeOutcome& outcome) const;
    [[nodiscard]] CacheKey key_for(const Job& job) const;
    /// The full Friedman-H² pair table of one model version (every j < k
    /// pair over the service background at config_.interaction_points,
    /// sorted strongest-first, ties by index).  H² is a pure function of
    /// (model, background, points) — independent of the explained instance —
    /// so the table is computed once per snapshot fingerprint and memoized;
    /// serving `"interactions": k` is then a slice of this table, bitwise
    /// identical to a one-shot core/interaction.hpp sweep.
    [[nodiscard]] std::shared_ptr<const std::vector<xnfv::xai::InteractionPair>>
    interaction_table(const ModelSnapshot& snapshot) const;
    /// Feeds one full-fidelity computed attribution vector into `entry`'s
    /// drift windows; on a completed current window, compares it against the
    /// reference and bumps the entry's cache epoch when drifted.
    /// `fingerprint` is the model version that produced the attributions — a
    /// version change resets the windows (attributions are not comparable
    /// across a hot swap).  Called only from the thread executing batches.
    void observe_attributions(ModelEntry& entry,
                              const std::vector<double>& attributions,
                              std::uint64_t fingerprint);
    /// Snapshot filename of one model (default model = the configured path
    /// plus suffix; others add ".<fingerprint-hex>" before the suffix).
    [[nodiscard]] std::string snapshot_path_for(const ModelEntry& entry,
                                                std::uint64_t fingerprint) const;
    /// Exports every model's cache slice to its snapshot file (atomic write).
    void save_snapshot();
    /// Restores each model's cache from its snapshot file when present and
    /// compatible; a missing or mismatched file starts that model cold.
    void load_snapshot();
    /// Counts a stall when, at `now`, the dispatcher heartbeat is older than
    /// kStallThreshold while jobs are queued.  Each stale heartbeat value
    /// counts once, however often it is seen.  Takes no lock unless the
    /// heartbeat is already stale.
    void note_stall(std::chrono::steady_clock::time_point now) const noexcept;

    xnfv::xai::BackgroundData background_;
    ServiceConfig config_;
    std::uint64_t background_fingerprint_;
    /// Per-explainer config fingerprint mixed into cache keys (indexed like
    /// kExplainerNames): the tree_shap kernel variant tag and the IG step
    /// count, so fast-path answers computed under one config can never be
    /// served to a service configured differently (snapshot restore).
    /// Probe methods contribute 0 — their keys are unchanged from before.
    std::array<std::uint64_t, kNumExplainers> explainer_config_fp_{};
    ModelRegistry registry_;
    RequestQueue queue_;
    DegradationPolicy degrade_;
    mutable ServiceMetrics metrics_;
    /// Memoized interaction tables keyed by model-snapshot fingerprint (see
    /// interaction_table()).  The mutex is held across the one-time compute:
    /// the sweep is deterministic, so serializing concurrent first requests
    /// is cheaper than computing the same table twice.
    mutable std::mutex interactions_mutex_;
    mutable std::unordered_map<
        std::uint64_t,
        std::shared_ptr<const std::vector<xnfv::xai::InteractionPair>>>
        interaction_tables_;

    /// The dispatcher's heartbeat: when it took its current batch, or
    /// kIdleHeartbeat while it waits for work (read as fresh).
    static constexpr std::chrono::steady_clock::rep kIdleHeartbeat =
        std::numeric_limits<std::chrono::steady_clock::rep>::max();
    std::atomic<std::chrono::steady_clock::rep> heartbeat_ns_{kIdleHeartbeat};
    /// The heartbeat value of the last stall counted (one count per episode).
    mutable std::atomic<std::chrono::steady_clock::rep> stalled_heartbeat_ns_{0};
    std::once_flag stop_once_;
    std::thread dispatcher_;
    std::jthread snapshotter_;  ///< runs only with a snapshot_interval
};

}  // namespace xnfv::serve
