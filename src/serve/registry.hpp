// Multi-model registry with atomic hot swap (DESIGN.md section 14).
//
// One ExplanationService used to bind one model for the life of the process;
// the registry turns it into an explanation fleet.  Each registered model is
// a ModelEntry that owns everything model-scoped:
//
//   * the published ModelSnapshot — an immutable (model, fingerprint,
//     base value) triple behind a mutex-guarded shared_ptr.  A swap builds a
//     complete new snapshot and publishes it with one pointer store
//     (RCU-in-spirit): requests pin the snapshot they resolved at admission
//     and finish on it, no matter how many swaps land while they are queued
//     or computing;
//   * an explanation-cache slice with its own drift epoch.  Cache keys are
//     derived from the *pinned* fingerprint, so a swap self-invalidates the
//     old version's entries (they age out through the LRU) and swapping back
//     to a byte-identical model re-hits the surviving ones;
//   * per-model counters (admitted / rejected_quota / swaps / evals /
//     completed) folded into ServiceStats, and the DWRR weight/quota the
//     admission queue schedules this model's class with.
//
// Thread model: resolve() and current() are hot-path reads guarded by small
// mutexes (one map lookup + one shared_ptr copy per request).  load/swap/
// retire are rare admin operations serialized on the registry mutex.  The
// drift window state inside an entry is touched only by the single thread
// executing batches, exactly like the pre-registry service.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/explanation.hpp"
#include "mlcore/model.hpp"
#include "serve/errors.hpp"
#include "serve/explanation_cache.hpp"
#include "serve/fault_injector.hpp"
#include "serve/metrics.hpp"
#include "serve/router.hpp"

namespace xnfv::xai {
class FlatTreeShap;  // core/flat_tree_shap.hpp
}

namespace xnfv::serve {

class ExplanationService;  // serve/service.hpp
class JsonValue;           // serve/ndjson.hpp

/// Fingerprint of a model's inference state: hash of its serialized text,
/// falling back to name/arity for unserializable models (LambdaModel).
[[nodiscard]] std::uint64_t fingerprint_model(const xnfv::ml::Model& model);

/// Lower-case hex rendering of a fingerprint (snapshot filenames, stats).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Per-tenant circuit-breaker knobs (ServiceConfig embeds one; every
/// ModelEntry runs its own instance).  Disabled while `error_threshold` is
/// 0, which is the default — the breaker changes nothing unless asked for.
struct BreakerConfig {
    /// Compute outcomes per evaluation window; the breaker only trips on a
    /// *full* window, so a single early failure can never open it.
    std::size_t window = 32;
    /// Open when errors/window >= this fraction over a full window.
    /// 0 disables the breaker entirely.
    double error_threshold = 0.0;
    /// How long an open breaker rejects before admitting one half-open
    /// probe request.
    std::chrono::milliseconds cooldown{250};
};

/// One published model version.  Immutable once built: a swap replaces the
/// whole snapshot, never mutates one.
struct ModelSnapshot {
    /// The model as loaded (fingerprinted before any fault wrapping).
    std::shared_ptr<const xnfv::ml::Model> model;
    /// What explainers actually probe: `model`, possibly wrapped in the
    /// predict_throw fault proxy (wrapped *after* fingerprinting so cache
    /// keys and non-faulted results are fault-invariant).
    std::shared_ptr<const xnfv::ml::Model> serving;
    std::uint64_t fingerprint = 0;
    /// E_b[f(b)] as observed from completed explanations on this snapshot
    /// (stats-only).  Deliberately not probed at publish time: a snapshot
    /// build must never call into the model outside the serving path —
    /// instrumented models (gates, fault counters) rely on the request
    /// stream being the only thing that drives predictions.
    mutable std::atomic<double> base_value{0.0};
    /// 0 for the initially loaded version, +1 per swap.
    std::uint64_t version = 0;

    // --- Router decision, stamped once at load/swap (DESIGN.md §16) -----
    //
    // Per-request routing must not pay a dynamic_cast, so the structural
    // classification and the "auto" resolution are computed when the
    // snapshot is built and pinned with it: a request that raced a hot swap
    // routes (and caches) against the version it is explained on.

    /// Structural family of `model` (tree / forest / gbt / mlp / other).
    ModelKind kind = ModelKind::other;
    /// The concrete explainer "auto" resolves to on this snapshot.
    std::string auto_method;
    /// Prebuilt flat-tree TreeSHAP state for tree-family models — the exact
    /// fast path every tree_shap request against this version shares.  Null
    /// for non-tree models and for ensembles the builder rejects (unfitted);
    /// requests then fall back to the per-request explainer, which reports
    /// the recursive walker's error text.
    std::shared_ptr<const xnfv::xai::FlatTreeShap> flat_shap;
};

/// Everything the service keeps per registered model.
class ModelEntry {
public:
    ModelEntry(std::string model_name, std::size_t model_class,
               std::size_t cache_capacity, std::size_t cache_shards)
        : name(std::move(model_name)),
          class_id(model_class),
          cache(cache_capacity, cache_shards) {}

    ModelEntry(const ModelEntry&) = delete;
    ModelEntry& operator=(const ModelEntry&) = delete;

    /// The currently published version (never null for a live entry).
    [[nodiscard]] std::shared_ptr<const ModelSnapshot> current() const {
        std::lock_guard lock(mutex_);
        return current_;
    }
    /// Atomic publish: in-flight requests keep the snapshot they pinned.
    void publish(std::shared_ptr<const ModelSnapshot> next) {
        std::lock_guard lock(mutex_);
        current_ = std::move(next);
    }

    const std::string name;
    const std::size_t class_id;  ///< DWRR scheduling class in the queue

    /// This model's explanation-cache slice and drift epoch (mixed into
    /// every cache key; bumping it re-keys only this model's entries).
    ExplanationCache cache;
    std::atomic<std::uint64_t> epoch{0};

    // Per-model counters (ServiceStats::models).  Registry state: they
    // survive op=stats_reset, like the entry's cache.
    Counter admitted;
    Counter rejected_quota;
    Counter swaps;
    Counter evals;
    Counter completed;

    // --- Circuit breaker (DESIGN.md section 15) -------------------------
    //
    // A sliding window of this tenant's recent compute outcomes.  When the
    // error fraction over a full window crosses the configured threshold
    // the breaker opens: new requests for this model are rejected at
    // admission with `circuit_open` (cheap — no queue slot, no compute)
    // until the cooldown elapses, after which exactly one probe request is
    // admitted (half-open).  A successful probe closes the breaker and
    // resets the window; a failed probe re-opens it for another cooldown.
    // One tenant's failure storm is thereby contained: its breaker sheds
    // its own load while every other entry keeps serving.

    /// Admission gate, called by the service after validation: true admits
    /// the request (possibly as the half-open probe), false means reject
    /// with `circuit_open` (breaker_rejected already counted).
    [[nodiscard]] bool breaker_admit(const BreakerConfig& cfg,
                                     std::chrono::steady_clock::time_point now);
    /// Records one compute outcome (`ok` = served without a compute-path
    /// error) and advances the state machine.  Called once per job that ran
    /// an explainer or was answered from the cache.
    void breaker_record(const BreakerConfig& cfg, bool ok);
    /// Releases a half-open probe whose job produced no compute outcome (a
    /// queue rejection after admission, a method the model cannot run, or
    /// a deadline that expired in the queue) so the next request can probe.
    void breaker_abandon(const BreakerConfig& cfg);
    /// 0 closed / 1 open / 2 half-open (ServiceStats::models).
    [[nodiscard]] int breaker_state() const;

    Counter breaker_opens;     ///< closed/half-open -> open transitions
    Counter breaker_rejected;  ///< requests shed while open

    /// Admission-quota / DWRR-weight knobs (mirrored into the queue's class
    /// config by the service whenever they change).
    std::atomic<std::uint64_t> weight{1};
    std::atomic<std::uint64_t> quota{0};

    /// Drift-monitor window state.  Touched only by the thread executing
    /// batches; `fingerprint` records which model version the windows were
    /// accumulated against, so a swap resets them instead of comparing
    /// attributions across models.
    struct DriftState {
        std::uint64_t fingerprint = 0;
        std::vector<double> ref_abs, ref_signed, cur_abs, cur_signed;
        std::size_t ref_count = 0;
        std::size_t cur_count = 0;
    };
    DriftState drift;

private:
    /// Breaker state machine, guarded by breaker_mutex_ (admission runs on
    /// connection threads, outcome recording on the dispatcher).
    struct BreakerState {
        enum { closed = 0, open = 1, half_open = 2 };
        std::vector<std::uint8_t> ring;  ///< 1 = error, ring[head_] is oldest
        std::size_t head = 0;
        std::size_t filled = 0;
        std::size_t errors = 0;
        int state = closed;
        std::chrono::steady_clock::time_point opened_at{};
        bool probe_inflight = false;
    };
    mutable std::mutex breaker_mutex_;
    BreakerState breaker_;

    mutable std::mutex mutex_;
    std::shared_ptr<const ModelSnapshot> current_;
};

/// Independent LRU lists in each registered model's cache slice.
inline constexpr std::size_t kCacheShards = 8;

/// Registry construction knobs (derived from ServiceConfig).
struct RegistryConfig {
    /// Entries in each per-model cache slice.
    std::size_t cache_capacity = 4096;
    /// Chaos seam: when the injector arms predict_throw, every published
    /// snapshot's serving model is fault-wrapped.
    std::shared_ptr<FaultInjector> fault_injector;
};

/// Name -> ModelEntry map plus the admin operations.  Owned by the service;
/// `background` must outlive the registry (it pins the feature arity every
/// loaded model must match, and the base-value probe distribution).
class ModelRegistry {
public:
    ModelRegistry(RegistryConfig config, const xnfv::xai::BackgroundData* background);

    ModelRegistry(const ModelRegistry&) = delete;
    ModelRegistry& operator=(const ModelRegistry&) = delete;

    /// Looks up `name` ("" = the default model).  Null when unknown.
    [[nodiscard]] std::shared_ptr<ModelEntry> resolve(const std::string& name) const;

    /// Registers a new model under `name`.  The first load becomes the
    /// default model.  Fails with bad_request on a duplicate name, an empty
    /// name, or a feature-arity mismatch with the background.
    ServeError load(const std::string& name, std::shared_ptr<const xnfv::ml::Model> model,
                    std::size_t weight, std::size_t quota, std::string* why = nullptr);

    /// Atomically publishes a new version of an existing model.  In-flight
    /// requests finish on the snapshot they pinned at admission.  Fails with
    /// unknown_model on an unregistered name, bad_request on arity mismatch.
    ServeError swap(const std::string& name, std::shared_ptr<const xnfv::ml::Model> model,
                    std::string* why = nullptr);

    /// Removes `name` from the registry.  Queued and in-flight jobs that
    /// pinned the entry still complete (shared ownership); new requests get
    /// unknown_model.  The default model cannot be retired.
    ServeError retire(const std::string& name, std::string* why = nullptr);

    /// Live entries in registration order (stable across swaps).
    [[nodiscard]] std::vector<std::shared_ptr<ModelEntry>> entries() const;

    [[nodiscard]] std::shared_ptr<ModelEntry> default_entry() const;
    [[nodiscard]] std::string default_name() const;
    [[nodiscard]] std::size_t size() const;
    /// Class ids handed out so far (monotonic; never reused, so a retired
    /// model's queued jobs can never be mistaken for a later tenant's).
    [[nodiscard]] std::size_t classes_created() const;

private:
    [[nodiscard]] std::shared_ptr<const ModelSnapshot> make_snapshot(
        std::shared_ptr<const xnfv::ml::Model> model, std::uint64_t version) const;

    RegistryConfig config_;
    const xnfv::xai::BackgroundData* background_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<ModelEntry>> by_name_;
    std::vector<std::shared_ptr<ModelEntry>> order_;  ///< registration order
    std::string default_name_;
    std::size_t next_class_ = 0;
};

/// The one handler of `stats_reset` and the `load` / `swap` / `retire` /
/// `models` admin ops: parses the request object, applies the operation to
/// every service in `services` (all shards of a sharded server, or just one),
/// and returns the rendered single-line ND-JSON response.  Model files are
/// loaded from disk once and shared across services.  Callers serialize
/// concurrent admin ops (the sharded server holds its admin mutex across the
/// fan-out).
[[nodiscard]] std::string handle_model_admin(
    const JsonValue& request, const std::vector<ExplanationService*>& services);

}  // namespace xnfv::serve
