// Bounded MPMC request queue with reject-on-full backpressure and
// deficit-weighted-round-robin service across model classes.
//
// The admission edge of the explanation service: producers (CLI front-end,
// tests, embedding applications) try_push() jobs; the dispatcher thread
// pop_batch()es them: it blocks only until the first job arrives, then takes
// every job already queued behind it, up to the batch cap, under one lock.
// Batches therefore form exactly when there is a backlog, and no job waits
// for others to arrive.  The queue is bounded because an
// overload policy of "grow forever" just converts overload into latency and
// eventually OOM — a full queue instead rejects immediately with a reason the
// caller can surface (HTTP 429 semantics, in-process).
//
// Multi-tenant fairness (DESIGN.md section 14): each job carries a model
// class index; the queue keeps one FIFO per class, enforces an optional
// per-class quota *under* the global depth bound (so one hot model cannot
// occupy the whole queue), and pops in deficit-weighted round-robin order —
// a backlogged class with weight W receives W pops per scheduling round.
// With a single class the pop order degenerates to plain FIFO, which is what
// keeps single-model serving byte-identical to the pre-registry service.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/explanation.hpp"
#include "serve/errors.hpp"

namespace xnfv::serve {

class ModelEntry;     // serve/registry.hpp
struct ModelSnapshot; // serve/registry.hpp

/// One explanation request.  `features` is the full telemetry vector of the
/// instance to explain; `seed` makes the request self-describing so a served
/// answer is reproducible by a one-shot CLI call with the same seed.
struct ExplainRequest {
    std::uint64_t id = 0;
    std::vector<double> features;
    /// Explainer method — any serve/explainers.hpp registry name, or "auto"
    /// to route to the pinned model's exact fast path (flat TreeSHAP on tree
    /// ensembles, integrated gradients on MLPs, kernel SHAP otherwise);
    /// empty selects the service default.
    std::string method;
    /// Registry model name; empty selects the service's default model.  An
    /// unregistered name is rejected with `unknown_model`.
    std::string model;
    /// RNG seed for sampling-based explainers; 0 selects the service default.
    std::uint64_t seed = 0;
    /// Relative deadline in milliseconds from submission; -1 = none.  0 is
    /// rejected at submit() with deadline_exceeded (an already-dead request
    /// must never trigger a silent full computation); > 0 arms both an
    /// expiry check at batch execution and a cooperative cancellation token
    /// inside the explainer.
    std::int64_t deadline_ms = -1;
    /// Opt-in interaction-aware explanation: > 0 returns the top-k mutual
    /// feature-interaction pairs (Friedman H², core/interaction.hpp) next to
    /// the attributions.  0 keeps the response — and the cache key — byte-
    /// identical to the pre-interaction wire format.
    std::size_t interactions = 0;
};

/// Completed answer for one request.
struct ExplainResponse {
    std::uint64_t id = 0;
    bool ok = false;
    bool cache_hit = false;
    /// True when overload stepped this result down the degradation ladder
    /// (reduced sample budget or the occlusion baseline); `budget_used` then
    /// records the effective sample budget.  Degraded results are
    /// deterministic for a fixed (seed, level) but are never cached.
    bool degraded = false;
    /// Sample budget the explainer actually ran with (coalitions,
    /// permutations, or neighborhood samples; 0 for non-sampling methods).
    std::uint64_t budget_used = 0;
    xnfv::xai::Explanation explanation;
    ServeError error_code = ServeError::none;  ///< reason when !ok
    std::string error;                         ///< human-readable detail when !ok
};

/// A request travelling through the service with its completion channel and
/// admission timestamp (for end-to-end service-time accounting).
struct Job {
    ExplainRequest request;
    /// Completion channel: the TCP front-end's push callback, or the one
    /// submit() wraps around a promise.  Called exactly once, on the thread
    /// executing the batch, in admission order among queued jobs; it must
    /// be fast and must not throw.  A cache hit never becomes a Job: the
    /// service answers it at admission, on the calling thread, ahead of
    /// misses admitted earlier (ExplanationService::submit_async).
    std::function<void(ExplainResponse)> on_complete;
    std::chrono::steady_clock::time_point enqueued_at;
    /// Absolute expiry derived from request.deadline_ms at admission;
    /// time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /// Queue depth observed at admission — the load signal the degradation
    /// policy classifies on (deterministically testable, unlike the depth at
    /// batch-execution time).
    std::size_t depth_at_enqueue = 0;
    /// Registry entry the request resolved to at admission (owns the cache
    /// slice, epoch, and per-model counters).  Shared ownership keeps a
    /// retired model's state alive until its last in-flight job completes.
    std::shared_ptr<ModelEntry> model_entry;
    /// The model version pinned at admission: an atomic swap published after
    /// this point does not touch this job — it finishes on the snapshot it
    /// started with (RCU semantics).
    std::shared_ptr<const ModelSnapshot> model_snapshot;
    /// Scheduling class for the DWRR queue (the entry's class id).
    std::size_t model_class = 0;
};

/// Admission/scheduling parameters of one model class.
struct ClassConfig {
    /// Max jobs of this class queued at once; 0 = no per-class cap (the
    /// global depth bound still applies).  Exceeding it rejects with
    /// `quota_exceeded`.
    std::size_t quota = 0;
    /// DWRR weight: pops per scheduling round while backlogged (clamped to
    /// at least 1).
    std::size_t weight = 1;
};

/// Bounded multi-producer / multi-consumer queue of Jobs with per-class
/// quotas and deficit-weighted-round-robin pop order.
///
/// try_push never blocks: a full or closed queue rejects with a reason.
/// pop_batch blocks only while the queue is empty and open.
class RequestQueue {
public:
    /// `depth` is the global backpressure limit (clamped to at least 1).
    explicit RequestQueue(std::size_t depth);

    RequestQueue(const RequestQueue&) = delete;
    RequestQueue& operator=(const RequestQueue&) = delete;

    /// Sets quota/weight for `model_class` (growing the class table as
    /// needed).  Safe to call concurrently with push/pop — the registry
    /// calls this on load/swap/retire while traffic is flowing.
    void configure_class(std::size_t model_class, ClassConfig config);

    /// Admits `job` (into its model_class's FIFO) unless the queue is full,
    /// the class quota is reached, or the queue is closed.  On admission the
    /// job's depth_at_enqueue is stamped with the resulting total depth.
    [[nodiscard]] ServeError try_push(Job job);

    /// Waits until a job is queued or the queue is closed and drained; then
    /// pops every queued job, up to `max` (at least 1), in DWRR order.
    /// Empty = closed and drained.
    [[nodiscard]] std::vector<Job> pop_batch(std::size_t max);

    /// Marks the queue closed: future try_push calls reject, and consumers
    /// waiting on an empty queue wake up.  Already-queued jobs stay poppable.
    void close();

    [[nodiscard]] bool closed() const;
    [[nodiscard]] std::size_t size() const;
    /// Jobs currently queued in one class (0 for an unknown class).
    [[nodiscard]] std::size_t class_size(std::size_t model_class) const;

private:
    /// One scheduling class: its FIFO, admission quota, and DWRR state.
    struct ClassQueue {
        std::deque<Job> jobs;
        std::size_t quota = 0;
        std::size_t weight = 1;
        /// Pops this class may still take in the current round.
        std::size_t deficit = 0;
        bool in_round = false;  ///< queued on the active round-robin list
    };

    void ensure_class_locked(std::size_t model_class);
    [[nodiscard]] Job pop_locked();

    const std::size_t depth_;
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    /// Deque, not vector: growth must never relocate (and thus copy/move)
    /// a ClassQueue holding queued move-only Jobs.
    std::deque<ClassQueue> classes_;
    /// Round-robin order of classes with queued jobs (DWRR active list).
    std::deque<std::size_t> active_;
    std::size_t total_ = 0;
    bool closed_ = false;
};

}  // namespace xnfv::serve
