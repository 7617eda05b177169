#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <unordered_map>
#include <utility>

#include "core/flat_tree_shap.hpp"
#include "core/gradient.hpp"
#include "core/interaction.hpp"
#include "core/kernel_shap.hpp"
#include "core/lime.hpp"
#include "core/occlusion.hpp"
#include "core/parallel.hpp"
#include "core/sampling_shapley.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"

namespace xnfv::serve {

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;

using Clock = std::chrono::steady_clock;

namespace {

/// How long the dispatcher pauses when the queue_stall fault fires.
constexpr std::chrono::milliseconds kFaultStall{20};

[[nodiscard]] std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

[[nodiscard]] std::uint64_t background_fingerprint(const xai::BackgroundData& bg) {
    const auto data = bg.samples().data();
    std::uint64_t h = fnv1a_u64(bg.samples().cols());
    for (const double v : data)
        h = fnv1a_u64(std::bit_cast<std::uint64_t>(v), h);
    return h;
}

[[nodiscard]] double clamp_scale(double scale) noexcept {
    return std::clamp(scale, 0.001, 1.0);
}

/// Counts model evaluations (probe rows) flowing out of an explainer so the
/// service can report per-explanation probe volume.  Batches are forwarded
/// to the inner model wholesale, so the flattened batch kernels stay
/// engaged; the count is rows, making scalar and batched probes comparable.
class EvalCountingModel final : public ml::Model {
public:
    explicit EvalCountingModel(const ml::Model& inner) : inner_(inner) {}

    [[nodiscard]] double predict(std::span<const double> x) const override {
        evals_.fetch_add(1, std::memory_order_relaxed);
        return inner_.predict(x);
    }
    void predict_batch(const ml::Matrix& x, std::span<double> out) const override {
        evals_.fetch_add(x.rows(), std::memory_order_relaxed);
        inner_.predict_batch(x, out);
    }
    using ml::Model::predict_batch;
    [[nodiscard]] std::size_t num_features() const override {
        return inner_.num_features();
    }
    [[nodiscard]] std::string name() const override { return inner_.name(); }

    [[nodiscard]] std::uint64_t evals() const noexcept {
        return evals_.load(std::memory_order_relaxed);
    }

private:
    const ml::Model& inner_;
    mutable std::atomic<std::uint64_t> evals_{0};
};

/// base * scale, rounded, but never below `floor` (a degraded sampling
/// explainer must still be a well-posed estimator).
[[nodiscard]] std::size_t scaled_budget(std::size_t base, double scale,
                                        std::size_t floor) noexcept {
    const auto want = static_cast<std::size_t>(
        std::llround(scale * static_cast<double>(base)));
    return std::max(floor, want);
}

}  // namespace

std::uint64_t effective_budget(const std::string& method, double budget_scale,
                               const xai::BackgroundData& background,
                               std::size_t ig_steps) {
    const double scale = clamp_scale(budget_scale);
    if (method == "kernel_shap")
        return scaled_budget(xai::KernelShap::Config{}.max_coalitions, scale, 16);
    if (method == "sampling")
        return scaled_budget(xai::SamplingShapley::Config{}.num_permutations, scale, 8);
    if (method == "lime")
        return scaled_budget(xai::Lime::Config{}.num_samples, scale,
                             background.num_features() + 2);
    if (method == "occlusion") return background.num_features();
    if (method == "integrated_gradients") return scaled_budget(ig_steps, scale, 8);
    return 0;  // tree_shap: exact, no sample budget
}

std::unique_ptr<xai::Explainer> make_explainer(const std::string& method,
                                               const xai::BackgroundData& background,
                                               std::uint64_t seed, std::size_t threads,
                                               const ExplainerLimits& limits) {
    const double scale = clamp_scale(limits.budget_scale);
    // The flat kernel is the tree_shap implementation everywhere — one-shot
    // and served paths alike — and is pinned bitwise-identical to the
    // recursive walker by tests/test_fast_path.cpp.
    if (method == "tree_shap")
        return std::make_unique<xai::FlatTreeShapExplainer>(threads);
    if (method == "integrated_gradients") {
        xai::IntegratedGradients::Config cfg;
        cfg.steps = scaled_budget(limits.ig_steps, scale, 8);
        return std::make_unique<xai::IntegratedGradients>(background, cfg);
    }
    if (method == "kernel_shap") {
        xai::KernelShap::Config cfg;
        cfg.max_coalitions = scaled_budget(cfg.max_coalitions, scale, 16);
        cfg.threads = threads;
        cfg.cancel = limits.cancel;
        return std::make_unique<xai::KernelShap>(background, ml::Rng(seed), cfg);
    }
    if (method == "sampling") {
        xai::SamplingShapley::Config cfg;
        cfg.num_permutations = scaled_budget(cfg.num_permutations, scale, 8);
        cfg.threads = threads;
        cfg.cancel = limits.cancel;
        return std::make_unique<xai::SamplingShapley>(background, ml::Rng(seed), cfg);
    }
    if (method == "lime") {
        xai::Lime::Config cfg;
        cfg.num_samples =
            scaled_budget(cfg.num_samples, scale, background.num_features() + 2);
        cfg.threads = threads;
        cfg.cancel = limits.cancel;
        return std::make_unique<xai::Lime>(background, ml::Rng(seed), cfg);
    }
    if (method == "occlusion") {
        xai::Occlusion::Config cfg;
        cfg.threads = threads;
        cfg.cancel = limits.cancel;
        return std::make_unique<xai::Occlusion>(background, cfg);
    }
    throw std::runtime_error("unknown method '" + method + "' (expected " +
                             explainer_list_with_auto() + ")");
}

bool known_method(const std::string& method) noexcept {
    return known_explainer(method);
}

ExplanationService::ExplanationService(std::shared_ptr<const ml::Model> model,
                                       xai::BackgroundData background,
                                       ServiceConfig config)
    : background_(std::move(background)),
      config_(std::move(config)),
      background_fingerprint_(background_fingerprint(background_)),
      registry_(RegistryConfig{config_.cache_capacity, config_.cache_shards,
                              config_.fault_injector},
                &background_),
      queue_(config_.queue_depth),
      degrade_(config_.degradation) {
    if (config_.method != kAutoMethod && !known_method(config_.method))
        throw std::runtime_error("unknown method '" + config_.method +
                                 "' (expected " + explainer_list_with_auto() + ")");
    // Cache-key fingerprints of the fast-path explainer configs: the
    // tree_shap kernel variant tag, and the IG step count.  Probe methods
    // keep a zero component, so their keys are byte-for-byte what this
    // service has always produced.
    explainer_config_fp_[explainer_index("tree_shap")] = hash_string("flat_tree_shap_v1");
    explainer_config_fp_[explainer_index("integrated_gradients")] =
        fnv1a_u64(config_.ig_steps, hash_string("ig_steps"));
    // The constructor's model becomes the default (first-loaded) entry; any
    // configured extra models follow, in order.  The registry wires each
    // entry's DWRR class config into the queue as it is created.
    std::string why;
    const std::string default_name =
        config_.default_model_name.empty() ? "default" : config_.default_model_name;
    if (model_load(default_name, std::move(model), config_.default_weight,
                   config_.default_quota, &why) != ServeError::none)
        throw std::runtime_error("cannot register default model: " + why);
    for (const ModelSpec& spec : config_.extra_models) {
        if (model_load(spec.name, spec.model, spec.weight, spec.quota, &why) !=
            ServeError::none)
            throw std::runtime_error("cannot register model '" + spec.name +
                                     "': " + why);
    }
    if (!config_.snapshot_path.empty()) load_snapshot();
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
    if (!config_.snapshot_path.empty() && config_.snapshot_interval.count() > 0)
        snapshotter_ = std::jthread([this](std::stop_token stop) { snapshot_loop(stop); });
}

ServeError ExplanationService::model_load(const std::string& name,
                                          std::shared_ptr<const ml::Model> model,
                                          std::size_t weight, std::size_t quota,
                                          std::string* why) {
    const ServeError err = registry_.load(name, std::move(model), weight, quota, why);
    if (err != ServeError::none) return err;
    const auto entry = registry_.resolve(name);
    queue_.configure_class(
        entry->class_id,
        ClassConfig{static_cast<std::size_t>(entry->quota.load(std::memory_order_relaxed)),
                    static_cast<std::size_t>(entry->weight.load(std::memory_order_relaxed))});
    return ServeError::none;
}

ServeError ExplanationService::model_swap(const std::string& name,
                                          std::shared_ptr<const ml::Model> model,
                                          std::string* why) {
    return registry_.swap(name, std::move(model), why);
}

ServeError ExplanationService::model_retire(const std::string& name,
                                            std::string* why) {
    return registry_.retire(name, why);
}

ExplanationService::~ExplanationService() { stop(); }

void ExplanationService::stop() {
    std::call_once(stop_once_, [this] {
        // The dispatcher returns only once the queue is closed and empty, so
        // every accepted request is answered before the join completes.
        queue_.close();
        dispatcher_.join();
        if (snapshotter_.joinable()) {
            snapshotter_.request_stop();
            snapshotter_.join();
        }
        if (!config_.snapshot_path.empty()) save_snapshot();
    });
}

void ExplanationService::note_stall(Clock::time_point now) const noexcept {
    const Clock::rep beat = heartbeat_ns_.load(std::memory_order_relaxed);
    if (now - Clock::time_point(Clock::duration(beat)) <= kStallThreshold ||
        queue_.size() == 0)
        return;
    Clock::rep counted = stalled_heartbeat_ns_.load(std::memory_order_relaxed);
    if (counted != beat && stalled_heartbeat_ns_.compare_exchange_strong(
                               counted, beat, std::memory_order_relaxed))
        metrics_.inc(&ServiceStats::worker_stalls);
}

ServeError ExplanationService::prepare_job(ExplainRequest request, Job& job) {
    // Resolve the model first: an unknown name is its own failure class, not
    // a malformed payload.  The snapshot pinned here is what the job will be
    // explained against, no matter how many hot swaps land after this line.
    std::shared_ptr<ModelEntry> entry = registry_.resolve(request.model);
    if (!entry) return ServeError::unknown_model;
    std::shared_ptr<const ModelSnapshot> snapshot = entry->current();
    if (request.features.size() != snapshot->model->num_features() ||
        (!request.method.empty() && request.method != kAutoMethod &&
         !known_method(request.method)))
        return ServeError::bad_request;
    if (std::any_of(request.features.begin(), request.features.end(),
                    [](double v) { return !std::isfinite(v); }))
        return ServeError::bad_features;
    if (request.deadline_ms == 0) {
        // Already expired at the door; a silent full computation would be a
        // worse bug than the rejection.
        return ServeError::deadline_exceeded;
    }
    const Clock::time_point now = Clock::now();
    // Breaker check comes last so an admitted half-open probe can only be
    // lost to a queue rejection (which breaker_abandon() undoes), never to
    // a validation failure.
    if (!entry->breaker_admit(config_.breaker, now))
        return ServeError::circuit_open;
    job.request = std::move(request);
    job.model_entry = std::move(entry);
    job.model_snapshot = std::move(snapshot);
    job.model_class = job.model_entry->class_id;
    job.enqueued_at = now;
    if (job.request.deadline_ms > 0)
        job.deadline =
            job.enqueued_at + std::chrono::milliseconds(job.request.deadline_ms);
    return ServeError::none;
}

ExplanationService::Submission ExplanationService::submit(ExplainRequest request) {
    // std::function needs a copyable callable, so the promise is shared.
    auto promise = std::make_shared<std::promise<ExplainResponse>>();
    Submission out;
    out.response = promise->get_future();
    out.rejected = submit_async(std::move(request), [promise](ExplainResponse response) {
        promise->set_value(std::move(response));
    });
    if (out.rejected != ServeError::none) out.response = {};
    return out;
}

ServeError ExplanationService::submit_async(
    ExplainRequest request, std::function<void(ExplainResponse)> on_complete,
    std::optional<ExplainResponse>* hit) {
    Job job;
    ServeError reject = prepare_job(std::move(request), job);
    // After the breaker and before the cache probe: a stopped service
    // answers nothing, cached or not.
    if (reject == ServeError::none && queue_.closed()) reject = ServeError::service_stopped;
    if (reject == ServeError::none) {
        // The admission probe counts only its hits.  A miss is queued, and
        // the dispatcher's own probe counts it.
        if (auto cached = job.model_entry->cache.lookup(key_for(job))) {
            ExplainResponse r;
            r.id = job.request.id;
            r.ok = true;
            r.cache_hit = true;
            r.explanation = std::move(*cached);
            job.model_entry->admitted.inc();
            metrics_.inc(&ServiceStats::requests_accepted);
            metrics_.inc(&ServiceStats::cache_hits);
            record_completion(job, r, Clock::now());
            note_stall(job.enqueued_at);
            if (hit != nullptr)
                *hit = std::move(r);
            else
                on_complete(std::move(r));
            return ServeError::none;
        }
    }
    const std::shared_ptr<ModelEntry> entry = job.model_entry;
    const Clock::time_point admitted_at = job.enqueued_at;
    if (reject == ServeError::none) {
        job.on_complete = std::move(on_complete);
        reject = queue_.try_push(std::move(job));
    }
    if (reject != ServeError::none) {
        metrics_.inc(&ServiceStats::requests_rejected);
        metrics_.count_error(reject);
        if (entry && reject == ServeError::quota_exceeded) entry->rejected_quota.inc();
        // prepare_job admitted (possibly as a half-open probe) but the
        // queue refused: release the probe so the next request can retry it.
        if (entry) entry->breaker_abandon(config_.breaker);
        return reject;
    }
    entry->admitted.inc();
    metrics_.inc(&ServiceStats::requests_accepted);
    metrics_.queue_depth.set(queue_.size());
    note_stall(admitted_at);
    return ServeError::none;
}

ExplainResponse ExplanationService::explain_sync(ExplainRequest request) {
    const std::uint64_t id = request.id;
    Submission sub = submit(std::move(request));
    if (sub.rejected != ServeError::none) {
        ExplainResponse r;
        r.id = id;
        r.ok = false;
        r.error_code = sub.rejected;
        r.error = std::string("rejected: ") + to_string(sub.rejected);
        return r;
    }
    return sub.response.get();
}

void ExplanationService::dispatcher_loop() {
    for (;;) {
        // Waiting for work is never a stall, so the heartbeat reads as idle
        // until the pop returns, and is stamped once per batch.
        heartbeat_ns_.store(kIdleHeartbeat, std::memory_order_relaxed);
        // Work-conserving: block only until the first job, then run it with
        // everything already queued behind it.  With no deadline, an empty
        // pop means the queue is closed and drained.
        std::vector<Job> batch =
            queue_.pop_batch(Clock::time_point::max(), config_.max_batch);
        if (batch.empty()) return;
        heartbeat_ns_.store(Clock::now().time_since_epoch().count(),
                            std::memory_order_relaxed);
        if (fault_fires(config_.fault_injector.get(), FaultPoint::queue_stall))
            std::this_thread::sleep_for(kFaultStall);
        metrics_.queue_depth.set(queue_.size());
        execute_batch(std::move(batch));
    }
}

void ExplanationService::snapshot_loop(std::stop_token stop) {
    // Its own thread, not the dispatcher's: exporting and writing a full
    // cache takes milliseconds, and every queued request would wait for it.
    std::mutex mutex;
    std::condition_variable_any wake;  // woken early only by request_stop()
    std::unique_lock lock(mutex);
    for (;;) {
        wake.wait_for(lock, stop, config_.snapshot_interval, [] { return false; });
        if (stop.stop_requested()) return;
        save_snapshot();
    }
}

CacheKey ExplanationService::key_for(const Job& job) const {
    const ExplainRequest& request = job.request;
    const std::string& requested =
        request.method.empty() ? config_.method : request.method;
    // Keys hash the *resolved* method, so "auto" and an explicit request for
    // the same explainer share cache entries.  Routing against the pinned
    // snapshot keeps keys consistent across hot swaps that change the kind.
    const std::string method =
        requested == kAutoMethod ? job.model_snapshot->auto_method : requested;
    const std::uint64_t seed = request.seed == 0 ? config_.seed : request.seed;
    // Seeded with the fingerprint the job *pinned*, so a request that raced
    // a hot swap keys (and caches) against the version it was computed with.
    std::uint64_t context = hash_string(method, job.model_snapshot->fingerprint);
    context = fnv1a_u64(seed, context);
    // Fast-path explainer config (kernel variant / IG steps): two services
    // differing only in ig_steps must never cross-hit via snapshot restore.
    // A zero fingerprint (probe methods) is skipped, keeping those keys
    // byte-identical to what this service always produced.
    if (const std::size_t ei = explainer_index(method);
        ei < kNumExplainers && explainer_config_fp_[ei] != 0)
        context = fnv1a_u64(explainer_config_fp_[ei], context);
    context = fnv1a_u64(std::bit_cast<std::uint64_t>(config_.cache_quantum), context);
    context = fnv1a_u64(background_fingerprint_, context);
    // Drift epoch: bumping it re-keys this model's cache slice, so stale
    // entries age out through the LRU instead of being served after the
    // traffic shifted.
    context = fnv1a_u64(job.model_entry->epoch.load(std::memory_order_relaxed), context);
    // Interaction-aware requests key separately: the cached Explanation then
    // carries its top-k H² pairs, and a later plain request can never hit an
    // interaction-carrying entry (or vice versa).  k == 0 skips all three
    // mixes, so pre-interaction keys stay byte-identical.
    if (request.interactions > 0) {
        context = hash_string("interactions_v1", context);
        context = fnv1a_u64(request.interactions, context);
        context = fnv1a_u64(config_.interaction_points, context);
    }
    return CacheKey(request.features, config_.cache_quantum, context);
}

std::shared_ptr<const std::vector<xai::InteractionPair>>
ExplanationService::interaction_table(const ModelSnapshot& snapshot) const {
    // The H² statistic is deterministic and feature-independent — it depends
    // only on (model version, background, pair, max_points) — so the full
    // pair table is computed once per model fingerprint and memoized.  The
    // mutex is held across the computation deliberately: racing requests for
    // a cold table would duplicate O(d² · points²) model probes, and one-time
    // serialization is the cheaper failure mode.
    std::lock_guard lock(interactions_mutex_);
    if (const auto it = interaction_tables_.find(snapshot.fingerprint);
        it != interaction_tables_.end())
        return it->second;
    const std::size_t d = background_.num_features();
    auto table = std::make_shared<std::vector<xai::InteractionPair>>();
    if (d >= 2) {
        const auto h2 = xai::interaction_matrix(*snapshot.model, background_,
                                                {config_.interaction_points});
        table->reserve(d * (d - 1) / 2);
        for (std::size_t j = 0; j + 1 < d; ++j)
            for (std::size_t k = j + 1; k < d; ++k) table->push_back({j, k, h2[j][k]});
    }
    // Strongest interaction first; (i, j) ascending on ties so the order —
    // and therefore the served top-k slice — is fully deterministic.
    std::sort(table->begin(), table->end(),
              [](const xai::InteractionPair& a, const xai::InteractionPair& b) {
                  if (a.h2 != b.h2) return a.h2 > b.h2;
                  return a.i != b.i ? a.i < b.i : a.j < b.j;
              });
    interaction_tables_.emplace(snapshot.fingerprint, table);
    return table;
}

ExplainResponse ExplanationService::run_request(const Job& job,
                                               DegradeLevel level,
                                               Clock::time_point deadline,
                                               ComputeOutcome& outcome) const {
    const ExplainRequest& request = job.request;
    const ModelSnapshot& snap = *job.model_snapshot;
    ExplainResponse r;
    r.id = request.id;
    const std::string& requested =
        request.method.empty() ? config_.method : request.method;
    // Route against the pinned snapshot's kind (stamped at load/swap):
    // "auto" resolves to the kind's exact fast path or the probe default; a
    // forced exact method the kind cannot run is a structured failure, not
    // a silent degradation.
    const RouteDecision route = route_explainer(requested, snap.kind);
    if (route.unsupported) {
        r.ok = false;
        r.error_code = ServeError::unsupported_explainer;
        r.error = route.why;
        return r;
    }
    std::string method = route.method;
    bool fast_path = route.fast_path;
    const std::uint64_t seed = request.seed == 0 ? config_.seed : request.seed;
    double scale = 1.0;
    if (level == DegradeLevel::reduced) {
        scale = config_.degradation.reduced_budget_scale;
    } else if (level == DegradeLevel::baseline) {
        method = "occlusion";  // cheapest rung: one evaluation per feature
        fast_path = false;
    }
    xai::CancelToken token;
    ExplainerLimits limits;
    limits.budget_scale = scale;
    limits.ig_steps = config_.ig_steps;
    if (deadline != Clock::time_point::max()) {
        token.set_deadline(deadline);
        limits.cancel = &token;
    }
    // tree_shap walks the trees and integrated_gradients downcasts to the
    // MLP's analytic gradient, so both must see the real serving model;
    // every other method probes through the counting proxy (which forwards
    // batches wholesale — results are unaffected).
    const bool direct = method == "tree_shap" || method == "integrated_gradients";
    const ml::Model& serving = *snap.serving;
    const EvalCountingModel counting(serving);
    const ml::Model& probed =
        direct ? serving : static_cast<const ml::Model&>(counting);
    try {
        if (method == "tree_shap" && snap.flat_shap) {
            // Exact tree fast path: the snapshot's prebuilt flat walker with
            // per-thread scratch — zero allocations once warm, bitwise equal
            // to the per-request explainer below.  The flat state bypasses
            // the serving wrapper, so the predict_throw chaos point is
            // polled explicitly (once per explain) to keep fault schedules
            // composing with the fast path.
            if (fault_fires(config_.fault_injector.get(), FaultPoint::predict_throw))
                throw InjectedFault(FaultPoint::predict_throw);
            thread_local xai::FlatShapScratch scratch;
            r.explanation = snap.flat_shap->explain(request.features, scratch);
        } else {
            const auto explainer =
                make_explainer(method, background_, seed, config_.threads, limits);
            r.explanation = explainer->explain(probed, request.features);
        }
        r.ok = true;
        r.degraded = level != DegradeLevel::full;
        r.budget_used = effective_budget(method, scale, background_, config_.ig_steps);
        outcome.fast_path = fast_path;
        // Opt-in interaction pairs ride the explanation at every fidelity
        // level: the memoized table costs nothing after the first request per
        // model version, and a degraded attribution next to exact H² pairs is
        // still a coherent answer (the pairs never depend on the budget).
        if (request.interactions > 0) {
            const auto table = interaction_table(snap);
            const auto take = std::min(request.interactions, table->size());
            r.explanation.interactions.assign(
                table->begin(),
                table->begin() + static_cast<std::ptrdiff_t>(take));
        }
    } catch (const xai::BudgetExceeded&) {
        r.ok = false;
        r.error_code = ServeError::deadline_exceeded;
        r.error = "deadline exceeded during computation";
    } catch (const InjectedFault& e) {
        r.ok = false;
        r.error_code = ServeError::fault_injected;
        r.error = e.what();
    } catch (const std::exception& e) {
        r.ok = false;
        r.error_code = ServeError::internal_error;
        r.error = e.what();
    }
    outcome.probe_rows = counting.evals();
    outcome.explainer = explainer_index(method);
    return r;
}

void ExplanationService::execute_batch(std::vector<Job> batch) {
    metrics_.inc(&ServiceStats::batches);
    metrics_.batch_size.record(batch.size());

    const Clock::time_point batch_now = Clock::now();  // one clock read per batch
    const double p99 = metrics_.service_time_us.quantile(0.99);

    // Phase 1 — deadline triage, degradation classification, and the cache
    // probe, in admission order so hit/miss accounting (and duplicate
    // handling inside one batch) is deterministic.  A key that misses the
    // cache but equals an earlier miss *at the same degradation level* is
    // not recomputed: it shares the primary's result (a batch-local hit).
    // A cache hit is always served at full fidelity — a stored answer beats
    // a degraded recomputation.
    struct KeyHash {
        std::size_t operator()(const CacheKey& k) const noexcept {
            return static_cast<std::size_t>(k.hash());
        }
    };
    std::vector<CacheKey> keys;
    keys.reserve(batch.size());
    for (const Job& job : batch) keys.push_back(key_for(job));

    std::vector<ExplainResponse> responses(batch.size());
    std::vector<DegradeLevel> levels(batch.size(), DegradeLevel::full);
    std::vector<std::size_t> to_compute;
    to_compute.reserve(batch.size());
    std::array<std::unordered_map<CacheKey, std::size_t, KeyHash>, 3> inflight;
    std::vector<std::pair<std::size_t, std::size_t>> duplicates;  // (i, primary)
    for (std::size_t i = 0; i < batch.size(); ++i) {
        responses[i].id = batch[i].request.id;
        if (batch_now >= batch[i].deadline) {
            responses[i].ok = false;
            responses[i].error_code = ServeError::deadline_exceeded;
            responses[i].error = "deadline expired before execution";
            continue;
        }
        if (degrade_.enabled())
            levels[i] = degrade_.classify({batch[i].depth_at_enqueue, p99});
        auto& level_inflight = inflight[static_cast<std::size_t>(levels[i])];
        if (auto cached = batch[i].model_entry->cache.lookup(keys[i])) {
            responses[i].ok = true;
            responses[i].cache_hit = true;
            responses[i].explanation = std::move(*cached);
            metrics_.inc(&ServiceStats::cache_hits);
        } else if (const auto it = level_inflight.find(keys[i]);
                   it != level_inflight.end()) {
            duplicates.emplace_back(i, it->second);
        } else {
            level_inflight.emplace(keys[i], i);
            metrics_.inc(&ServiceStats::cache_misses);
            to_compute.push_back(i);
        }
    }

    // Phase 2 — compute all misses across the shared pool.  Each request is
    // keyed by its own seed, so results do not depend on batch composition,
    // order, or thread count.
    std::vector<std::uint64_t> compute_us(to_compute.size(), 0);
    std::vector<ComputeOutcome> outcomes(to_compute.size());
    xnfv::parallel_for(to_compute.size(), config_.threads, [&](std::size_t k) {
        const std::size_t i = to_compute[k];
        const auto start = Clock::now();
        responses[i] =
            run_request(batch[i], levels[i], batch[i].deadline, outcomes[k]);
        compute_us[k] = elapsed_us(start, Clock::now());
    });

    // Phase 3 — resolve duplicates, populate the cache, complete futures.
    // Only full-fidelity results enter the cache: a transient overload must
    // never pin degraded answers into it.
    for (const auto& [i, primary] : duplicates) {
        const std::uint64_t id = responses[i].id;
        responses[i] = responses[primary];
        responses[i].id = id;
        responses[i].cache_hit = responses[i].ok;
        metrics_.inc(&ServiceStats::cache_hits);
    }
    for (std::size_t k = 0; k < to_compute.size(); ++k) {
        const std::size_t i = to_compute[k];
        metrics_.compute_time_us.record(compute_us[k]);
        metrics_.inc(&ServiceStats::model_evals, outcomes[k].probe_rows);
        batch[i].model_entry->evals.inc(outcomes[k].probe_rows);
        if (responses[i].ok) metrics_.probe_rows.record(outcomes[k].probe_rows);
        if (const std::size_t ei = outcomes[k].explainer;
            responses[i].ok && ei < kNumExplainers) {
            metrics_.explainers[ei].requests.inc();
            metrics_.explainers[ei].compute_us.record(compute_us[k]);
            if (outcomes[k].fast_path) {
                metrics_.inc(&ServiceStats::fast_path_hits);
                metrics_.explainers[ei].fast_path_hits.inc();
            }
        }
        if (responses[i].ok && levels[i] == DegradeLevel::full) {
            batch[i].model_entry->cache.insert(keys[i], responses[i].explanation);
            // Only freshly computed full-fidelity attributions feed the
            // drift windows: cache hits would double-count the past, and
            // degraded answers have a different budget.
            observe_attributions(*batch[i].model_entry,
                                 responses[i].explanation.attributions,
                                 batch[i].model_snapshot->fingerprint);
        }
    }
    const auto done = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        record_completion(batch[i], responses[i], done);
        try {
            batch[i].on_complete(std::move(responses[i]));
        } catch (...) {
            // A completion channel must never take the dispatcher down.
        }
    }
}

void ExplanationService::record_completion(const Job& job,
                                           const ExplainResponse& response,
                                           Clock::time_point done) {
    metrics_.service_time_us.record(elapsed_us(job.enqueued_at, done));
    metrics_.inc(&ServiceStats::requests_completed);
    job.model_entry->completed.inc();
    job.model_entry->breaker_record(config_.breaker, response.ok);
    if (response.ok) {
        job.model_snapshot->base_value.store(response.explanation.base_value,
                                             std::memory_order_relaxed);
        if (response.degraded) metrics_.inc(&ServiceStats::requests_degraded);
    } else {
        metrics_.count_error(response.error_code);
    }
}

void ExplanationService::observe_attributions(
    ModelEntry& entry, const std::vector<double>& attributions,
    std::uint64_t fingerprint) {
    const std::size_t window = config_.drift_window;
    if (window == 0 || attributions.empty()) return;
    ModelEntry::DriftState& d = entry.drift;
    if (d.fingerprint != fingerprint || d.ref_abs.size() != attributions.size()) {
        // First observation, or the model version changed under a hot swap:
        // attributions are not comparable across versions, so both windows
        // restart against the new fingerprint.
        d.fingerprint = fingerprint;
        d.ref_abs.assign(attributions.size(), 0.0);
        d.ref_signed.assign(attributions.size(), 0.0);
        d.cur_abs.assign(attributions.size(), 0.0);
        d.cur_signed.assign(attributions.size(), 0.0);
        d.ref_count = 0;
        d.cur_count = 0;
    }
    if (d.ref_count < window) {
        // Still sealing the reference: the first `window` full-fidelity
        // explanations served define "normal".
        for (std::size_t j = 0; j < attributions.size(); ++j) {
            d.ref_abs[j] += std::abs(attributions[j]);
            d.ref_signed[j] += attributions[j];
        }
        ++d.ref_count;
        return;
    }
    for (std::size_t j = 0; j < attributions.size(); ++j) {
        d.cur_abs[j] += std::abs(attributions[j]);
        d.cur_signed[j] += attributions[j];
    }
    if (++d.cur_count < window) return;

    const auto mean_of = [](const std::vector<double>& sums, std::size_t n) {
        std::vector<double> out = sums;
        for (double& v : out) v /= static_cast<double>(n);
        return out;
    };
    xai::GlobalAttribution reference;
    reference.mean_abs = mean_of(d.ref_abs, d.ref_count);
    reference.mean_signed = mean_of(d.ref_signed, d.ref_count);
    reference.num_instances = d.ref_count;
    xai::GlobalAttribution current;
    current.mean_abs = mean_of(d.cur_abs, d.cur_count);
    current.mean_signed = mean_of(d.cur_signed, d.cur_count);
    current.num_instances = d.cur_count;

    metrics_.inc(&ServiceStats::drift_checks);
    try {
        const auto report =
            xai::attribution_drift(reference, current, config_.drift_thresholds);
        if (report.drifted) {
            entry.epoch.fetch_add(1, std::memory_order_relaxed);
            metrics_.inc(&ServiceStats::drift_flushes);
        }
    } catch (const std::exception&) {
        // Degenerate windows (all-zero attributions) are not drift.
    }
    std::fill(d.cur_abs.begin(), d.cur_abs.end(), 0.0);
    std::fill(d.cur_signed.begin(), d.cur_signed.end(), 0.0);
    d.cur_count = 0;
}

std::string ExplanationService::snapshot_path_for(const ModelEntry& entry,
                                                  std::uint64_t fingerprint) const {
    std::string path = config_.snapshot_path;
    // The default model keeps the bare configured path (single-model layouts
    // stay byte-compatible); every other model gets a fingerprint-qualified
    // name so two models can never collide or cross-restore.
    if (entry.name != registry_.default_name())
        path += "." + fingerprint_hex(fingerprint);
    return path + config_.snapshot_suffix;
}

void ExplanationService::load_snapshot() {
    for (const auto& entry : registry_.entries()) {
        const auto snap = entry->current();
        const SnapshotHeader expect{snap->fingerprint, background_fingerprint_,
                                    config_.cache_quantum};
        SnapshotLoadResult result =
            read_snapshot(snapshot_path_for(*entry, snap->fingerprint), expect);
        // A missing file, or one whose header pins a fingerprint no longer
        // registered here, just starts this model cold — it must never abort
        // the restore of the other models.
        if (!result.loaded) continue;
        for (SnapshotRecord& rec : result.records)
            entry->cache.insert(CacheKey(std::move(rec.key_words), rec.key_context),
                                std::move(rec.explanation));
        metrics_.inc(&ServiceStats::snapshot_records_loaded, result.records.size());
        metrics_.inc(&ServiceStats::snapshot_records_skipped, result.skipped);
    }
}

void ExplanationService::save_snapshot() {
    for (const auto& entry : registry_.entries()) {
        const auto snap = entry->current();
        auto entries = entry->cache.export_lru_oldest_first();
        std::vector<SnapshotRecord> records;
        records.reserve(entries.size());
        for (auto& [key, explanation] : entries)
            records.push_back(
                SnapshotRecord{key.words(), key.context(), std::move(explanation)});
        const SnapshotHeader header{snap->fingerprint, background_fingerprint_,
                                    config_.cache_quantum};
        const std::string path = snapshot_path_for(*entry, snap->fingerprint);
        if (!write_snapshot(path, header, records)) continue;
        metrics_.inc(&ServiceStats::snapshot_writes);
        // cache_corrupt fault: flip one byte mid-file, so the next startup
        // must exercise the reader's skip-and-resync path for real.
        if (fault_fires(config_.fault_injector.get(), FaultPoint::cache_corrupt)) {
            if (std::FILE* f = std::fopen(path.c_str(), "r+b")) {
                std::fseek(f, 0, SEEK_END);
                const long size = std::ftell(f);
                if (size > 0) {
                    std::fseek(f, size / 2, SEEK_SET);
                    const int c = std::fgetc(f);
                    if (c != EOF) {
                        std::fseek(f, size / 2, SEEK_SET);
                        std::fputc(c ^ 0xFF, f);
                    }
                }
                std::fclose(f);
            }
        }
    }
}

ServiceStats ExplanationService::stats() const {
    note_stall(Clock::now());
    ServiceStats s = metrics_.snapshot();
    s.faults_injected =
        config_.fault_injector ? config_.fault_injector->total_fired() : 0;

    // Registry section: per-model slices in registration order.  The
    // top-level cache occupancy/epoch fields report fleet totals (epoch:
    // the default model's, preserving their single-model meaning).
    const auto entries = registry_.entries();
    const std::string default_name = registry_.default_name();
    s.models_registered = entries.size();
    for (const auto& entry : entries) {
        const auto snap = entry->current();
        const CacheStats cs = entry->cache.stats();
        ModelServiceStats m;
        m.name = entry->name;
        read_model_metrics(*entry, m);
        m.fingerprint = fingerprint_hex(snap->fingerprint);
        m.cache_entries = cs.entries;
        m.cache_evictions = cs.evictions;
        m.cache_epoch = entry->epoch.load(std::memory_order_relaxed);
        m.queued = queue_.class_size(entry->class_id);
        m.weight = entry->weight.load(std::memory_order_relaxed);
        m.quota = entry->quota.load(std::memory_order_relaxed);
        m.base_value = snap->base_value.load(std::memory_order_relaxed);
        m.breaker_state = static_cast<std::uint64_t>(entry->breaker_state());
        s.cache_entries += m.cache_entries;
        s.cache_evictions += m.cache_evictions;
        s.model_swaps += m.swaps;
        if (entry->name == default_name) s.cache_epoch = m.cache_epoch;
        s.models.push_back(std::move(m));
    }
    return s;
}

}  // namespace xnfv::serve
