// Graceful-degradation policy: step overloaded requests down a ladder
// instead of rejecting them.
//
// Sampling-based attribution is budget-tunable — fewer KernelSHAP
// coalitions or Shapley permutations yield a coarser but still
// Shapley-consistent answer — which makes degradation a principled overload
// response for an explanation service: a NOC operator staring at an
// incident is better served by a cheap approximate attribution *now* than
// by queue_full.  The ladder:
//
//   full      — the requested method at its configured sample budget
//   reduced   — the requested method with its budget scaled down
//   baseline  — single-feature occlusion (the cheapest local attribution)
//
// The policy is a pure object: it maps observed load (the queue depth a
// request saw at admission) to a level, and never reads a clock or a queue
// itself — so every threshold is unit-testable without sleeps.  Degraded results are deterministic (same
// seed + same level => same bytes) and are stamped with `degraded` plus the
// budget actually used; they bypass the cache so a transient overload can
// never pin coarse answers into it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xnfv::serve {

/// Rung of the degradation ladder, ordered by decreasing fidelity.
enum class DegradeLevel : std::uint8_t {
    full = 0,
    reduced = 1,
    baseline = 2,
};

[[nodiscard]] constexpr const char* to_string(DegradeLevel level) noexcept {
    switch (level) {
        case DegradeLevel::full: return "full";
        case DegradeLevel::reduced: return "reduced";
        case DegradeLevel::baseline: return "baseline";
    }
    return "unknown";
}

struct DegradationConfig {
    /// Queue-depth thresholds (depth observed at admission); 0 disables the
    /// corresponding rung.  A depth >= baseline_queue_depth outranks
    /// reduced_queue_depth.
    std::size_t reduced_queue_depth = 0;
    std::size_t baseline_queue_depth = 0;
    /// Sample-budget multiplier applied at `reduced` (clamped to (0, 1]).
    double reduced_budget_scale = 0.25;

    [[nodiscard]] bool enabled() const noexcept {
        return reduced_queue_depth != 0 || baseline_queue_depth != 0;
    }
};

/// Pure load -> ladder-rung classifier.
class DegradationPolicy {
public:
    DegradationPolicy() = default;
    explicit DegradationPolicy(DegradationConfig config);

    /// The most degraded rung a crossed threshold demands of a request
    /// that saw `queue_depth` jobs queued at admission.
    [[nodiscard]] DegradeLevel classify(std::size_t queue_depth) const noexcept;

    [[nodiscard]] const DegradationConfig& config() const noexcept { return config_; }
    [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }

private:
    DegradationConfig config_{};
};

}  // namespace xnfv::serve
