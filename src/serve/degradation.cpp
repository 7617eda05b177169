#include "serve/degradation.hpp"

#include <algorithm>

namespace xnfv::serve {

DegradationPolicy::DegradationPolicy(DegradationConfig config) : config_(config) {
    config_.reduced_budget_scale = std::clamp(config_.reduced_budget_scale, 1e-3, 1.0);
    // A lone reduced threshold still defines a ladder; a baseline threshold
    // below the reduced one would make `reduced` unreachable, so order them.
    if (config_.reduced_queue_depth != 0 && config_.baseline_queue_depth != 0)
        config_.baseline_queue_depth =
            std::max(config_.baseline_queue_depth, config_.reduced_queue_depth);
}

DegradeLevel DegradationPolicy::classify(std::size_t queue_depth) const noexcept {
    const auto crossed = [queue_depth](std::size_t threshold) {
        return threshold != 0 && queue_depth >= threshold;
    };
    if (crossed(config_.baseline_queue_depth)) return DegradeLevel::baseline;
    if (crossed(config_.reduced_queue_depth)) return DegradeLevel::reduced;
    return DegradeLevel::full;
}

}  // namespace xnfv::serve
