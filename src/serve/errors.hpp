// The single error taxonomy of the serving layer.
//
// Every way a request can fail — at admission (rejection before entering
// the queue) or after acceptance (an error response) — is one enumerator
// here, with a stable wire string.  The service counts occurrences
// per-reason (ServiceStats::errors_by_reason), so an operator can tell a
// backpressure storm (queue_full) from a client bug (bad_request /
// bad_features) from an SLO miss (deadline_exceeded) at a glance, instead
// of grepping free-form message strings.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xnfv::serve {

/// Why a request failed.  `none` means success.
enum class ServeError : std::uint8_t {
    none = 0,
    queue_full,          ///< backpressure: admission-queue depth limit reached
    service_stopped,     ///< queue closed during shutdown
    bad_request,         ///< malformed payload (wrong arity, unknown method/op)
    bad_features,        ///< non-finite (NaN/Inf) or non-numeric feature values
    deadline_exceeded,   ///< request deadline passed before or during compute
    internal_error,      ///< explainer or model threw during computation
    fault_injected,      ///< failure produced by the chaos-testing injector
    backpressure,        ///< slow/half-open consumer: output cap or conn limit
    unknown_model,       ///< request named a model the registry does not hold
    quota_exceeded,      ///< per-model admission quota reached (tenant, not fleet)
    retry_duplicate,     ///< retried rid answered from the dedup window (no recompute)
    circuit_open,        ///< per-tenant circuit breaker rejected the request
    net_fault_injected,  ///< socket-level chaos fault fired (counting, not a failure)
    unsupported_explainer,  ///< forced exact explainer incompatible with the model kind
};

/// Number of enumerators (for per-reason counter arrays).
inline constexpr std::size_t kNumServeErrors = 15;

[[nodiscard]] constexpr const char* to_string(ServeError error) noexcept {
    switch (error) {
        case ServeError::none: return "none";
        case ServeError::queue_full: return "queue_full";
        case ServeError::service_stopped: return "service_stopped";
        case ServeError::bad_request: return "bad_request";
        case ServeError::bad_features: return "bad_features";
        case ServeError::deadline_exceeded: return "deadline_exceeded";
        case ServeError::internal_error: return "internal_error";
        case ServeError::fault_injected: return "fault_injected";
        case ServeError::backpressure: return "backpressure";
        case ServeError::unknown_model: return "unknown_model";
        case ServeError::quota_exceeded: return "quota_exceeded";
        case ServeError::retry_duplicate: return "retry_duplicate";
        case ServeError::circuit_open: return "circuit_open";
        case ServeError::net_fault_injected: return "net_fault_injected";
        case ServeError::unsupported_explainer: return "unsupported_explainer";
    }
    return "unknown";
}

}  // namespace xnfv::serve
