// The single registry of explainer method names.
//
// Every place that enumerates explainers — make_explainer's dispatch,
// request validation, the router's fast-path table, the CLI usage
// text, ND-JSON error messages, and the per-explainer stats slices — draws
// from this one array, so adding a method is a one-line change that cannot
// leave a stale list behind in an error string or a --help screen.
//
// Order is load-bearing: the index of a name here is the index of its
// per-explainer metrics slice (ServiceMetrics::explainers), so the array
// is append-only.
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace xnfv::serve {

inline constexpr std::array<const char*, 6> kExplainerNames = {
    "tree_shap", "kernel_shap", "sampling",
    "lime",      "occlusion",   "integrated_gradients",
};
inline constexpr std::size_t kNumExplainers = kExplainerNames.size();

/// The routing pseudo-method: resolved per model snapshot to an exact fast
/// path (tree_shap / integrated_gradients) or the probe default.  Never a
/// valid *resolved* method — responses always carry a concrete name.
inline constexpr const char* kAutoMethod = "auto";

/// Index of `method` in kExplainerNames; kNumExplainers when unknown.
[[nodiscard]] inline std::size_t explainer_index(const std::string& method) noexcept {
    for (std::size_t i = 0; i < kNumExplainers; ++i)
        if (method == kExplainerNames[i]) return i;
    return kNumExplainers;
}

/// True when `method` names a concrete explainer (not "auto").
[[nodiscard]] inline bool known_explainer(const std::string& method) noexcept {
    return explainer_index(method) < kNumExplainers;
}

/// "tree_shap|kernel_shap|..." — usage screens and error messages.
[[nodiscard]] inline std::string explainer_list(const char* sep = "|") {
    std::string out;
    for (const char* name : kExplainerNames) {
        if (!out.empty()) out += sep;
        out += name;
    }
    return out;
}

/// Same list with "auto" first (everywhere a *request* method is accepted).
[[nodiscard]] inline std::string explainer_list_with_auto(const char* sep = "|") {
    return std::string(kAutoMethod) + sep + explainer_list(sep);
}

}  // namespace xnfv::serve
