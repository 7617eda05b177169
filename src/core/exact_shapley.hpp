// Exact Shapley values by subset enumeration.
//
// Exponential in the number of features (2^d model-evaluation batches), so
// this is a *reference implementation*: the F3 runtime figure shows the blow
// up, the A1 ablation uses it as ground truth for KernelSHAP's sampling
// error, and the unit tests validate both KernelSHAP and TreeSHAP against
// it.  The value function is interventional:
//     v(S) = E_b~background [ f(x_S, b_{!S}) ]
#pragma once

#include <cmath>

#include "core/explanation.hpp"
#include "mlcore/model.hpp"

namespace xnfv::xai {

class ExactShapley final : public Explainer {
public:
    struct Config {
        /// Hard limit on d to avoid accidental 2^30 explosions.
        std::size_t max_features = 20;
    };

    explicit ExactShapley(BackgroundData background)
        : ExactShapley(std::move(background), Config{}) {}
    ExactShapley(BackgroundData background, Config config)
        : background_(std::move(background)), config_(config) {}

    /// Throws std::invalid_argument if the model has more features than the
    /// configured limit or the background is empty.
    [[nodiscard]] Explanation explain(const xnfv::ml::Model& model,
                                      std::span<const double> x) override;

    [[nodiscard]] std::string name() const override { return "exact_shapley"; }

private:
    BackgroundData background_;
    Config config_;
};

/// Shapley kernel weight for a coalition of size `s` out of `d` players:
/// w = (d - 1) / (C(d, s) * s * (d - s)); infinite at s == 0 and s == d
/// (those coalitions are handled as constraints).  Exposed for KernelSHAP
/// and tests.
[[nodiscard]] double shapley_kernel_weight(std::size_t d, std::size_t s);

/// ln C(n, k) via lgamma (stable for large n).
[[nodiscard]] double log_binomial(std::size_t n, std::size_t k);

/// ln|Gamma(x)| through glibc's lgamma_r.  std::lgamma also writes the global
/// `signgam`, a data race when explainers run on several threads at once;
/// the value is the same.
[[nodiscard]] inline double log_gamma(double x) noexcept {
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

}  // namespace xnfv::xai
