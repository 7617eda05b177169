#include "core/exact_shapley.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace xnfv::xai {

double log_binomial(std::size_t n, std::size_t k) {
    if (k > n) return -std::numeric_limits<double>::infinity();
    return log_gamma(static_cast<double>(n) + 1.0) -
           log_gamma(static_cast<double>(k) + 1.0) -
           log_gamma(static_cast<double>(n - k) + 1.0);
}

double shapley_kernel_weight(std::size_t d, std::size_t s) {
    if (s == 0 || s == d) return std::numeric_limits<double>::infinity();
    const double log_w = std::log(static_cast<double>(d) - 1.0) - log_binomial(d, s) -
                         std::log(static_cast<double>(s)) -
                         std::log(static_cast<double>(d - s));
    return std::exp(log_w);
}

Explanation ExactShapley::explain(const xnfv::ml::Model& model, std::span<const double> x) {
    const std::size_t d = model.num_features();
    if (x.size() != d)
        throw std::invalid_argument("ExactShapley: input size mismatch");
    if (d > config_.max_features)
        throw std::invalid_argument("ExactShapley: too many features (" + std::to_string(d) +
                                    " > " + std::to_string(config_.max_features) + ")");
    if (background_.empty())
        throw std::invalid_argument("ExactShapley: empty background");

    const std::size_t n_subsets = std::size_t{1} << d;
    const auto& bg = background_.samples();
    const double inv_bg = 1.0 / static_cast<double>(bg.rows());

    // v[mask] = E_b[ f(x_S, b_!S) ] with S encoded as a bitmask.
    std::vector<double> v(n_subsets, 0.0);
    std::vector<double> probe(d);
    for (std::size_t mask = 0; mask < n_subsets; ++mask) {
        double acc = 0.0;
        for (std::size_t b = 0; b < bg.rows(); ++b) {
            const auto brow = bg.row(b);
            for (std::size_t j = 0; j < d; ++j)
                probe[j] = (mask >> j) & 1u ? x[j] : brow[j];
            acc += model.predict(probe);
        }
        v[mask] = acc * inv_bg;
    }

    // phi_i = sum over S not containing i of |S|!(d-|S|-1)!/d! * (v(S+i)-v(S)).
    // Precompute the factorial weights per coalition size.
    std::vector<double> weight(d);
    for (std::size_t s = 0; s < d; ++s) {
        weight[s] = std::exp(log_gamma(static_cast<double>(s) + 1.0) +
                             log_gamma(static_cast<double>(d - s)) -
                             log_gamma(static_cast<double>(d) + 1.0));
    }

    Explanation e;
    e.method = name();
    e.attributions.assign(d, 0.0);
    for (std::size_t mask = 0; mask < n_subsets; ++mask) {
        const auto s = static_cast<std::size_t>(std::popcount(mask));
        for (std::size_t i = 0; i < d; ++i) {
            if ((mask >> i) & 1u) continue;
            e.attributions[i] += weight[s] * (v[mask | (std::size_t{1} << i)] - v[mask]);
        }
    }
    e.base_value = v[0];
    e.prediction = model.predict(x);
    return e;
}

}  // namespace xnfv::xai
