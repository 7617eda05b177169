#include "mlcore/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "mlcore/matrix.hpp"

namespace xnfv::ml {

double sigmoid(double z) noexcept {
    if (z >= 0.0) {
        const double e = std::exp(-z);
        return 1.0 / (1.0 + e);
    }
    const double e = std::exp(z);
    return e / (1.0 + e);
}

void LinearRegression::fit(const Dataset& d) {
    if (d.size() == 0) throw std::invalid_argument("LinearRegression::fit: empty dataset");
    const std::size_t n = d.size();
    const std::size_t p = d.num_features();

    // Augment with an intercept column; exclude it from the ridge penalty by
    // penalizing only the first p coordinates (the solver applies a uniform
    // l2, so we center y and X instead, which is equivalent).
    std::vector<double> xmean = d.feature_means();
    double ymean = 0.0;
    for (double v : d.y) ymean += v;
    ymean /= static_cast<double>(n);

    Matrix xc(n, p);
    std::vector<double> yc(n);
    for (std::size_t r = 0; r < n; ++r) {
        const auto row = d.x.row(r);
        auto dst = xc.row(r);
        for (std::size_t c = 0; c < p; ++c) dst[c] = row[c] - xmean[c];
        yc[r] = d.y[r] - ymean;
    }
    const std::vector<double> w(n, 1.0);
    coef_ = weighted_least_squares(xc, yc, w, config_.l2);
    intercept_ = ymean - dot(coef_, xmean);
}

double LinearRegression::predict(std::span<const double> x) const {
    if (x.size() != coef_.size())
        throw std::invalid_argument("LinearRegression::predict: size mismatch");
    return intercept_ + dot(coef_, x);
}

void LinearRegression::predict_batch(const Matrix& x, std::span<double> out) const {
    if (x.rows() == 0) return;
    if (out.size() != x.rows())
        throw std::invalid_argument("LinearRegression::predict_batch: output size mismatch");
    if (x.cols() != coef_.size())
        throw std::invalid_argument("LinearRegression::predict: size mismatch");
    for (std::size_t r = 0; r < x.rows(); ++r) out[r] = intercept_ + dot(coef_, x.row(r));
}

void LogisticRegression::fit(const Dataset& d) {
    if (d.size() == 0) throw std::invalid_argument("LogisticRegression::fit: empty dataset");
    const std::size_t n = d.size();
    const std::size_t p = d.num_features();
    coef_.assign(p, 0.0);
    intercept_ = 0.0;

    std::vector<double> grad(p);
    double prev_loss = std::numeric_limits<double>::infinity();
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
        std::fill(grad.begin(), grad.end(), 0.0);
        double grad0 = 0.0;
        double loss = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto xi = d.x.row(i);
            const double z = intercept_ + dot(coef_, xi);
            const double prob = sigmoid(z);
            const double err = prob - d.y[i];
            grad0 += err;
            for (std::size_t c = 0; c < p; ++c) grad[c] += err * xi[c];
            const double pc = std::clamp(prob, 1e-12, 1.0 - 1e-12);
            loss += d.y[i] > 0.5 ? -std::log(pc) : -std::log(1.0 - pc);
        }
        const double inv_n = 1.0 / static_cast<double>(n);
        loss *= inv_n;
        for (std::size_t c = 0; c < p; ++c) {
            loss += 0.5 * config_.l2 * coef_[c] * coef_[c];
            coef_[c] -= config_.learning_rate * (grad[c] * inv_n + config_.l2 * coef_[c]);
        }
        intercept_ -= config_.learning_rate * grad0 * inv_n;
        if (std::abs(prev_loss - loss) < config_.tolerance) break;
        prev_loss = loss;
    }
}

double LogisticRegression::predict(std::span<const double> x) const {
    if (x.size() != coef_.size())
        throw std::invalid_argument("LogisticRegression::predict: size mismatch");
    return sigmoid(intercept_ + dot(coef_, x));
}

void LogisticRegression::predict_batch(const Matrix& x, std::span<double> out) const {
    if (x.rows() == 0) return;
    if (out.size() != x.rows())
        throw std::invalid_argument("LogisticRegression::predict_batch: output size mismatch");
    if (x.cols() != coef_.size())
        throw std::invalid_argument("LogisticRegression::predict: size mismatch");
    for (std::size_t r = 0; r < x.rows(); ++r)
        out[r] = sigmoid(intercept_ + dot(coef_, x.row(r)));
}

}  // namespace xnfv::ml
