// Shared fixtures and synthetic-data helpers for the xnfv test suite.
#pragma once

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mlcore/dataset.hpp"
#include "mlcore/model.hpp"
#include "mlcore/rng.hpp"
#include "serve/service.hpp"

namespace xnfv::testutil {

/// y = intercept + sum w_i x_i + N(0, noise); x ~ U(-1, 1)^d.
inline xnfv::ml::Dataset make_linear_dataset(std::span<const double> weights, double intercept,
                                             std::size_t n, xnfv::ml::Rng& rng,
                                             double noise = 0.0) {
    xnfv::ml::Dataset d;
    d.task = xnfv::ml::Task::regression;
    for (std::size_t j = 0; j < weights.size(); ++j)
        d.feature_names.push_back("x" + std::to_string(j));
    std::vector<double> row(weights.size());
    for (std::size_t i = 0; i < n; ++i) {
        double y = intercept;
        for (std::size_t j = 0; j < weights.size(); ++j) {
            row[j] = rng.uniform(-1.0, 1.0);
            y += weights[j] * row[j];
        }
        if (noise > 0.0) y += rng.normal(0.0, noise);
        d.add(row, y);
    }
    return d;
}

/// Binary labels from a logistic model over U(-1,1)^d inputs.
inline xnfv::ml::Dataset make_logistic_dataset(std::span<const double> weights,
                                               double intercept, std::size_t n,
                                               xnfv::ml::Rng& rng) {
    xnfv::ml::Dataset d;
    d.task = xnfv::ml::Task::binary_classification;
    for (std::size_t j = 0; j < weights.size(); ++j)
        d.feature_names.push_back("x" + std::to_string(j));
    std::vector<double> row(weights.size());
    for (std::size_t i = 0; i < n; ++i) {
        double z = intercept;
        for (std::size_t j = 0; j < weights.size(); ++j) {
            row[j] = rng.uniform(-1.0, 1.0);
            z += weights[j] * row[j];
        }
        const double p = 1.0 / (1.0 + std::exp(-z));
        d.add(row, rng.bernoulli(p) ? 1.0 : 0.0);
    }
    return d;
}

/// Classic XOR: y = 1 iff sign(x0) != sign(x1); only learnable with
/// interactions, so it separates linear from nonlinear learners.
inline xnfv::ml::Dataset make_xor_dataset(std::size_t n, xnfv::ml::Rng& rng,
                                          bool as_classification = true) {
    xnfv::ml::Dataset d;
    d.task = as_classification ? xnfv::ml::Task::binary_classification
                               : xnfv::ml::Task::regression;
    d.feature_names = {"x0", "x1"};
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(-1.0, 1.0);
        const double b = rng.uniform(-1.0, 1.0);
        d.add(std::vector<double>{a, b}, (a > 0.0) != (b > 0.0) ? 1.0 : 0.0);
    }
    return d;
}

/// Uniform background matrix over [-1, 1]^d.
inline xnfv::ml::Matrix make_uniform_background(std::size_t rows, std::size_t d,
                                                xnfv::ml::Rng& rng) {
    xnfv::ml::Matrix m(rows, d);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < d; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
    return m;
}

/// Max absolute element-wise difference between two vectors.
inline double max_abs_diff(std::span<const double> a, std::span<const double> b) {
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

/// One-way barrier: wait() blocks until release(); await_arrival() reports
/// whether some caller entered wait() within `timeout`.
struct Gate {
    std::mutex m;
    std::condition_variable cv;
    bool arrived = false;
    bool open = false;
    void wait() {
        std::unique_lock lock(m);
        arrived = true;
        cv.notify_all();
        cv.wait(lock, [this] { return open; });
    }
    [[nodiscard]] bool await_arrival(std::chrono::milliseconds timeout) {
        std::unique_lock lock(m);
        return cv.wait_for(lock, timeout, [this] { return arrived; });
    }
    void release() {
        {
            std::lock_guard lock(m);
            open = true;
        }
        cv.notify_all();
    }
};

/// A `dim`-feature model that answers 0 once its gate opens.  add_gate()
/// registers one beside a service's real model, and a DispatcherHold parks
/// the dispatcher inside it.
class GatedModel final : public xnfv::ml::Model {
public:
    explicit GatedModel(std::size_t dim) : dim_(dim) {}

    [[nodiscard]] double predict(std::span<const double>) const override {
        gate_.wait();
        return 0.0;
    }
    [[nodiscard]] std::size_t num_features() const override { return dim_; }
    [[nodiscard]] std::string name() const override { return "gate"; }

    [[nodiscard]] bool await_arrival(std::chrono::milliseconds timeout) const {
        return gate_.await_arrival(timeout);
    }
    void release() const { gate_.release(); }

private:
    std::size_t dim_;
    mutable Gate gate_;
};

/// Registers a `dim`-feature GatedModel named "gate" in `cfg`.
inline std::shared_ptr<const GatedModel> add_gate(xnfv::serve::ServiceConfig& cfg,
                                                  std::size_t dim) {
    auto gate = std::make_shared<const GatedModel>(dim);
    cfg.extra_models.push_back({"gate", gate});
    return gate;
}

/// Holds a service's dispatcher inside one request to its "gate" model:
/// jobs submitted while the hold lasts queue behind it and are taken
/// together, up to max_batch, once release() opens the gate — with no
/// timing assumption.  The destructor opens the gate too, so a failed
/// assertion ends the test instead of leaving the dispatcher blocked.
class DispatcherHold {
public:
    DispatcherHold(xnfv::serve::ExplanationService& service,
                   std::shared_ptr<const GatedModel> gate)
        : gate_(std::move(gate)) {
        xnfv::serve::ExplainRequest r;
        r.model = "gate";
        r.method = "occlusion";  // a probe method, so it evaluates the model
        r.features.assign(gate_->num_features(), 0.0);
        auto sub = service.submit(std::move(r));
        if (sub.rejected != xnfv::serve::ServeError::none)
            throw std::runtime_error("gate request rejected");
        held_ = std::move(sub.response);
        if (!gate_->await_arrival(std::chrono::seconds(30))) {
            gate_->release();
            throw std::runtime_error("dispatcher never reached the gate");
        }
    }
    DispatcherHold(const DispatcherHold&) = delete;
    DispatcherHold& operator=(const DispatcherHold&) = delete;
    ~DispatcherHold() { gate_->release(); }

    /// Opens the gate; returns the held request's response.
    xnfv::serve::ExplainResponse release() {
        gate_->release();
        return held_.get();
    }

private:
    std::shared_ptr<const GatedModel> gate_;
    std::future<xnfv::serve::ExplainResponse> held_;
};

}  // namespace xnfv::testutil
