// The model abstraction every explainer consumes.
//
// Explanation methods in xnfv::xai only need a scalar-valued function of a
// feature vector: for regression models this is the predicted value, for
// binary classifiers the predicted probability of the positive class.  All
// trainable models in mlcore implement this interface.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mlcore/dataset.hpp"
#include "mlcore/matrix.hpp"

namespace xnfv::ml {

/// Abstract scalar-output predictive model.
class Model {
public:
    Model() = default;
    Model(const Model&) = default;
    Model& operator=(const Model&) = default;
    Model(Model&&) = default;
    Model& operator=(Model&&) = default;
    virtual ~Model() = default;

    /// Predicted value (regression) or positive-class probability
    /// (classification) for a single feature vector of length num_features().
    [[nodiscard]] virtual double predict(std::span<const double> x) const = 0;

    /// Batch prediction into a caller-provided buffer; out.size() must equal
    /// x.rows().  The default loops over predict() on the calling thread;
    /// model families with cache-friendly batch kernels override it.  No
    /// implementation fans out: parallelism belongs to the caller's loop
    /// (the explainer's or the service batch's).  Overrides must produce
    /// bitwise-identical values to the per-row predict() loop — every
    /// explainer relies on this to keep attributions independent of how
    /// probe rows are blocked (enforced by test_predict_batch).
    virtual void predict_batch(const Matrix& x, std::span<double> out) const;

    /// Convenience wrapper allocating a fresh result vector.
    [[nodiscard]] std::vector<double> predict_batch(const Matrix& x) const;

    /// Number of input features the model was trained on.
    [[nodiscard]] virtual std::size_t num_features() const = 0;

    /// Short human-readable identifier ("random_forest", "mlp", ...).
    [[nodiscard]] virtual std::string name() const = 0;
};

/// Adapts an arbitrary callable to the Model interface.  Used in tests and
/// to explain functions with known ground-truth attributions.
class LambdaModel final : public Model {
public:
    using Fn = std::function<double(std::span<const double>)>;

    LambdaModel(std::size_t num_features, Fn fn, std::string name = "lambda")
        : fn_(std::move(fn)), num_features_(num_features), name_(std::move(name)) {}

    [[nodiscard]] double predict(std::span<const double> x) const override { return fn_(x); }
    [[nodiscard]] std::size_t num_features() const override { return num_features_; }
    [[nodiscard]] std::string name() const override { return name_; }

private:
    Fn fn_;
    std::size_t num_features_;
    std::string name_;
};

/// Hard 0/1 class decision from a probability model at threshold 0.5.
[[nodiscard]] inline double hard_label(double probability) noexcept {
    return probability >= 0.5 ? 1.0 : 0.0;
}

}  // namespace xnfv::ml
