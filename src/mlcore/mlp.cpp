#include "mlcore/mlp.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "mlcore/linear.hpp"  // sigmoid

namespace xnfv::ml {

double Mlp::activate(double z) const noexcept {
    return config_.activation == Activation::relu ? (z > 0.0 ? z : 0.0) : std::tanh(z);
}

// Derivative expressed in terms of the activation value `a` (both ReLU and
// tanh admit this form), which avoids storing pre-activations.
double Mlp::activate_grad(double a) const noexcept {
    return config_.activation == Activation::relu ? (a > 0.0 ? 1.0 : 0.0) : 1.0 - a * a;
}

void Mlp::fit(const Dataset& d, Rng& rng) {
    if (d.size() == 0) throw std::invalid_argument("Mlp::fit: empty dataset");
    d.validate();
    num_inputs_ = d.num_features();
    task_ = d.task;
    adam_step_ = 0;

    // Layer sizes: input -> hidden... -> 1.
    std::vector<std::size_t> sizes{num_inputs_};
    for (std::size_t h : config_.hidden_layers) {
        if (h == 0) throw std::invalid_argument("Mlp: zero-width hidden layer");
        sizes.push_back(h);
    }
    sizes.push_back(1);

    layers_.clear();
    for (std::size_t li = 0; li + 1 < sizes.size(); ++li) {
        Layer layer;
        layer.in = sizes[li];
        layer.out = sizes[li + 1];
        layer.w.resize(layer.in * layer.out);
        layer.b.assign(layer.out, 0.0);
        // He/Xavier-style initialization keyed to the activation.
        const double scale = config_.activation == Activation::relu
                                 ? std::sqrt(2.0 / static_cast<double>(layer.in))
                                 : std::sqrt(1.0 / static_cast<double>(layer.in));
        for (double& w : layer.w) w = rng.normal(0.0, scale);
        layer.mw.assign(layer.w.size(), 0.0);
        layer.vw.assign(layer.w.size(), 0.0);
        layer.mb.assign(layer.b.size(), 0.0);
        layer.vb.assign(layer.b.size(), 0.0);
        layers_.push_back(std::move(layer));
    }

    const std::size_t n = d.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});

    // Per-layer gradient accumulators, allocated once.
    std::vector<std::vector<double>> gw(layers_.size()), gb(layers_.size());
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        gw[li].assign(layers_[li].w.size(), 0.0);
        gb[li].assign(layers_[li].b.size(), 0.0);
    }

    std::vector<std::vector<double>> acts;  // activations[0] = input copy
    std::vector<std::vector<double>> delta(layers_.size());

    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
        rng.shuffle(order);
        double epoch_loss = 0.0;
        std::size_t batch_start = 0;
        while (batch_start < n) {
            const std::size_t batch_end =
                std::min(batch_start + config_.batch_size, n);
            const double inv_batch =
                1.0 / static_cast<double>(batch_end - batch_start);
            for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0);
            for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0);

            for (std::size_t bi = batch_start; bi < batch_end; ++bi) {
                const std::size_t row = order[bi];
                const double out = forward(d.x.row(row), &acts);

                // dL/d(output) for MSE is (out - y); for BCE-with-sigmoid it
                // is (sigmoid(out) - y) — identical algebraic form.
                double dout;
                if (task_ == Task::binary_classification) {
                    const double p = sigmoid(out);
                    dout = p - d.y[row];
                    const double pc = std::clamp(p, 1e-12, 1.0 - 1e-12);
                    epoch_loss +=
                        d.y[row] > 0.5 ? -std::log(pc) : -std::log(1.0 - pc);
                } else {
                    dout = out - d.y[row];
                    epoch_loss += 0.5 * dout * dout;
                }

                // Backward pass.
                for (std::size_t li = layers_.size(); li-- > 0;) {
                    const Layer& layer = layers_[li];
                    auto& dl = delta[li];
                    if (li + 1 == layers_.size()) {
                        dl.assign(1, dout);
                    } else {
                        // delta = (W_next^T delta_next) * act'(a)
                        const Layer& next = layers_[li + 1];
                        const auto& dnext = delta[li + 1];
                        dl.assign(layer.out, 0.0);
                        for (std::size_t o = 0; o < next.out; ++o) {
                            const double dn = dnext[o];
                            for (std::size_t i2 = 0; i2 < next.in; ++i2)
                                dl[i2] += next.w[o * next.in + i2] * dn;
                        }
                        const auto& a = acts[li + 1];
                        for (std::size_t i2 = 0; i2 < layer.out; ++i2)
                            dl[i2] *= activate_grad(a[i2]);
                    }
                    const auto& input = acts[li];
                    for (std::size_t o = 0; o < layer.out; ++o) {
                        const double dv = dl[o];
                        gb[li][o] += dv;
                        for (std::size_t i2 = 0; i2 < layer.in; ++i2)
                            gw[li][o * layer.in + i2] += dv * input[i2];
                    }
                }
            }

            // Adam update.
            ++adam_step_;
            const double bc1 =
                1.0 - std::pow(config_.beta1, static_cast<double>(adam_step_));
            const double bc2 =
                1.0 - std::pow(config_.beta2, static_cast<double>(adam_step_));
            for (std::size_t li = 0; li < layers_.size(); ++li) {
                Layer& layer = layers_[li];
                auto update = [&](std::vector<double>& param, std::vector<double>& m,
                                  std::vector<double>& v, const std::vector<double>& g,
                                  bool weight_decay) {
                    for (std::size_t k = 0; k < param.size(); ++k) {
                        double grad = g[k] * inv_batch;
                        if (weight_decay) grad += config_.l2 * param[k];
                        m[k] = config_.beta1 * m[k] + (1.0 - config_.beta1) * grad;
                        v[k] = config_.beta2 * v[k] + (1.0 - config_.beta2) * grad * grad;
                        const double mhat = m[k] / bc1;
                        const double vhat = v[k] / bc2;
                        param[k] -= config_.learning_rate * mhat /
                                    (std::sqrt(vhat) + 1e-8);
                    }
                };
                update(layer.w, layer.mw, layer.vw, gw[li], /*weight_decay=*/true);
                update(layer.b, layer.mb, layer.vb, gb[li], /*weight_decay=*/false);
            }
            batch_start = batch_end;
        }
        final_loss_ = epoch_loss / static_cast<double>(n);
    }
}

double Mlp::forward(std::span<const double> x,
                    std::vector<std::vector<double>>* activations) const {
    if (activations) {
        activations->resize(layers_.size() + 1);
        (*activations)[0].assign(x.begin(), x.end());
    }
    std::vector<double> cur(x.begin(), x.end());
    std::vector<double> nxt;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        const Layer& layer = layers_[li];
        nxt.assign(layer.out, 0.0);
        for (std::size_t o = 0; o < layer.out; ++o) {
            double z = layer.b[o];
            const double* wrow = layer.w.data() + o * layer.in;
            for (std::size_t i = 0; i < layer.in; ++i) z += wrow[i] * cur[i];
            // The final (scalar) layer is linear; hidden layers use the
            // configured nonlinearity.
            nxt[o] = (li + 1 == layers_.size()) ? z : activate(z);
        }
        if (activations) (*activations)[li + 1] = nxt;
        cur.swap(nxt);
    }
    return cur[0];
}

double Mlp::forward_reuse(std::span<const double> x, std::vector<double>& cur,
                          std::vector<double>& nxt) const {
    // Mirrors forward(..., nullptr) expression-for-expression so the result
    // is bitwise identical; the only difference is buffer reuse.
    cur.assign(x.begin(), x.end());
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        const Layer& layer = layers_[li];
        nxt.assign(layer.out, 0.0);
        for (std::size_t o = 0; o < layer.out; ++o) {
            double z = layer.b[o];
            const double* wrow = layer.w.data() + o * layer.in;
            for (std::size_t i = 0; i < layer.in; ++i) z += wrow[i] * cur[i];
            nxt[o] = (li + 1 == layers_.size()) ? z : activate(z);
        }
        cur.swap(nxt);
    }
    return cur[0];
}

std::vector<double> Mlp::input_gradient(std::span<const double> x) const {
    if (layers_.empty()) throw std::logic_error("Mlp::input_gradient before fit");
    if (x.size() != num_inputs_)
        throw std::invalid_argument("Mlp::input_gradient: size mismatch");

    std::vector<std::vector<double>> acts;
    const double out = forward(x, &acts);

    // Backward pass: delta over each layer's outputs, then one more
    // propagation step through the first layer's weights to the inputs.
    std::vector<double> delta{1.0};  // d(out)/d(out)
    if (task_ == Task::binary_classification) {
        const double p = sigmoid(out);
        delta[0] = p * (1.0 - p);  // chain through the output sigmoid
    }
    for (std::size_t li = layers_.size(); li-- > 0;) {
        const Layer& layer = layers_[li];
        std::vector<double> prev(layer.in, 0.0);
        for (std::size_t o = 0; o < layer.out; ++o) {
            const double dv = delta[o];
            if (dv == 0.0) continue;
            const double* wrow = layer.w.data() + o * layer.in;
            for (std::size_t i = 0; i < layer.in; ++i) prev[i] += wrow[i] * dv;
        }
        if (li > 0) {
            // Chain through the previous layer's activation function.
            const auto& a = acts[li];
            for (std::size_t i = 0; i < prev.size(); ++i) prev[i] *= activate_grad(a[i]);
        }
        delta = std::move(prev);
    }
    return delta;
}

double Mlp::predict(std::span<const double> x) const {
    if (layers_.empty()) throw std::logic_error("Mlp::predict before fit");
    if (x.size() != num_inputs_)
        throw std::invalid_argument("Mlp::predict: size mismatch");
    const double out = forward(x, nullptr);
    return task_ == Task::binary_classification ? sigmoid(out) : out;
}

void Mlp::predict_batch(const Matrix& x, std::span<double> out) const {
    if (x.rows() == 0) return;
    if (out.size() != x.rows())
        throw std::invalid_argument("Mlp::predict_batch: output size mismatch");
    if (layers_.empty()) throw std::logic_error("Mlp::predict before fit");
    if (x.cols() != num_inputs_)
        throw std::invalid_argument("Mlp::predict: size mismatch");
    std::vector<double> cur, nxt;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double o = forward_reuse(x.row(r), cur, nxt);
        out[r] = task_ == Task::binary_classification ? sigmoid(o) : o;
    }
}

}  // namespace xnfv::ml
