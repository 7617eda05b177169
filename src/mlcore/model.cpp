#include "mlcore/model.hpp"

#include <stdexcept>

namespace xnfv::ml {

void Model::predict_batch(const Matrix& x, std::span<double> out) const {
    if (x.rows() == 0) return;
    if (out.size() != x.rows())
        throw std::invalid_argument("Model::predict_batch: output size mismatch");
    for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict(x.row(r));
}

std::vector<double> Model::predict_batch(const Matrix& x) const {
    std::vector<double> out(x.rows());
    predict_batch(x, std::span<double>(out));
    return out;
}

}  // namespace xnfv::ml
