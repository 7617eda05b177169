#include "serve/fault_injector.hpp"

#include "serve/explanation_cache.hpp"  // fnv1a_u64

namespace xnfv::serve {

double fault_draw(std::uint64_t seed, std::size_t point, std::uint64_t k) noexcept {
    const std::uint64_t h =
        fnv1a_u64(k, fnv1a_u64(point, fnv1a_u64(seed, 0xcbf29ce484222325ULL)));
    return static_cast<double>(h >> 11) * 0x1.0p-53;  // top 53 bits -> [0, 1)
}

double FaultInjectingModel::predict(std::span<const double> x) const {
    if (fault_fires(injector_.get(), FaultPoint::predict_throw))
        throw InjectedFault(FaultPoint::predict_throw);
    return inner_->predict(x);
}

}  // namespace xnfv::serve
