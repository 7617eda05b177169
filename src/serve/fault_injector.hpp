// Deterministic fault injection for chaos-testing the serving layer.
//
// The failure paths of a fault-tolerant service are exactly the paths that
// never run in a clean test environment.  The FaultInjector is a seam
// compiled into the service permanently (a null/zero-rate injector costs
// one pointer check) with *named* failure points; each poll of a point
// draws from a counter-keyed hash of the injector seed, so a chaos run is
// reproducible: the k-th poll of a point fires or not as a pure function of
// (seed, point, k), independent of wall-clock time or thread identity.
// Which *request* absorbs the k-th poll can still vary with scheduling —
// that is real-world chaos — but the number and pattern of fired faults is
// fixed, and (by the serving determinism contract) every non-faulted
// response is bitwise identical to a fault-free run.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "mlcore/model.hpp"

namespace xnfv::serve {

/// Named failure points the service exposes to the injector.
enum class FaultPoint : std::uint8_t {
    predict_throw = 0,  ///< a model evaluation throws mid-explanation
    queue_stall,        ///< the dispatcher pauses before executing a batch
    cache_corrupt,      ///< the snapshot writer scrambles a record's bytes
};

inline constexpr std::size_t kNumFaultPoints = 3;

[[nodiscard]] constexpr const char* to_string(FaultPoint point) noexcept {
    switch (point) {
        case FaultPoint::predict_throw: return "predict_throw";
        case FaultPoint::queue_stall: return "queue_stall";
        case FaultPoint::cache_corrupt: return "cache_corrupt";
    }
    return "unknown";
}

/// Uniform draw in [0, 1) for the k-th poll of failure point `point` under
/// `seed`: the top 53 bits of an FNV-1a hash of (seed, point, k).
[[nodiscard]] double fault_draw(std::uint64_t seed, std::size_t point,
                                std::uint64_t k) noexcept;

/// Seeded, counter-driven fault schedule over the N failure points of
/// `Point` — the one schedule behind the compute-path injector below and
/// the socket-path injector (net/chaos.hpp).  Thread-safe; a default
/// (zero-rate) schedule never fires.
template <class Point, std::size_t N>
class FaultSchedule {
public:
    struct Config {
        std::uint64_t seed = 0;
        /// Per-point firing probability in [0, 1] for each poll.
        std::array<double, N> rate{};
        /// Per-point cap on total fires; 0 = unlimited.
        std::array<std::uint64_t, N> max_fires{};
    };
    /// Caller-owned poll counters, for a schedule that must replay per
    /// stream (net/chaos.hpp keeps one set per connection).
    using Polls = std::array<std::uint64_t, N>;

    FaultSchedule() = default;
    explicit FaultSchedule(Config config) : config_(config) {}

    /// Polls a failure point, counting the poll in `local` when given and
    /// in the schedule otherwise; true = the caller must act out the fault.
    /// The k-th poll's verdict is a pure function of (seed, point, k), unless
    /// the point's max_fires cap is spent (the fire is then rolled back).
    [[nodiscard]] bool should_fire(Point point, Polls* local = nullptr) noexcept {
        const auto i = static_cast<std::size_t>(point);
        const std::uint64_t k =
            local ? (*local)[i]++ : polls_[i].fetch_add(1, std::memory_order_relaxed);
        const double rate = config_.rate[i];
        if (rate <= 0.0 || fault_draw(config_.seed, i, k) >= rate) return false;
        const std::uint64_t cap = config_.max_fires[i];
        if (fired_[i].fetch_add(1, std::memory_order_relaxed) >= cap && cap != 0) {
            fired_[i].fetch_sub(1, std::memory_order_relaxed);
            return false;
        }
        return true;
    }

    [[nodiscard]] std::uint64_t polls(Point point) const noexcept {
        return polls_[static_cast<std::size_t>(point)].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t fired(Point point) const noexcept {
        return fired_[static_cast<std::size_t>(point)].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t total_fired() const noexcept {
        std::uint64_t total = 0;
        for (const auto& f : fired_) total += f.load(std::memory_order_relaxed);
        return total;
    }
    [[nodiscard]] const Config& config() const noexcept { return config_; }

private:
    Config config_{};
    std::array<std::atomic<std::uint64_t>, N> polls_{};
    std::array<std::atomic<std::uint64_t>, N> fired_{};
};

/// The serving layer's injector over its named failure points.
using FaultInjector = FaultSchedule<FaultPoint, kNumFaultPoints>;

/// Null-safe poll: a service without an injector pays one pointer check.
[[nodiscard]] inline bool fault_fires(FaultInjector* injector, FaultPoint point) noexcept {
    return injector != nullptr && injector->should_fire(point);
}

/// Model proxy that throws on a scheduled fraction of predict() calls —
/// the predict_throw failure point.  Wraps the service's model *after*
/// fingerprinting, so cache keys are unaffected and every non-faulted
/// response stays bitwise identical to a fault-free run.
class FaultInjectingModel final : public xnfv::ml::Model {
public:
    FaultInjectingModel(std::shared_ptr<const xnfv::ml::Model> inner,
                        std::shared_ptr<FaultInjector> injector)
        : inner_(std::move(inner)), injector_(std::move(injector)) {}

    /// Batched probes go through the base class's serial per-row loop, so
    /// each model evaluation is one fault poll, in row order: the blocked
    /// explainer path presents the same (seed, point, k) schedule as the
    /// scalar path.
    [[nodiscard]] double predict(std::span<const double> x) const override;
    [[nodiscard]] std::size_t num_features() const override {
        return inner_->num_features();
    }
    [[nodiscard]] std::string name() const override { return inner_->name(); }

private:
    std::shared_ptr<const xnfv::ml::Model> inner_;
    std::shared_ptr<FaultInjector> injector_;
};

/// Thrown by FaultInjectingModel when predict_throw fires.
class InjectedFault : public std::runtime_error {
public:
    explicit InjectedFault(FaultPoint point)
        : std::runtime_error(std::string("injected fault: ") + to_string(point)) {}
};

}  // namespace xnfv::serve
