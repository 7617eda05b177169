// Shared helpers of the serving benchmark harness: the clock, order
// statistics, hashing, metric records and the in-memory span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/// q-quantile by linear interpolation between order statistics (the same
/// rule as numpy's default); sorts `v`.  0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double>& v, double q);

/// serve::fnv1a over the bytes of `s`, chainable through `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// One reported number.  `samples` is how many observations it summarises
/// (printed next to the result; the JSON result line carries value and unit).
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/// Spans recorded by the traced run: name, start, end, parent and request.
/// They stay in memory and are written out once, when the run ends.
class Tracer {
public:
    static constexpr std::uint32_t kNoParent = UINT32_MAX;

    struct Span {
        const char* name = "";
        std::uint32_t parent = kNoParent;
        std::uint64_t request = 0;
        Clock::time_point start{}, end{};
    };

    /// Room for a traced replay without reallocating mid-run (about 20 MB).
    Tracer() { spans_.reserve(1 << 19); }

    /// Opens a span now; returns its id.
    std::uint32_t begin(const char* name, std::uint64_t request,
                        std::uint32_t parent = kNoParent) {
        return open(name, request, parent, Clock::now());
    }
    std::uint32_t open(const char* name, std::uint64_t request, std::uint32_t parent,
                       Clock::time_point start) {
        spans_.push_back({name, parent, request, start, start});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }
    void end(std::uint32_t id) { spans_[id].end = Clock::now(); }
    void close(std::uint32_t id, Clock::time_point at) { spans_[id].end = at; }

    /// Runs fn() inside a span and returns its result.
    template <class Fn>
    auto timed(const char* name, std::uint64_t request, std::uint32_t parent, Fn&& fn) {
        const auto id = begin(name, request, parent);
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            end(id);
        } else {
            auto result = fn();
            end(id);
            return result;
        }
    }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Durations in microseconds of every closed span named `name`.
    [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;

    /// Self time of every root span (its duration minus the part its direct
    /// children cover), in microseconds.
    [[nodiscard]] std::vector<double> root_self_us() const;

    /// Writes every span as one JSON array (times in ns from the first span).
    void write_json(const std::string& path) const;

private:
    std::vector<Span> spans_;
};

}  // namespace perfbench
