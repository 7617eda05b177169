#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "serve/explanation_cache.hpp"

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
    return xnfv::serve::fnv1a({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, h);
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
        if (name == s.name && s.end > s.start) out.push_back(us_between(s.start, s.end));
    return out;
}

std::vector<double> Tracer::root_self_us() const {
    std::unordered_map<std::uint32_t, double> covered;
    for (const Span& s : spans_) {
        if (s.parent == kNoParent) continue;
        const Span& p = spans_[s.parent];
        const auto a = std::max(s.start, p.start);
        const auto b = std::min(s.end, p.end);
        if (b > a) covered[s.parent] += us_between(a, b);
    }
    std::vector<double> out;
    for (std::uint32_t id = 0; id < spans_.size(); ++id) {
        const Span& s = spans_[id];
        if (s.parent != kNoParent || s.end <= s.start) continue;
        const auto it = covered.find(id);
        if (it == covered.end()) continue;  // a direct call, not a request
        out.push_back(us_between(s.start, s.end) - it->second);
    }
    return out;
}

void Tracer::write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    const auto t0 = spans_.empty() ? Clock::time_point{} : spans_.front().start;
    const auto ns = [t0](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
    };
    out << "[\n";
    for (std::size_t id = 0; id < spans_.size(); ++id) {
        const Span& s = spans_[id];
        out << "{\"id\":" << id << ",\"name\":\"" << s.name << "\",\"parent\":";
        if (s.parent == kNoParent)
            out << "null";
        else
            out << s.parent;
        out << ",\"request\":" << s.request << ",\"start_ns\":" << ns(s.start)
            << ",\"end_ns\":" << ns(s.end) << "}" << (id + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

}  // namespace perfbench
