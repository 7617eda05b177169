// Serving benchmark harness.  Starts the shipped server (`xnfv_cli serve
// --listen 0 --shards 1 --threads 2`) as a child process, drives one seeded
// workload from a single generator thread, checks every answer, and prints
// the end-to-end metrics as the last line of standard output.  With
// --trace 1 it runs the separate traced variant instead (traced.cpp) and
// prints the per-layer metrics.
//
//   perfbench --workload hot_repeat --seed 1 --seconds 30 --trace 0
//             --cli .bench_build/tools/xnfv_cli --workdir .bench_build/work
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "serve/explanation_cache.hpp"

namespace perfbench {

namespace serve = xnfv::serve;

KeepAwake::KeepAwake() {
    for (unsigned cpu = 1; cpu < std::thread::hardware_concurrency(); ++cpu)
        threads_.emplace_back([this, cpu] {
            const sched_param idle{};
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            pthread_setaffinity_np(pthread_self(), sizeof set, &set);
            while (!stop_.load(std::memory_order_relaxed)) {
            }
        });
}

KeepAwake::~KeepAwake() { stop_.store(true, std::memory_order_relaxed); }

bool Live::stop() {
    tcp.reset();
    const bool clean = server && server->stop();
    server.reset();
    return clean;
}

double launch(Live& live, const Args& args, const WorkloadSpec& spec, const Inputs& inputs,
              const std::vector<Request>& warm) {
    live.stop();
    const std::vector<std::string> argv = {
        args.cli, "serve", "--models", inputs.manifest, "--data", inputs.data_csv,
        "--listen", "0", "--shards", "1", "--threads", std::to_string(kServerThreads),
        "--method", "auto", "--cache", std::to_string(spec.cache),
        "--interaction-points", std::to_string(kInteractionPoints)};
    const auto t0 = Clock::now();
    live.server = std::make_unique<ServerProcess>(argv);
    live.tcp = std::make_unique<TcpTransport>(live.server->port(), kConnections);
    if (send_all(*live.tcp, warm) != warm.size())
        throw std::runtime_error("a set-up request was not answered ok");
    return us_between(t0, Clock::now()) / 1e6;
}

void Checker::on_response(std::size_t index, std::string_view line) {
    const Request& r = stream_.at(index);
    if (hashes_.size() <= index) hashes_.resize(index + 1, 0);
    const std::string prefix = "{\"id\":" + std::to_string(r.id) + ",\"ok\":true,";
    if (line.starts_with(prefix)) {
        hashes_[index] = answer_hash(line);
    } else if (++not_ok_ <= 3) {
        std::fprintf(stderr, "answer %zu is not ok:\n  %.*s\n", index,
                     static_cast<int>(line.size()), line.data());
    }
    if (line.find("\"interactions\":[") != std::string_view::npos) ++interactions_;
}

std::size_t Checker::verify(Oracle& oracle, const WorkloadSpec& spec) {
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
        if (hashes_[i] == 0) continue;  // unanswered or not ok: failed already
        ++checked_;
        if (hashes_[i] == oracle.expected_hash(stream_.at(i), spec)) continue;
        mismatches_.push_back(i);
        if (mismatches_.size() <= 3)
            std::fprintf(stderr, "answer %zu differs from the one-shot path, which renders\n  %s\n",
                         i, oracle.expected(stream_.at(i), spec).c_str());
    }
    return mismatches_.size();
}

std::uint64_t Checker::requests_hash() {
    std::uint64_t h = fnv1a("");
    for (std::size_t i = 0; i < kHashed; ++i) h = fnv1a(stream_.at(i).line, h);
    return h;
}

std::uint64_t Checker::responses_hash() const {
    std::uint64_t h = fnv1a("");
    for (std::size_t i = 0; i < std::min(kHashed, hashes_.size()); ++i)
        h = serve::fnv1a_u64(hashes_[i], h);
    return h;
}

double stat(const serve::JsonValue& stats, const char* key) {
    return stats.get_number(key, 0.0);
}

/// Requests of one micro-batch (serve --batch default).
constexpr double kStraddle = 16;

std::string shape_violation(const WorkloadSpec& spec, const serve::JsonValue& stats,
                            const serve::JsonValue& before, const Checker& checker) {
    const double hits = stat(stats, "cache_hits"), misses = stat(stats, "cache_misses");
    const double fast = stat(stats, "fast_path_hits");
    const double evictions = stat(stats, "cache_evictions") - stat(before, "cache_evictions");
    if (spec.name == "hot_repeat" && !(hits / (hits + misses) >= 0.99))
        return "hot_repeat hit ratio below 0.99";
    if (spec.name == "fleet_churn") {
        // A batch that straddles stats_reset can count its misses on one side
        // of the reset and its fast-path completions on the other.
        if (!(misses > 0 && std::abs(fast - misses) <= kStraddle))
            return "fleet_churn fast-path ratio is not 1";
        if (!(evictions > 0)) return "fleet_churn evicted nothing";
        if (checker.with_interactions() == 0) return "fleet_churn served no interactions";
    }
    return "";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics)
        std::printf("%-38s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.samples);
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(value, sizeof value, "%.17g", v);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    std::printf("%s}}\n", json.c_str());
    std::fflush(stdout);
}

namespace {

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload") a.workload = value;
        else if (key == "--seed") a.seed = std::stoull(value);
        else if (key == "--seconds") a.seconds = std::stod(value);
        else if (key == "--trace") a.trace = value != "0";
        else if (key == "--cli") a.cli = value;
        else if (key == "--workdir") a.workdir = value;
        else throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload.empty() || a.cli.empty() || a.workdir.empty() || a.seconds <= 0)
        throw std::invalid_argument(
            "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
            "--cli XNFV_CLI --workdir DIR");
    return a;
}

int run_measured(const Args& args) {
    const WorkloadSpec& spec = workload_spec(args.workload);
    const KeepAwake awake;
    const Inputs inputs = make_inputs(spec, args.workdir, false);
    TelemetryPool pool(args.seed);
    RequestStream stream(spec, args.seed, pool);
    Oracle oracle(inputs);

    // Set-up, repeated: the last launch stays up and is measured.
    Live live;
    std::vector<double> setups;
    for (std::size_t k = 0; k < kSetupLaunches; ++k)
        setups.push_back(launch(live, args, spec, inputs, stream.warm_set()));

    Checker checker(stream);
    ProcSample p0, p1;
    LoadHooks hooks;
    hooks.on_response = [&](std::size_t i, std::string_view line, Clock::time_point) {
        checker.on_response(i, line);
    };
    hooks.at_window_begin = [&] { p0 = live.server->sample(); };
    hooks.at_window_end = [&] { p1 = live.server->sample(); };
    const LoadResult res = run_load(*live.tcp, stream, spec, {kWarmSeconds, args.seconds, 0},
                                    args.seed, hooks);
    const auto stats = serve::parse_json(live.tcp->admin("{\"op\":\"stats\"}"));
    const auto before = serve::parse_json(live.tcp->stats_before());
    const double rss = live.server->sample().hwm_mib;
    const bool drained = live.stop();
    const std::size_t mismatches = checker.verify(oracle, spec);

    Tally t = tally(res, [&](std::size_t i) { return checker.ok(i); });
    const double window = us_between(res.window_begin, res.window_end) / 1e6;
    const double cpu_us = (p1.user_s + p1.sys_s - p0.user_s - p0.sys_s) * 1e6;
    const std::string shape = shape_violation(spec, stats, before, checker);

    std::printf("# workload %s seed %" PRIu64 " window %.1f s\n", spec.name.c_str(), args.seed,
                window);
    std::printf("# requests_hash %016" PRIx64 " responses_hash %016" PRIx64
                " (first %zu, cache_hit normalised)\n",
                checker.requests_hash(), checker.responses_hash(), Checker::kHashed);
    std::printf("# requests sent %zu (warm-up included), failed %zu; one-shot byte checks %zu, "
                "mismatches %zu; with interaction pairs %zu; shape %s; drained %s\n",
                t.sent, t.sent_failed, checker.checked(), mismatches, checker.with_interactions(),
                shape.empty() ? "ok" : shape.c_str(), drained ? "yes" : "no");
    const std::size_t n = t.latency_us.size();
    const std::vector<Metric> metrics = {
        {"setup_s", quantile(setups, 0.5), "s", setups.size()},
        {"throughput_rps", static_cast<double>(t.ok_completed) / window, "req/s",
         t.ok_completed},
        {"latency_p50_us", quantile(t.latency_us, 0.5), "us", n},
        {"ok_ratio",
         t.attempted ? static_cast<double>(t.attempted - t.failed) / t.attempted : 0.0,
         "ratio", t.attempted},
        {"cpu_us_per_req", t.completed ? cpu_us / static_cast<double>(t.completed) : 0.0,
         "us", t.completed},
        {"rss_mb", rss, "MiB", 1},
    };
    // The window p99 is printed, not bounded: host stalls swing it (README.md).
    std::printf("# latency_p99_us %.1f us n=%zu\n", quantile(t.latency_us, 0.99), n);
    const bool correct = t.sent_failed == 0 && shape.empty() && drained && res.drained &&
                         t.attempted > 0;
    print_result(correct, t.sent, t.sent_failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        const auto args = perfbench::parse_args(argc, argv);
        return args.trace ? perfbench::run_traced(args) : perfbench::run_measured(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
