// Orchestration shared by the measured run (main.cpp) and the traced run
// (traced.cpp): arguments, the launched server, and the answer checker.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "serve/ndjson.hpp"
#include "server.hpp"
#include "workload.hpp"

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string cli;      ///< xnfv_cli to serve with
    std::string workdir;  ///< models, CSVs and span dumps go here
};

/// One spinning thread at SCHED_IDLE on each vCPU but the generator's (vCPU
/// 0, where the generator itself spins), for the whole run.  A thread that
/// wakes preempts them at once, so they take no time from the server; they
/// only keep the guest's vCPUs from halting, which on a virtual machine
/// turns every wake-up of an idle vCPU into a hypervisor round trip whose
/// delay follows the host's load, not the program's.  Joined on destruction.
class KeepAwake {
public:
    KeepAwake();
    ~KeepAwake();
    KeepAwake(const KeepAwake&) = delete;
    KeepAwake& operator=(const KeepAwake&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::vector<std::jthread> threads_;  ///< declared after the flag they read
};

/// Server launches per measured run; setup_s is the median of their times.
constexpr std::size_t kSetupLaunches = 5;

/// Load at the workload's own rate before any window is measured.
constexpr double kWarmSeconds = 5.0;

/// A launched, warm server and the generator's connections to it.
struct Live {
    std::unique_ptr<ServerProcess> server;
    std::unique_ptr<TcpTransport> tcp;

    /// Closes the connections, then drains and reaps the server; true on a
    /// clean drain.
    bool stop();
};

/// Starts `xnfv_cli serve` for the workload, connects, and sends the warm
/// set.  Returns the seconds from launch until the server is warm.
double launch(Live& live, const Args& args, const WorkloadSpec& spec, const Inputs& inputs,
              const std::vector<Request>& warm);

/// Checks every answer, warm-up included: an ok line carrying the request's
/// id, whose bytes past the id equal the one-shot oracle's once cache_hit is
/// normalised (compared by answer_hash).  Also hashes the first kHashed
/// requests and answers, so runs with one seed can be compared byte for byte.
class Checker {
public:
    static constexpr std::size_t kHashed = 2000;

    explicit Checker(RequestStream& stream) : stream_(stream) {}

    void on_response(std::size_t index, std::string_view line);
    [[nodiscard]] bool ok(std::size_t index) const {
        return index < hashes_.size() && hashes_[index] != 0 &&
               !std::binary_search(mismatches_.begin(), mismatches_.end(), index);
    }
    /// Compares every ok answer with the oracle; returns the mismatches.
    std::size_t verify(Oracle& oracle, const WorkloadSpec& spec);
    /// Answers compared byte for byte by verify().
    [[nodiscard]] std::size_t checked() const noexcept { return checked_; }
    [[nodiscard]] std::size_t with_interactions() const noexcept { return interactions_; }
    [[nodiscard]] std::uint64_t requests_hash();
    [[nodiscard]] std::uint64_t responses_hash() const;

private:
    RequestStream& stream_;
    std::vector<std::uint64_t> hashes_;  ///< answer_hash by request index; 0 = not ok
    std::vector<std::size_t> mismatches_;  ///< ascending
    std::size_t not_ok_ = 0, checked_ = 0, interactions_ = 0;
};

/// A number field of a parsed stats answer (0 when absent).
[[nodiscard]] double stat(const xnfv::serve::JsonValue& stats, const char* key);

/// Why a window's server stats do not have the workload's shape ("" = they
/// do): hot_repeat hits its cache, fleet_churn computes only on fast paths,
/// evicts and serves interactions.
[[nodiscard]] std::string shape_violation(const WorkloadSpec& spec,
                                          const xnfv::serve::JsonValue& stats,
                                          const xnfv::serve::JsonValue& before,
                                          const Checker& checker);

/// Prints `metrics` one per line with sample counts, then the result line.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics);

/// Runs the traced variant of the workload and prints its per-layer
/// metrics; returns the process exit code.
int run_traced(const Args& args);

}  // namespace perfbench
