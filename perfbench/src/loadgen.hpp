// One load-generator thread: an open loop at a seeded Poisson rate over at
// most kConnections connections.  The thread never sleeps: it polls its
// sockets between sends, so a send is late only when the host deschedules
// it, and that lateness is reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workload.hpp"

namespace xnfv::serve {
class ExplanationService;
}

namespace perfbench {

/// Where request lines go: the server over TCP, or an in-process service.
class Transport {
public:
    using OnResponse = std::function<void(std::size_t index, std::string_view line)>;
    virtual ~Transport() = default;
    /// Sends request `index` on connection `conn`.
    virtual void send(std::size_t conn, std::size_t index, const std::string& line) = 0;
    /// Delivers every response that arrived since the last call.
    virtual void poll(const OnResponse& on_response) = 0;
    /// Starts the measured window of the service's own counters.
    virtual void window_begin() = 0;
};

/// Loopback connections to the server, answered in order per connection.
class TcpTransport final : public Transport {
public:
    TcpTransport(std::uint16_t port, std::size_t connections);
    ~TcpTransport() override;
    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    void send(std::size_t conn, std::size_t index, const std::string& line) override;
    void poll(const OnResponse& on_response) override;
    /// Sends {"op":"stats"} then {"op":"stats_reset"}; the first answer is
    /// kept as stats_before().
    void window_begin() override;

    /// Sends one admin line on connection 0 and waits for its answer.
    [[nodiscard]] std::string admin(const std::string& line);
    [[nodiscard]] const std::string& stats_before() const noexcept { return stats_before_; }

private:
    static constexpr std::size_t kAdmin = SIZE_MAX;
    struct Conn {
        int fd = -1;
        std::string buffer;
        std::deque<std::size_t> pending;  ///< request indices, kAdmin for admin lines
    };
    void write_all(Conn& c, std::string_view bytes);

    std::vector<Conn> conns_;
    std::deque<std::string> admin_answers_;
    std::string stats_before_;
};

/// ExplanationService::submit_async with the server's parsing and rendering
/// of a line, so the same lines take the in-process path.
class ServiceTransport final : public Transport {
public:
    explicit ServiceTransport(xnfv::serve::ExplanationService& service) : service_(service) {}
    void send(std::size_t conn, std::size_t index, const std::string& line) override;
    void poll(const OnResponse& on_response) override;
    void window_begin() override;

private:
    xnfv::serve::ExplanationService& service_;
    std::mutex mutex_;
    std::vector<std::pair<std::size_t, std::string>> done_;  ///< guarded by mutex_
    std::vector<std::pair<std::size_t, std::string>> taken_;
};

struct LoadPlan {
    double warm_s = 0.0;    ///< load at the workload's own rate, not measured
    double window_s = 0.0;  ///< the measured window
    std::size_t first_index = 0;  ///< request stream index of the first send
};

/// A request's life, by request index.
struct Exchange {
    Clock::time_point due{}, sent{}, done{};
    bool answered = false;
};

struct LoadResult {
    std::vector<Exchange> exchanges;  ///< index - first_index
    std::size_t first_index = 0;
    Clock::time_point window_begin{}, window_end{};
    bool drained = true;  ///< every request sent was answered
    /// Requests due inside the window.
    [[nodiscard]] bool measured(const Exchange& e) const {
        return e.due >= window_begin && e.due < window_end;
    }
};

/// What one run's window adds up to, once each answer is judged.
struct Tally {
    std::size_t sent = 0;         ///< every request of the run, warm-up included
    std::size_t sent_failed = 0;  ///< of those, unanswered or judged not ok
    std::size_t attempted = 0;  ///< requests due in the window
    std::size_t failed = 0;     ///< of those, unanswered or judged not ok
    std::size_t completed = 0;  ///< answers that arrived inside the window
    std::size_t ok_completed = 0;
    std::vector<double> latency_us;  ///< scheduled send to answer, of those answered ok
    std::vector<double> late_us;     ///< actual minus scheduled send
};

/// `ok(index)` judges the answer to request `index`.
[[nodiscard]] Tally tally(const LoadResult& res,
                          const std::function<bool(std::size_t index)>& ok);

struct LoadHooks {
    std::function<void(std::size_t index, const Exchange& sent)> after_send;
    std::function<void(std::size_t index, std::string_view line, Clock::time_point at)>
        on_response;
    std::function<void()> at_window_begin, at_window_end;
};

/// Drives the workload through `transport` for warm_s + window_s seconds,
/// then waits up to 20 s for the answers still outstanding.
[[nodiscard]] LoadResult run_load(Transport& transport, RequestStream& stream,
                                  const WorkloadSpec& spec, const LoadPlan& plan,
                                  std::uint64_t seed, const LoadHooks& hooks);

/// Sends every request of `requests` (pipelined, depth 16 per connection)
/// and waits for all answers; returns how many were answered ok.
std::size_t send_all(Transport& transport, const std::vector<Request>& requests);

}  // namespace perfbench
