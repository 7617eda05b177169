// Non-blocking epoll event loop — the reactor under the explanation server.
//
// One thread owns the loop and everything registered on it; that is the
// subsystem's whole concurrency story on the network side (the compute side
// stays on the PR-1 pool behind ExplanationService).  The only two
// cross-thread entry points are notify() and stop(), both async-signal-safe
// (an atomic store plus one eventfd write), so they can be called from the
// service's dispatcher thread *and* from a SIGTERM handler.
//
// Level-triggered: callbacks read/write until EAGAIN but never need to
// drain-or-starve the way edge-triggered handlers must.  An optional coarse
// tick callback (idle-timeout scans, drain progress) fires at least every
// tick interval regardless of socket activity; with no tick the loop sleeps
// until a registered fd is ready or notify() is called.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>

namespace xnfv::net {

class EventLoop {
public:
    /// Receives the ready epoll event mask (EPOLLIN | EPOLLOUT | ...).
    using Callback = std::function<void(std::uint32_t events)>;

    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /// False when epoll/eventfd creation failed at construction (the server
    /// surfaces this from start()).
    [[nodiscard]] bool ok() const noexcept { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

    /// Registers `fd` for `events`; the callback fires from run() on the
    /// loop thread.  Loop-thread only.
    bool add(int fd, std::uint32_t events, Callback callback);
    /// Changes the interest mask of a registered fd.  Loop-thread only.
    bool modify(int fd, std::uint32_t events);
    /// Deregisters; pending events for the fd in the current dispatch batch
    /// are skipped.  Does not close the fd.  Loop-thread only.
    void remove(int fd);

    /// Dispatches events until stop().  Runs on the calling thread.
    void run();

    /// Requests run() to return; safe from any thread or signal handler.
    void stop() noexcept;

    /// Wakes the loop and has it invoke the wake handler; safe from any
    /// thread or signal handler.  Coalesces: N notifies may yield one call.
    void notify() noexcept;

    /// Invoked on the loop thread after notify() (completion handoff,
    /// drain-request processing).
    void set_wake_handler(std::function<void()> handler) {
        on_wake_ = std::move(handler);
    }
    /// Invoked on the loop thread at least every `interval` (and after any
    /// dispatch batch that took longer); a zero interval turns the tick off.
    /// May be called from a callback on the loop thread to change the
    /// interval; the next wait uses it.
    void set_tick(std::chrono::milliseconds interval, std::function<void()> handler) {
        tick_ = interval;
        on_tick_ = std::move(handler);
    }

private:
    int epoll_fd_ = -1;
    int wake_fd_ = -1;  ///< eventfd: notify()/stop() wakeups
    std::atomic<bool> stop_{false};
    std::function<void()> on_wake_;
    std::function<void()> on_tick_;
    std::chrono::milliseconds tick_{0};  ///< 0 = no tick
    std::unordered_map<int, Callback> callbacks_;
};

}  // namespace xnfv::net
