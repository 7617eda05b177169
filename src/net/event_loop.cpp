#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdint>

namespace xnfv::net {

EventLoop::EventLoop() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (ok()) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = wake_fd_;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
    }
}

EventLoop::~EventLoop() {
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool EventLoop::add(int fd, std::uint32_t events, Callback callback) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
    callbacks_[fd] = std::move(callback);
    return true;
}

bool EventLoop::modify(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::remove(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    callbacks_.erase(fd);
}

void EventLoop::stop() noexcept {
    stop_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::notify() noexcept {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::run() {
    using Clock = std::chrono::steady_clock;
    auto last_tick = Clock::now();
    std::array<epoll_event, 64> events;
    while (!stop_.load(std::memory_order_acquire)) {
        const bool ticking = on_tick_ && tick_.count() > 0;
        const int n = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   ticking ? static_cast<int>(tick_.count()) : -1);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;  // unrecoverable epoll failure: let the owner clean up
        }
        bool woken = false;
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == wake_fd_) {
                std::uint64_t drained = 0;
                [[maybe_unused]] const auto r =
                    ::read(wake_fd_, &drained, sizeof(drained));
                woken = true;
                continue;
            }
            // Look the callback up per event: an earlier callback in this
            // batch may have removed this fd (connection close).
            const auto it = callbacks_.find(fd);
            if (it == callbacks_.end()) continue;
            it->second(events[i].events);
        }
        if (woken && on_wake_) on_wake_();
        if (stop_.load(std::memory_order_acquire)) break;
        if (on_tick_ && tick_.count() > 0) {
            const auto now = Clock::now();
            if (now - last_tick >= tick_) {
                last_tick = now;
                on_tick_();
            }
        }
    }
}

}  // namespace xnfv::net
