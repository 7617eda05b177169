#include "net/connection.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <utility>

namespace xnfv::net {

Connection::Connection(std::uint64_t id, int fd, serve::Session::Context context)
    : session(std::move(context)),
      last_activity(std::chrono::steady_clock::now()),
      id_(id),
      fd_(fd) {}

Connection::~Connection() { close(); }

void Connection::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

IoStatus Connection::read_some(std::vector<serve::Frame>& frames) {
    std::array<char, 16 * 1024> chunk;
    for (;;) {
        // Chaos seams: withheld rounds, torn frames, and synthetic EINTR
        // reshape *when* bytes arrive, never *which* bytes — responses stay
        // byte-identical to a fault-free run.  stalled_read relies on
        // level-triggered epoll to re-deliver the readable event.
        if (net_fault_fires(chaos, NetFaultPoint::stalled_read, fault_counters))
            return IoStatus::ok;
        std::size_t want = chunk.size();
        if (net_fault_fires(chaos, NetFaultPoint::torn_read, fault_counters))
            want = 3;
        ssize_t n;
        if (net_fault_fires(chaos, NetFaultPoint::eintr_storm, fault_counters)) {
            errno = EINTR;
            n = -1;
        } else {
            n = ::recv(fd_, chunk.data(), want, 0);
        }
        if (n > 0) {
            bytes_in += static_cast<std::uint64_t>(n);
            last_activity = std::chrono::steady_clock::now();
            decoder.feed(chunk.data(), static_cast<std::size_t>(n), frames);
            if (static_cast<std::size_t>(n) < want) return IoStatus::ok;
            continue;
        }
        if (n == 0) return IoStatus::peer_closed;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::would_block;
        if (errno == EINTR) continue;
        return IoStatus::error;
    }
}

void Connection::queue_output(const std::string& line) {
    outbuf_.append(line);
    outbuf_.push_back('\n');
}

void Connection::pump() {
    session.pump(outbuf_);
    if (session.ended()) close_after_flush = true;
}

IoStatus Connection::flush() {
    while (out_off_ < outbuf_.size()) {
        std::size_t len = outbuf_.size() - out_off_;
        bool short_send = false;
        // partial_write moves one byte, then reports a full kernel buffer so
        // the server exercises its EPOLLOUT backpressure path.
        if (net_fault_fires(chaos, NetFaultPoint::partial_write, fault_counters)) {
            len = 1;
            short_send = true;
        }
        ssize_t n;
        if (net_fault_fires(chaos, NetFaultPoint::eintr_storm, fault_counters)) {
            errno = EINTR;
            n = -1;
        } else {
            n = ::send(fd_, outbuf_.data() + out_off_, len, MSG_NOSIGNAL);
        }
        if (n > 0) {
            out_off_ += static_cast<std::size_t>(n);
            bytes_out += static_cast<std::uint64_t>(n);
            last_activity = std::chrono::steady_clock::now();
            if (short_send) return IoStatus::would_block;
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::would_block;
        if (errno == EINTR) continue;
        return errno == EPIPE || errno == ECONNRESET ? IoStatus::peer_closed
                                                     : IoStatus::error;
    }
    outbuf_.clear();
    out_off_ = 0;
    return IoStatus::ok;
}

}  // namespace xnfv::net
