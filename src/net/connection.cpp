#include "net/connection.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>

namespace xnfv::net {

Connection::Connection(std::uint64_t id, int fd, std::size_t max_line_bytes)
    : decoder(max_line_bytes),
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

std::uint64_t Connection::push_slot(Slot::Kind kind) {
    slots_.push_back(Slot{kind, false, {}, 0});
    return base_seq_ + slots_.size() - 1;
}

void Connection::fulfill(std::uint64_t seq, std::string line) {
    if (seq < base_seq_) return;  // slot already popped (forced close path)
    const auto index = seq - base_seq_;
    if (index >= slots_.size()) return;
    Slot& slot = slots_[index];
    slot.ready = true;
    slot.line = std::move(line);
    if (slot.rid == 0) return;
    // This slot is the original for its rid: record the completed response
    // and answer every duplicate that attached while it was pending.
    // Duplicate slots carry rid 0, so the recursion is one level deep.
    const auto it = dedup_.find(slot.rid);
    if (it == dedup_.end() || it->second.done) return;
    it->second.done = true;
    it->second.line = slot.line;
    const std::vector<std::uint64_t> waiting = std::move(it->second.waiting);
    for (const auto dup_seq : waiting) fulfill(dup_seq, it->second.line);
}

Connection::DedupVerdict Connection::dedup_admit(std::uint64_t rid, std::uint64_t seq) {
    if (rid == 0 || dedup_window == 0) return DedupVerdict::fresh;
    const auto [it, inserted] = dedup_.try_emplace(rid);
    if (inserted) {
        dedup_order_.push_back(rid);
        // Evict the oldest *completed* records over capacity; a pending
        // original is never dropped (its duplicates must still attach).
        while (dedup_order_.size() > dedup_window) {
            const auto vit = dedup_.find(dedup_order_.front());
            if (vit != dedup_.end()) {
                if (!vit->second.done) break;
                dedup_.erase(vit);
            }
            dedup_order_.pop_front();
        }
        if (seq >= base_seq_ && seq - base_seq_ < slots_.size())
            slots_[seq - base_seq_].rid = rid;
        return DedupVerdict::fresh;
    }
    if (it->second.done) {
        fulfill(seq, it->second.line);
        return DedupVerdict::replayed;
    }
    it->second.waiting.push_back(seq);
    return DedupVerdict::attached;
}

void Connection::pop_front_slot() {
    slots_.pop_front();
    ++base_seq_;
}

}  // namespace xnfv::net
