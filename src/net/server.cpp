#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "net/sharded_server.hpp"

namespace xnfv::net {

namespace {

/// How long a drain lingers after half-closing each connection, waiting for
/// the peer to read its final responses and close.  Closing outright would
/// RST past unread request bytes and could destroy responses still queued in
/// the peer's kernel buffer.  Bounds SIGTERM exit time.
constexpr std::chrono::milliseconds kDrainLinger{5000};

/// How often a draining loop checks for settled connections and the linger
/// deadline.
constexpr std::chrono::milliseconds kDrainPoll{20};

}  // namespace

ExplanationServer::ExplanationServer(ShardedServer& fleet,
                                     serve::ExplanationService& service)
    : fleet_(fleet),
      config_(fleet.config_),
      service_(service),
      // In-flight completions are bounded by what the service has admitted,
      // so a ring this size makes the overflow spill path cold.
      channel_(std::make_shared<CompletionChannel>(
          service.config().queue_depth + service.config().max_batch + 64)),
      metrics_(service.metrics()) {
    channel_->loop = &loop_;
}

ExplanationServer::~ExplanationServer() {
    // Detach the completion channel: callbacks still in flight inside the
    // service land in the (shared) ring but no longer touch the loop.
    {
        const std::lock_guard<std::mutex> lock(channel_->notify_mutex);
        channel_->loop = nullptr;
    }
    conns_.clear();
    listener_.close();
}

bool ExplanationServer::start(std::uint16_t port, std::string* error) {
    if (!loop_.ok()) {
        if (error) *error = "event loop initialization failed (epoll/eventfd)";
        return false;
    }
    return listener_.listen(config_.host, port, error, fleet_.shards() > 1);
}

void ExplanationServer::run() {
    loop_.set_wake_handler([this] { on_wake(); });
    // No tick unless idle connections need scanning: an idle shard sleeps.
    if (config_.idle_timeout.count() > 0)
        loop_.set_tick(std::max(config_.idle_timeout / 10, std::chrono::milliseconds(1)),
                       [this] { on_tick(); });
    loop_.add(listener_.fd(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
    loop_.run();
    // Whatever survives a stop (drain closes everything it waited for) is
    // torn down here so run() leaves no sockets behind.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (const auto id : ids) {
        const auto it = conns_.find(id);
        if (it != conns_.end()) close_conn(*it->second);
    }
    if (listener_.listening()) {
        loop_.remove(listener_.fd());
        listener_.close();
    }
}

void ExplanationServer::request_drain() noexcept {
    drain_requested_.store(true, std::memory_order_release);
    loop_.notify();
}

void ExplanationServer::on_accept() {
    for (;;) {
        const int fd = listener_.accept();
        if (fd < 0) return;
        if (!fleet_.budget_.try_acquire()) {
            const auto line =
                serve::render_error(0, serve::ServeError::backpressure,
                                  "connection limit reached") +
                "\n";
            [[maybe_unused]] const auto n =
                ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
            ::close(fd);
            metrics_.inc(&serve::ServiceStats::connections_rejected);
            continue;
        }
        if (config_.sndbuf > 0) {
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.sndbuf,
                         sizeof(config_.sndbuf));
        }
        const auto id = next_conn_id_++;
        auto conn = std::make_unique<Connection>(id, fd, session_context(id));
        conn->interest = EPOLLIN;
        conn->chaos = config_.chaos.get();
        conns_.emplace(id, std::move(conn));
        loop_.add(fd, EPOLLIN,
                  [this, id](std::uint32_t events) { on_conn_event(id, events); });
        metrics_.inc(&serve::ServiceStats::connections_accepted);
    }
}

void ExplanationServer::on_conn_event(std::uint64_t conn_id, std::uint32_t events) {
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    Connection& conn = *it->second;
    if ((events & EPOLLERR) != 0) {
        close_conn(conn);
        return;
    }
    // Chaos: abort this connection with an RST (SO_LINGER 0 turns the close
    // into a reset) — the client-retry path's hardest failure mode.
    if (!conn.lingering &&
        net_fault_fires(conn.chaos, NetFaultPoint::rst_close, conn.fault_counters)) {
        const struct linger lg = {1, 0};
        ::setsockopt(conn.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        close_conn(conn);
        return;
    }
    if (conn.lingering) {
        // Drain half-close already sent the peer its full response stream
        // plus FIN; whatever it still writes is discarded until its EOF.
        char buf[4096];
        for (;;) {
            const auto n = ::recv(conn.fd(), buf, sizeof(buf), 0);
            if (n > 0) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
                (events & EPOLLHUP) == 0)
                return;
            close_conn(conn);
            return;
        }
    }
    if ((events & EPOLLIN) != 0 && !conn.peer_eof) {
        const auto before = conn.bytes_in;
        frames_.clear();
        const auto status = conn.read_some(frames_);
        metrics_.inc(&serve::ServiceStats::net_bytes_in, conn.bytes_in - before);
        for (const auto& frame : frames_) conn.session.handle(frame);
        conn.pump();
        if (status == IoStatus::error) {
            close_conn(conn);
            return;
        }
        if (status == IoStatus::peer_closed) conn.peer_eof = true;
    } else if ((events & EPOLLHUP) != 0 && conn.output_empty() &&
               conn.session.unanswered() == 0) {
        close_conn(conn);
        return;
    }
    flush_and_update(conn);  // may close; conn is dead afterwards
}

void ExplanationServer::on_wake() {
    drain_completions();
    if (drain_requested_.load(std::memory_order_acquire) && !draining_)
        begin_drain();
    check_drain_done();
}

void ExplanationServer::on_tick() {
    if (config_.idle_timeout.count() > 0 && !draining_) {
        const auto now = std::chrono::steady_clock::now();
        std::vector<std::uint64_t> idle;
        for (const auto& [id, conn] : conns_) {
            if (conn->session.unanswered() == 0 && conn->output_empty() &&
                now - conn->last_activity >= config_.idle_timeout)
                idle.push_back(id);
        }
        for (const auto id : idle) {
            const auto it = conns_.find(id);
            if (it == conns_.end()) continue;
            metrics_.inc(&serve::ServiceStats::connections_closed_idle);
            close_conn(*it->second);
        }
    }
    check_drain_done();
}

serve::Session::Context ExplanationServer::session_context(std::uint64_t conn_id) {
    return {
        .service = service_,
        .rows = fleet_.row_lookup_,
        // Any connection reports the whole fleet, and its admin ops reach
        // every shard's service.
        .stats = [&fleet = fleet_] { return fleet.stats(); },
        .admin = [&fleet = fleet_](const serve::JsonValue& request) {
            return fleet.admin(request);
        },
        // Dispatcher thread: render (pure) and marshal onto the loop over the
        // lock-free ring; the eventfd write is coalesced per drain.
        .completion = [channel = channel_,
                       conn_id](std::uint64_t seq) -> serve::Session::Completion {
            return [channel, conn_id, seq](serve::ExplainResponse r) {
                channel->push({conn_id, seq, serve::render_response(r)});
            };
        },
        .dedup_window = config_.dedup_window,
    };
}

void ExplanationServer::update_interest(Connection& conn) {
    std::uint32_t mask = 0;
    if ((!draining_ && !conn.peer_eof && !conn.session.quit_read()) || conn.lingering)
        mask |= EPOLLIN;
    if (!conn.output_empty()) mask |= EPOLLOUT;
    if (mask != conn.interest) {
        loop_.modify(conn.fd(), mask);
        conn.interest = mask;
    }
}

void ExplanationServer::flush_and_update(Connection& conn) {
    auto before = conn.bytes_out;
    auto status = conn.flush();
    metrics_.inc(&serve::ServiceStats::net_bytes_out, conn.bytes_out - before);
    if (status == IoStatus::error || status == IoStatus::peer_closed) {
        close_conn(conn);
        return;
    }
    if (!conn.close_after_flush && conn.output_bytes() > config_.max_output_bytes) {
        // The reader is too far behind to be healthy.  One structured error,
        // one last flush attempt, then the connection is gone.
        conn.queue_output(serve::render_error(
            0, serve::ServeError::backpressure,
            "output buffer exceeded " + std::to_string(config_.max_output_bytes) +
                " bytes"));
        before = conn.bytes_out;
        status = conn.flush();
        metrics_.inc(&serve::ServiceStats::net_bytes_out, conn.bytes_out - before);
        metrics_.inc(&serve::ServiceStats::connections_closed_backpressure);
        close_conn(conn);
        return;
    }
    if (conn.output_empty() &&
        (conn.close_after_flush || (conn.peer_eof && conn.session.unanswered() == 0))) {
        close_conn(conn);
        return;
    }
    update_interest(conn);
}

void ExplanationServer::close_conn(Connection& conn) {
    metrics_.conn_requests.record(conn.session.answered());
    loop_.remove(conn.fd());
    conn.close();
    conns_.erase(conn.id());  // destroys conn; the reference is dead here
    fleet_.budget_.release();
    if (draining_ && conns_.empty()) loop_.stop();
}

void ExplanationServer::begin_drain() {
    draining_ = true;
    drain_deadline_ = std::chrono::steady_clock::now() + kDrainLinger;
    loop_.set_tick(kDrainPoll, [this] { on_tick(); });
    if (listener_.listening()) {
        loop_.remove(listener_.fd());
        listener_.close();
    }
    for (const auto& [id, conn] : conns_) update_interest(*conn);
}

void ExplanationServer::check_drain_done() {
    if (!draining_) return;
    const bool linger_expired =
        std::chrono::steady_clock::now() >= drain_deadline_;
    std::vector<std::uint64_t> to_close;
    for (const auto& [id, conn] : conns_) {
        if (conn->session.unanswered() != 0 || !conn->output_empty()) continue;
        if (!conn->lingering) {
            if (conn->peer_eof) {
                to_close.push_back(id);
                continue;
            }
            // Half-close: FIN is ordered after every flushed response, so
            // the peer reads its complete stream and then a clean EOF.
            // Closing outright here would RST past unread request bytes,
            // which can destroy responses still queued in the peer's
            // kernel buffer.
            ::shutdown(conn->fd(), SHUT_WR);
            conn->lingering = true;
            update_interest(*conn);
        }
        if (linger_expired) to_close.push_back(id);
    }
    for (const auto id : to_close) {
        const auto it = conns_.find(id);
        if (it != conns_.end()) close_conn(*it->second);
    }
    if (conns_.empty()) loop_.stop();
}

void ExplanationServer::drain_completions() {
    // Rearm BEFORE draining: a completion pushed mid-drain raises a fresh
    // wake instead of vanishing into the one we are consuming.
    channel_->wake.rearm();
    std::vector<Completion> batch;
    Completion popped;
    while (channel_->ring.try_pop(popped)) batch.push_back(std::move(popped));
    {
        const std::lock_guard<std::mutex> lock(channel_->overflow_mutex);
        for (auto& spilled : channel_->overflow) batch.push_back(std::move(spilled));
        channel_->overflow.clear();
    }
    for (auto& done : batch) {
        const auto it = conns_.find(done.conn_id);
        if (it == conns_.end()) continue;  // connection dropped mid-flight
        it->second->session.fulfill(done.seq, std::move(done.line));
    }
    // Pump/flush once per touched connection (a batch often completes many
    // slots of the same connection).
    for (const auto& done : batch) {
        const auto it = conns_.find(done.conn_id);
        if (it == conns_.end()) continue;
        it->second->pump();
        flush_and_update(*it->second);  // may close this connection
    }
}

}  // namespace xnfv::net
