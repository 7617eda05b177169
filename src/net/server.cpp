#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "serve/explainers.hpp"

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

/// Error responses reuse the exact rendering the stdin loop produces through
/// render_response, so a TCP client sees the same bytes for the same fault.
std::string render_error_line(std::uint64_t id, serve::ServeError code,
                              const std::string& message) {
    serve::ExplainResponse r;
    r.id = id;
    r.error_code = code;
    r.error = message;
    return serve::render_response(r);
}

}  // namespace

ExplanationServer::ExplanationServer(serve::ExplanationService& service,
                                     ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      budget_(config_.budget
                  ? config_.budget
                  : std::make_shared<ConnectionBudget>(config_.max_connections)),
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

bool ExplanationServer::start(std::string* error) {
    if (!loop_.ok()) {
        if (error) *error = "event loop initialization failed (epoll/eventfd)";
        return false;
    }
    return listener_.listen(config_.host, config_.port, error, config_.reuseport);
}

bool ExplanationServer::bind_port(std::uint16_t port, std::string* error) {
    config_.port = port;
    return start(error);
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
        if (!budget_->try_acquire()) {
            const auto line =
                render_error_line(0, serve::ServeError::backpressure,
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
        auto conn = std::make_unique<Connection>(id, fd, config_.max_line_bytes);
        conn->interest = EPOLLIN;
        conn->chaos = config_.chaos.get();
        conn->dedup_window = config_.dedup_window;
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
        for (const auto& frame : frames_) handle_frame(conn, frame);
        pump(conn);
        if (status == IoStatus::error) {
            close_conn(conn);
            return;
        }
        if (status == IoStatus::peer_closed) conn.peer_eof = true;
    } else if ((events & EPOLLHUP) != 0 && conn.output_empty() &&
               conn.pipeline_empty()) {
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
            if (conn->pipeline_empty() && conn->output_empty() &&
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

void ExplanationServer::handle_frame(Connection& conn, const serve::Frame& frame) {
    if (conn.saw_quit) return;
    const auto answer_error = [&conn](std::uint64_t id, serve::ServeError code,
                                      const std::string& message) {
        const auto seq = conn.push_slot(Connection::Slot::Kind::response);
        conn.fulfill(seq, render_error_line(id, code, message));
    };
    if (frame.error != serve::ServeError::none) {
        answer_error(0, frame.error, frame.message);
        return;
    }
    serve::JsonValue req;
    try {
        req = serve::parse_json(frame.text);
    } catch (const std::exception& e) {
        answer_error(0, serve::ServeError::bad_request, e.what());
        return;
    }
    const auto op = req.get_string("op", "explain");
    if (op == "quit") {
        // Session end for THIS connection: a barrier that, once every
        // earlier answer has been staged, closes after the final flush.
        conn.push_slot(Connection::Slot::Kind::quit);
        conn.saw_quit = true;
        return;
    }
    if (op == "stats") {
        conn.push_slot(Connection::Slot::Kind::stats);
        return;
    }
    if (op == "stats_reset") {
        // Per-phase measurement: zero the service and net counters so the
        // next stats snapshot covers only traffic after this frame.  Applied
        // immediately (like admin ops) — in-flight requests land in the new
        // window, which is exactly what a phase boundary wants.  In a sharded
        // server the provider fans the reset out to every shard.
        const auto seq = conn.push_slot(Connection::Slot::Kind::response);
        if (admin_provider_) {
            conn.fulfill(seq, admin_provider_(req));
        } else {
            service_.stats_reset();
            budget_->reset_peak();
            serve::JsonWriter w;
            w.field("ok", true);
            w.field("op", "stats_reset");
            conn.fulfill(seq, w.finish());
        }
        return;
    }
    if (op == "load" || op == "swap" || op == "retire" || op == "models") {
        // Registry admin: applied immediately (not as a pipeline barrier) —
        // requests already admitted keep the snapshot they pinned, exactly
        // the RCU contract.  In a sharded server the provider fans the op
        // out to every shard under the admin mutex.
        const auto seq = conn.push_slot(Connection::Slot::Kind::response);
        conn.fulfill(seq, admin_provider_
                              ? admin_provider_(req)
                              : serve::handle_model_admin(req, {&service_}));
        return;
    }
    if (op == "use") {
        // Session default: subsequent frames without a "model" field resolve
        // to this name.  "" (or omitting "model") resets to the service
        // default.
        const auto name = req.get_string("model", "");
        const auto seq = conn.push_slot(Connection::Slot::Kind::response);
        if (!name.empty() && !service_.feature_dim(name)) {
            conn.fulfill(seq, render_error_line(0, serve::ServeError::unknown_model,
                                                "unknown model '" + name + "'"));
            return;
        }
        conn.default_model = name;
        serve::JsonWriter w;
        w.field("ok", true);
        w.field("op", "use");
        w.field("model", name);
        conn.fulfill(seq, w.finish());
        return;
    }
    if (op != "explain") {
        answer_error(0, serve::ServeError::bad_request, "unknown op '" + op + "'");
        return;
    }

    serve::ExplainRequest er;
    er.id = static_cast<std::uint64_t>(
        req.get_number("id", static_cast<double>(conn.next_request_id)));
    ++conn.next_request_id;
    er.method = req.get_string("method", "");
    er.model = req.get_string("model", conn.default_model);
    er.seed = static_cast<std::uint64_t>(req.get_number("seed", 0));
    er.deadline_ms = static_cast<std::int64_t>(req.get_number("deadline_ms", -1));
    // Opt-in interaction pairs; negative values clamp to 0 (= off) so a
    // malformed count degrades to the plain response instead of an error.
    if (const double k = req.get_number("interactions", 0); k > 0)
        er.interactions = static_cast<std::size_t>(k);

    // The request's slot is allocated before validation so the idempotent
    // retry window covers every outcome: a duplicate "rid" replays the
    // recorded answer — explanation or error alike — without re-entering
    // validation or compute.  (Retried requests should carry an explicit
    // "id": the default-id counter has already advanced by the time a
    // duplicate is recognized.)
    const auto rid = static_cast<std::uint64_t>(req.get_number("rid", 0));
    const auto seq = conn.push_slot(Connection::Slot::Kind::response);
    if (conn.dedup_admit(rid, seq) != Connection::DedupVerdict::fresh) {
        metrics_.inc(&serve::ServiceStats::net_retry_duplicates);
        return;
    }
    const auto fail = [&conn, seq](std::uint64_t id, serve::ServeError code,
                                   const std::string& message) {
        conn.fulfill(seq, render_error_line(id, code, message));
    };

    // Feature arity is per-model now, so the model must resolve before the
    // features member can be validated.
    const auto dim = service_.feature_dim(er.model);
    if (!dim) {
        fail(er.id, serve::ServeError::unknown_model,
             "unknown model '" + er.model + "'");
        return;
    }
    // Name the valid set in the error: the shared registry keeps this line,
    // the CLI usage screen, and the service's own validation in lockstep.
    if (!er.method.empty() && er.method != serve::kAutoMethod &&
        !serve::known_explainer(er.method)) {
        fail(er.id, serve::ServeError::bad_request,
             "unknown method '" + er.method + "' (expected " +
                 serve::explainer_list_with_auto() + ")");
        return;
    }
    if (req.has("features")) {
        auto extracted = serve::extract_features(req, *dim);
        if (extracted.error != serve::ServeError::none) {
            fail(er.id, extracted.error, extracted.message);
            return;
        }
        er.features = std::move(extracted.features);
    } else if (req.has("row")) {
        const auto row = static_cast<std::size_t>(req.get_number("row", 0));
        if (!row_lookup_ || !row_lookup_(row, er.features)) {
            fail(er.id, serve::ServeError::bad_request, "row out of range");
            return;
        }
    } else {
        fail(er.id, serve::ServeError::bad_request,
             "explain needs \"row\" or \"features\"");
        return;
    }

    const std::uint64_t id = er.id;
    std::optional<serve::ExplainResponse> hit;
    const auto rejected = service_.submit_async(
        std::move(er),
        // Dispatcher thread: render (pure) and marshal onto the loop over
        // the lock-free ring; the eventfd write is coalesced per drain.
        [channel = channel_, conn_id = conn.id(), seq](serve::ExplainResponse r) {
            channel->push({conn_id, seq, serve::render_response(r)});
        },
        &hit);
    if (hit) {
        // A cache hit, answered at admission on this thread: the slot is
        // filled here, and the ring keeps the dispatcher as its one producer.
        conn.fulfill(seq, serve::render_response(*hit));
    } else if (rejected != serve::ServeError::none) {
        conn.fulfill(seq, render_error_line(
                              id, rejected,
                              std::string("rejected: ") + to_string(rejected)));
    }
}

void ExplanationServer::pump(Connection& conn) {
    while (auto* slot = conn.front_slot()) {
        switch (slot->kind) {
            case Connection::Slot::Kind::response:
                if (!slot->ready) return;
                conn.queue_output(slot->line);
                break;
            case Connection::Slot::Kind::stats:
                // Head of line: everything admitted before this frame has
                // been answered, so the snapshot covers it — the TCP
                // equivalent of the stdin loop's drain-before-stats.  In a
                // sharded server the provider reports the fleet aggregate.
                conn.queue_output(serve::render_stats(
                    stats_provider_ ? stats_provider_() : stats()));
                break;
            case Connection::Slot::Kind::quit:
                conn.pop_front_slot();
                conn.close_after_flush = true;
                return;
        }
        ++conn.requests;
        metrics_.inc(&serve::ServiceStats::net_requests);
        conn.pop_front_slot();
    }
}

void ExplanationServer::update_interest(Connection& conn) {
    std::uint32_t mask = 0;
    if ((!draining_ && !conn.peer_eof && !conn.saw_quit) || conn.lingering)
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
        conn.queue_output(render_error_line(
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
        (conn.close_after_flush || (conn.peer_eof && conn.pipeline_empty()))) {
        close_conn(conn);
        return;
    }
    update_interest(conn);
}

void ExplanationServer::close_conn(Connection& conn) {
    metrics_.conn_requests.record(conn.requests);
    loop_.remove(conn.fd());
    conn.close();
    conns_.erase(conn.id());  // destroys conn; the reference is dead here
    budget_->release();
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
        if (!conn->pipeline_empty() || !conn->output_empty()) continue;
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
        it->second->fulfill(done.seq, std::move(done.line));
    }
    // Pump/flush once per touched connection (a batch often completes many
    // slots of the same connection).
    for (const auto& done : batch) {
        const auto it = conns_.find(done.conn_id);
        if (it == conns_.end()) continue;
        pump(*it->second);
        flush_and_update(*it->second);  // may close this connection
    }
}

serve::ServiceStats ExplanationServer::stats() const {
    auto s = service_.stats();
    s.net_enabled = true;
    s.net_shards = 1;
    s.connections_active = budget_->active.load(std::memory_order_relaxed);
    s.connections_active_max = budget_->peak.load(std::memory_order_relaxed);
    if (config_.chaos) s.net_faults_injected = config_.chaos->total_fired();
    s.derive();  // mirrors the net counts into errors_by_reason
    return s;
}

}  // namespace xnfv::net
