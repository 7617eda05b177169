#include "net/loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "serve/fnv.hpp"
#include "serve/ndjson.hpp"

namespace xnfv::net {

std::string render_request_line(const RequestSpec& spec) {
    serve::JsonWriter w;
    w.field("op", "explain");
    w.field("id", spec.id);
    if (spec.rid != 0) w.field("rid", spec.rid);
    if (spec.row >= 0)
        w.field("row", static_cast<std::uint64_t>(spec.row));
    else
        w.field_array("features", spec.features);
    if (!spec.method.empty()) w.field("method", spec.method);
    if (!spec.model.empty()) w.field("model", spec.model);
    if (spec.seed != 0) w.field("seed", spec.seed);
    if (spec.deadline_ms >= 0)
        w.field("deadline_ms", static_cast<double>(spec.deadline_ms));
    if (spec.interactions != 0)
        w.field("interactions", static_cast<std::uint64_t>(spec.interactions));
    return w.finish();
}

namespace {

/// Cap on connections mid-handshake at once: a 10k-socket storm started all
/// at once can overflow even a 4096 listen backlog; trickling the connects
/// keeps the SYN queue bounded without serializing the test.
constexpr std::size_t kConnectBurst = 512;

using Clock = std::chrono::steady_clock;

/// Pulls the numeric "id" field out of a request or response line (0 when
/// absent) — retry mode's matching key, cheaper than a full JSON parse on
/// the hot read path.
[[nodiscard]] std::uint64_t extract_id(const std::string& line) {
    const auto pos = line.find("\"id\":");
    if (pos == std::string::npos) return 0;
    std::size_t i = pos + 5;
    while (i < line.size() && line[i] == ' ') ++i;
    std::uint64_t v = 0;
    bool any = false;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
        ++i;
        any = true;
    }
    return any ? v : 0;
}

struct Conn {
    int fd = -1;
    std::size_t index = 0;                        ///< script / report slot
    const std::vector<std::string>* script = nullptr;
    std::size_t next_line = 0;                    ///< next script line to stage
    std::size_t outstanding = 0;                  ///< sent minus answered lines
    std::string outbuf;                           ///< staged, unwritten bytes
    bool connecting = false;
    bool write_closed = false;                    ///< SHUT_WR sent or write died
    bool done = false;
    std::uint32_t interest = 0;
    /// Stage times of in-flight lines (record_latency only), FIFO-matched to
    /// responses — the sample includes client-side queueing, like a caller's
    /// request clock would.
    std::deque<std::chrono::steady_clock::time_point> staged_at;

    // --- Retry mode ----------------------------------------------------
    /// In-flight lines keyed by request id; erased when the matching
    /// response id arrives (any order), re-sent when next_check passes.
    struct Pending {
        std::string line;
        Clock::time_point next_check;
        std::size_t attempts = 0;  ///< re-sends so far
    };
    std::unordered_map<std::uint64_t, Pending> pending;
    std::size_t reconnects = 0;
    bool waiting_reconnect = false;  ///< fd closed, backoff running
    Clock::time_point reconnect_at{};
    Clock::time_point connect_started{};
};

struct Driver {
    const LoadgenConfig& config;
    const std::vector<std::vector<std::string>>& scripts;
    LoadReport& report;
    int epfd = -1;
    std::vector<Conn> conns;
    std::size_t next_to_start = 0;
    std::size_t connecting = 0;
    std::size_t active = 0;

    void finish(Conn& conn) {
        if (conn.done) return;
        conn.done = true;
        if (conn.connecting) --connecting;
        if (conn.fd >= 0) {
            ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
            ::close(conn.fd);
            conn.fd = -1;
        }
        --active;
    }

    [[nodiscard]] bool retry() const noexcept { return config.retries_enabled(); }

    /// Exponential backoff for attempt k with deterministic jitter: the
    /// whole retry schedule is a pure function of (retry_seed, connection,
    /// rid, attempt), so a chaos run replays identically.
    [[nodiscard]] Clock::duration backoff_delay(const Conn& conn, std::uint64_t rid,
                                                std::size_t attempt) const {
        const auto base = static_cast<std::uint64_t>(
            std::max<long long>(config.backoff_base.count(), 0));
        const std::size_t expo = std::min<std::size_t>(attempt > 0 ? attempt - 1 : 0, 10);
        const std::uint64_t h = serve::fnv1a_u64(
            attempt,
            serve::fnv1a_u64(
                rid, serve::fnv1a_u64(conn.index, serve::fnv1a_u64(config.retry_seed))));
        const std::uint64_t jitter = base == 0 ? 0 : h % (base + 1);
        return std::chrono::milliseconds((base << expo) + jitter);
    }

    [[nodiscard]] Clock::time_point response_deadline(Clock::time_point now) const {
        if (config.response_timeout.count() <= 0) return Clock::time_point::max();
        return now + config.response_timeout;
    }

    void update_interest(Conn& conn) {
        std::uint32_t mask = EPOLLIN;
        if (conn.connecting || (!conn.outbuf.empty() && !conn.write_closed))
            mask |= EPOLLOUT;
        if (mask == conn.interest) return;
        epoll_event ev{};
        ev.events = mask;
        ev.data.ptr = &conn;
        ::epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev);
        conn.interest = mask;
    }

    /// Moves script lines into the output buffer while the window allows.
    void stage(Conn& conn) {
        auto& rep = report.conns[conn.index];
        while (conn.next_line < conn.script->size() &&
               conn.outstanding < config.window) {
            const std::string& line = (*conn.script)[conn.next_line];
            conn.outbuf += line;
            conn.outbuf += '\n';
            ++conn.next_line;
            ++conn.outstanding;
            ++rep.sent_lines;
            if (config.record_latency)
                conn.staged_at.push_back(std::chrono::steady_clock::now());
            if (retry()) {
                if (const auto id = extract_id(line); id != 0)
                    conn.pending.emplace(
                        id, Conn::Pending{line, response_deadline(Clock::now()), 0});
            }
        }
    }

    void write_some(Conn& conn) {
        if (conn.write_closed) return;
        while (!conn.outbuf.empty()) {
            const auto n = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                                  MSG_NOSIGNAL);
            if (n > 0) {
                conn.outbuf.erase(0, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
            // Write side died (reset, rejected-and-closed peer).  Keep
            // reading: the server may have flushed a final error line.
            conn.write_closed = true;
            return;
        }
        if (conn.next_line == conn.script->size() && config.shutdown_writes &&
            !retry()) {
            ::shutdown(conn.fd, SHUT_WR);
            conn.write_closed = true;
        }
    }

    void read_some(Conn& conn) {
        auto& rep = report.conns[conn.index];
        char buf[64 * 1024];
        for (;;) {
            const auto n = ::recv(conn.fd, buf, sizeof(buf), 0);
            if (n > 0) {
                rep.partial.append(buf, static_cast<std::size_t>(n));
                std::size_t start = 0;
                for (;;) {
                    const auto nl = rep.partial.find('\n', start);
                    if (nl == std::string::npos) break;
                    rep.lines.push_back(rep.partial.substr(start, nl - start));
                    start = nl + 1;
                    bool matched = true;
                    if (retry()) {
                        // Id-keyed matching: a response for a still-pending
                        // id settles it; anything else is a duplicate (the
                        // server answered both the original and a replay).
                        const auto id = extract_id(rep.lines.back());
                        const auto it = conn.pending.find(id);
                        if (id != 0 && it != conn.pending.end()) {
                            conn.pending.erase(it);
                        } else {
                            ++rep.duplicates;
                            matched = false;
                        }
                    }
                    if (matched && conn.outstanding > 0) --conn.outstanding;
                    if (matched && config.record_latency && !conn.staged_at.empty()) {
                        rep.latency_us.push_back(
                            std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() -
                                conn.staged_at.front())
                                .count());
                        conn.staged_at.pop_front();
                    }
                }
                rep.partial.erase(0, start);
                stage(conn);  // window may have opened
                if (retry() && conn.pending.empty() &&
                    conn.next_line == conn.script->size() && conn.outbuf.empty()) {
                    // Every scripted line answered: retry mode closes
                    // actively instead of waiting for the server.
                    finish(conn);
                    return;
                }
                continue;
            }
            if (n == 0) {
                if (retry()) {
                    conn_lost(conn, false);
                    return;
                }
                rep.eof = true;
                finish(conn);
                return;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (retry()) {
                conn_lost(conn, true);
                return;
            }
            rep.io_error = true;
            finish(conn);
            return;
        }
    }

    /// The transport died (EOF, reset, or write failure) in retry mode.
    /// Benign when the script is fully answered; otherwise reconnect with
    /// backoff, or give up once the retry budget is spent.
    void conn_lost(Conn& conn, bool was_error) {
        auto& rep = report.conns[conn.index];
        if (conn.pending.empty() && conn.next_line == conn.script->size()) {
            if (!was_error) rep.eof = true;
            finish(conn);
            return;
        }
        if (conn.reconnects >= config.max_retries) {
            rep.io_error = true;
            finish(conn);
            return;
        }
        schedule_reconnect(conn);
    }

    /// Tears the connection down and arms the reconnect backoff timer.
    void schedule_reconnect(Conn& conn) {
        auto& rep = report.conns[conn.index];
        ++conn.reconnects;
        ++rep.reconnects;
        if (conn.connecting) {
            --connecting;
            conn.connecting = false;
        }
        if (conn.fd >= 0) {
            ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
            ::close(conn.fd);
            conn.fd = -1;
        }
        conn.interest = 0;
        conn.outbuf.clear();
        // A torn tail line belongs to the dead stream; its rid is still
        // pending, so the replay re-delivers the whole line.
        rep.partial.clear();
        conn.staged_at.clear();
        conn.write_closed = false;
        conn.waiting_reconnect = true;
        conn.reconnect_at = Clock::now() + backoff_delay(conn, 0, conn.reconnects);
    }

    /// Re-sends every still-pending line on a freshly established
    /// connection (the new stream's dedup window has no record of them).
    void resend_pending(Conn& conn) {
        if (!retry() || conn.pending.empty()) return;
        const auto now = Clock::now();
        for (auto& [id, p] : conn.pending) {
            conn.outbuf += p.line;
            conn.outbuf += '\n';
            p.next_check = response_deadline(now);
        }
    }

    /// Opens conn's socket and begins the non-blocking handshake; false
    /// means this attempt failed synchronously (fd, if any, already closed).
    [[nodiscard]] bool open_socket(Conn& conn) {
        conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (conn.fd < 0) return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(config.port);
        if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
            ::close(conn.fd);
            conn.fd = -1;
            return false;
        }
        const int rc =
            ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        if (rc != 0 && errno != EINPROGRESS) {
            ::close(conn.fd);
            conn.fd = -1;
            return false;
        }
        conn.connecting = rc != 0;
        if (conn.connecting) ++connecting;
        conn.connect_started = Clock::now();
        epoll_event ev{};
        ev.events = conn.connecting ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
        ev.data.ptr = &conn;
        conn.interest = ev.events;
        if (::epoll_ctl(epfd, EPOLL_CTL_ADD, conn.fd, &ev) != 0) {
            if (conn.connecting) {
                --connecting;
                conn.connecting = false;
            }
            ::close(conn.fd);
            conn.fd = -1;
            return false;
        }
        return true;
    }

    /// Handshake complete: replay pending lines (retry mode), stage, write.
    void on_connected(Conn& conn) {
        resend_pending(conn);
        stage(conn);
        write_some(conn);
        update_interest(conn);
    }

    /// A (re)connect attempt failed before the handshake even started.
    void connect_attempt_failed(Conn& conn) {
        if (retry() && conn.reconnects < config.max_retries) {
            schedule_reconnect(conn);
            return;
        }
        report.conns[conn.index].connect_failed = true;
        finish(conn);
    }

    void start_one() {
        const auto i = next_to_start++;
        Conn& conn = conns[i];
        if (!open_socket(conn)) {
            connect_attempt_failed(conn);
            return;
        }
        if (!conn.connecting) on_connected(conn);
    }

    void on_event(Conn& conn, std::uint32_t events) {
        if (conn.done || conn.waiting_reconnect) return;
        if (conn.connecting) {
            if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
            int err = 0;
            socklen_t len = sizeof(err);
            ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
            if (err != 0) {
                connect_attempt_failed(conn);
                return;
            }
            conn.connecting = false;
            --connecting;
            resend_pending(conn);
            stage(conn);
        }
        if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
            read_some(conn);
            if (conn.done || conn.waiting_reconnect) return;
        }
        write_some(conn);
        update_interest(conn);
    }

    /// Retry mode's timer sweep: fires reconnect backoffs, bounds connect
    /// handshakes, and re-sends response-timeout stragglers.
    void check_timers(Clock::time_point now) {
        if (!retry()) return;
        for (auto& conn : conns) {
            if (conn.done) continue;
            auto& rep = report.conns[conn.index];
            if (conn.waiting_reconnect) {
                if (now < conn.reconnect_at) continue;
                conn.waiting_reconnect = false;
                if (!open_socket(conn)) {
                    connect_attempt_failed(conn);
                } else if (!conn.connecting) {
                    on_connected(conn);
                }
                continue;
            }
            if (conn.connecting) {
                if (config.connect_timeout.count() > 0 &&
                    now - conn.connect_started >= config.connect_timeout) {
                    ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
                    ::close(conn.fd);
                    conn.fd = -1;
                    --connecting;
                    conn.connecting = false;
                    connect_attempt_failed(conn);
                }
                continue;
            }
            if (conn.write_closed && !conn.pending.empty()) {
                // The write side died mid-script; the read side may never
                // deliver an EOF, so treat it as a lost connection now.
                conn_lost(conn, true);
                continue;
            }
            if (config.response_timeout.count() <= 0 || conn.pending.empty())
                continue;
            bool wrote = false;
            for (auto& [id, p] : conn.pending) {
                if (now < p.next_check) continue;
                if (p.attempts >= config.max_retries) {
                    rep.io_error = true;
                    finish(conn);
                    break;
                }
                ++p.attempts;
                ++rep.retries;
                conn.outbuf += p.line;
                conn.outbuf += '\n';
                p.next_check =
                    now + config.response_timeout + backoff_delay(conn, id, p.attempts);
                wrote = true;
            }
            if (conn.done) continue;
            if (wrote) {
                write_some(conn);
                update_interest(conn);
            }
        }
    }
};

}  // namespace

LoadReport run_load(const LoadgenConfig& config,
                    const std::vector<std::vector<std::string>>& scripts) {
    LoadReport report;
    report.conns.resize(scripts.size());
    if (scripts.empty()) return report;

    Driver d{config, scripts, report, -1, {}, 0, 0, 0};
    d.epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (d.epfd < 0) {
        for (auto& conn : report.conns) conn.connect_failed = true;
        return report;
    }
    d.conns.resize(scripts.size());
    for (std::size_t i = 0; i < scripts.size(); ++i) {
        d.conns[i].index = i;
        d.conns[i].script = &scripts[i];
    }
    d.active = scripts.size();

    const auto deadline = std::chrono::steady_clock::now() + config.timeout;
    std::vector<epoll_event> events(1024);
    while (d.active > 0) {
        while (d.next_to_start < scripts.size() && d.connecting < kConnectBurst)
            d.start_one();
        if (d.active == 0) break;
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
            report.timed_out = true;
            break;
        }
        const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 deadline - now)
                                 .count();
        // Retry mode needs a short tick to fire backoff/response timers.
        const long long cap = config.retries_enabled() ? 5 : 1000;
        const int n = ::epoll_wait(d.epfd, events.data(),
                                   static_cast<int>(events.size()),
                                   static_cast<int>(std::min<long long>(wait_ms, cap)));
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        for (int i = 0; i < n; ++i)
            d.on_event(*static_cast<Conn*>(events[static_cast<std::size_t>(i)].data.ptr),
                       events[static_cast<std::size_t>(i)].events);
        d.check_timers(std::chrono::steady_clock::now());
    }
    for (auto& conn : d.conns)
        if (!conn.done) d.finish(conn);
    ::close(d.epfd);
    return report;
}

}  // namespace xnfv::net
