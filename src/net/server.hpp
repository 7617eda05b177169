// TCP front-end for the explanation service.
//
// ExplanationServer bridges accepted ND-JSON frames into the existing
// queue -> dispatcher -> cache pipeline (serve/service.hpp) and writes
// responses back on write-ready events.  The wire format is exactly the
// stdin loop's: serve::render_response / serve::render_stats produce the
// bytes on both transports, and every request is still explained by a fresh
// explainer seeded from the request's own seed — so a served-over-TCP
// explanation is bitwise identical to the in-process (and one-shot CLI)
// answer.  DESIGN.md section 12 describes the model in full.
//
// Threading: one event-loop thread owns all sockets and per-connection
// state.  A cache hit is answered at admission: submit_async hands its
// response straight back to the loop thread, which renders it and fulfils
// the connection's slot in the same callback that read the request.  A miss
// completes on the service's dispatcher thread, through a submit_async
// callback that renders the response line (a pure function) and hands
// (connection, slot, line) to the loop through a lock-free SPSC completion
// ring (net/spsc_ring.hpp) plus a coalesced eventfd wake; the dispatcher is
// the ring's only producer.  The dispatcher never touches a socket, and the
// data path never takes a lock.  An idle loop sleeps in epoll_wait with no
// timeout unless `idle_timeout` is set or a drain is under way.
// One server is one shard of the thread-per-core ShardedServer
// (net/sharded_server.hpp); run standalone it is the single-loop server of
// DESIGN.md section 12.
//
// Overload and misbehavior policy:
//   * connection limit     -> accept, answer one `backpressure` error, close;
//   * slow/half-open reader-> when the per-connection output buffer exceeds
//     its cap after a flush attempt, answer one `backpressure` error,
//     attempt a final flush, force-close;
//   * idle connections     -> closed after `idle_timeout` with no traffic
//     and nothing in flight (0 disables);
//   * graceful drain       -> request_drain() (async-signal-safe, wired to
//     SIGTERM by the CLI) stops accepting and reading, flushes everything
//     in flight, then returns from run().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/chaos.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/spsc_ring.hpp"
#include "serve/metrics.hpp"
#include "serve/service.hpp"

namespace xnfv::net {

/// Connection-count admission shared across every acceptor that holds a
/// reference — with N reuseport shards, one budget makes `max_connections`
/// a fleet-wide limit the kernel's connection hashing cannot overshoot, and
/// rejects stay exactly countable.
struct ConnectionBudget {
    explicit ConnectionBudget(std::size_t max_active) : limit(max_active) {}

    [[nodiscard]] bool try_acquire() noexcept {
        auto cur = active.load(std::memory_order_relaxed);
        do {
            if (cur >= limit) return false;
        } while (!active.compare_exchange_weak(cur, cur + 1,
                                               std::memory_order_relaxed));
        auto seen = peak.load(std::memory_order_relaxed);
        while (cur + 1 > seen &&
               !peak.compare_exchange_weak(seen, cur + 1, std::memory_order_relaxed)) {
        }
        return true;
    }
    void release() noexcept { active.fetch_sub(1, std::memory_order_relaxed); }
    /// Restarts the high-water mark from the current level (op=stats_reset).
    void reset_peak() noexcept {
        peak.store(active.load(std::memory_order_relaxed), std::memory_order_relaxed);
    }

    std::atomic<std::size_t> active{0};
    std::atomic<std::size_t> peak{0};  ///< high-water mark of `active`
    std::size_t limit;
};

struct ServerConfig {
    /// Numeric bind address; loopback by default (an explanation service is
    /// an internal NOC component, not an internet-facing one).
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port (readable via port() after start()).
    std::uint16_t port = 0;
    /// Accepted-connection ceiling; extra connections get one structured
    /// `backpressure` error and are closed.
    std::size_t max_connections = 256;
    /// Per-line request cap enforced by the frame decoder.
    std::size_t max_line_bytes = 1 << 20;
    /// Per-connection output-buffer cap: a reader this far behind is slow or
    /// half-open and is closed with a `backpressure` error.
    std::size_t max_output_bytes = 8u << 20;
    /// Close connections with no traffic and nothing in flight for this
    /// long, scanning every tenth of it.  0 disables.
    std::chrono::milliseconds idle_timeout{0};
    /// When > 0, shrink each accepted socket's kernel send buffer
    /// (SO_SNDBUF) — lets backpressure tests overflow the output cap
    /// deterministically with small payloads.
    int sndbuf = 0;
    /// Bind with SO_REUSEPORT so sibling shard listeners can share the port.
    bool reuseport = false;
    /// Connection budget shared across shards; null makes the server create
    /// a private one from `max_connections` (the standalone case).  When
    /// set, `max_connections` is ignored in favor of the budget's limit.
    std::shared_ptr<ConnectionBudget> budget;
    /// Socket chaos injector (net/chaos.hpp), shared across shards; null =
    /// no faults.  Always compiled in — a null injector costs one pointer
    /// check per I/O call.
    std::shared_ptr<NetFaultInjector> chaos;
    /// Per-connection retry-dedup window: completed responses remembered by
    /// `"rid"` so a retried request replays its recorded answer instead of
    /// recomputing.  0 disables.
    std::size_t dedup_window = 1024;
};

class ExplanationServer {
public:
    /// Resolves `{"op":"explain","row":K}` requests to a feature vector;
    /// returns false when the row does not exist.  Unset = all row requests
    /// are answered "row out of range" (same wording as the stdin loop).
    using RowLookup =
        std::function<bool(std::size_t row, std::vector<double>& features)>;

    /// The service must outlive the server and must not be stop()ped while
    /// run() is serving (drain first).
    ExplanationServer(serve::ExplanationService& service, ServerConfig config = {});
    ~ExplanationServer();

    ExplanationServer(const ExplanationServer&) = delete;
    ExplanationServer& operator=(const ExplanationServer&) = delete;

    void set_row_lookup(RowLookup lookup) { row_lookup_ = std::move(lookup); }

    /// Overrides what an `{"op":"stats"}` frame reports.  The sharded server
    /// installs its cross-shard aggregate here so any connection sees fleet
    /// totals; unset, a connection sees this server's own stats().  Called
    /// on the loop thread; must be thread-safe against sibling shards.
    using StatsProvider = std::function<serve::ServiceStats()>;
    void set_stats_provider(StatsProvider provider) {
        stats_provider_ = std::move(provider);
    }

    /// Overrides how `{"op":"load"/"swap"/"retire"/"models"}` admin frames
    /// are handled; returns the rendered single-line response.  The sharded
    /// server installs a fan-out here so an admin op reaching any shard
    /// applies to every shard's service atomically (under its admin mutex);
    /// unset, the op applies to this server's own service.  Called on the
    /// loop thread; must be thread-safe against sibling shards.
    using AdminProvider = std::function<std::string(const serve::JsonValue&)>;
    void set_admin_provider(AdminProvider provider) {
        admin_provider_ = std::move(provider);
    }

    /// Binds and listens.  On failure returns false and stores why in
    /// `error` (when non-null).
    [[nodiscard]] bool start(std::string* error = nullptr);

    /// start() on a specific port, overriding the configured one.  Reuseport
    /// siblings use this to join the group once the first shard has resolved
    /// an ephemeral port.
    [[nodiscard]] bool bind_port(std::uint16_t port, std::string* error = nullptr);

    /// Serves until drained; blocks the calling thread (tests and the CLI
    /// run it on whichever thread suits them).  start() must have succeeded.
    void run();

    /// Begins a graceful drain: stop accepting and reading, flush every
    /// in-flight response, then run() returns.  Async-signal-safe (an atomic
    /// store and an eventfd write) — the CLI calls this from its SIGTERM
    /// handler.  Idempotent.
    void request_drain() noexcept;

    [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

    /// Service stats with the net section populated (net_enabled = true).
    [[nodiscard]] serve::ServiceStats stats() const;

private:
    /// One completed explanation travelling dispatcher -> loop thread.
    struct Completion {
        std::uint64_t conn_id = 0;
        std::uint64_t seq = 0;
        std::string line;
    };
    /// Shared with submit_async callbacks so a completion arriving after the
    /// server object is gone lands in a detached (loop == nullptr) channel
    /// instead of freed memory.  The data path is the lock-free SPSC ring
    /// (producer: the service's dispatcher thread; consumer: the loop
    /// thread).  `notify_mutex` guards only the loop pointer for the rare
    /// detach race, never the payload, and `wake` coalesces a burst of
    /// completions into one eventfd write.
    struct CompletionChannel {
        explicit CompletionChannel(std::size_t capacity) : ring(capacity) {}

        SpscRing<Completion> ring;
        CoalescedWake wake;
        std::mutex notify_mutex;
        EventLoop* loop = nullptr;  ///< null once the server detaches
        /// Spill path for a full ring (possible only when the loop thread is
        /// far behind, e.g. stalled in a test); bounded by in-flight work.
        std::mutex overflow_mutex;
        std::vector<Completion> overflow;

        /// Producer side: ring first, overflow as the escape hatch, then at
        /// most one eventfd write per consumer drain cycle.
        void push(Completion&& done) {
            if (!ring.try_push(std::move(done))) {
                const std::lock_guard<std::mutex> lock(overflow_mutex);
                overflow.push_back(std::move(done));
            }
            if (wake.raise()) {
                const std::lock_guard<std::mutex> lock(notify_mutex);
                if (loop != nullptr) loop->notify();
            }
        }
    };

    void on_accept();
    void on_conn_event(std::uint64_t conn_id, std::uint32_t events);
    void on_wake();
    void on_tick();
    /// Parses one frame and either answers it synchronously (errors, quit)
    /// or submits it and leaves a pending pipeline slot.
    void handle_frame(Connection& conn, const serve::Frame& frame);
    /// Moves every resolvable head-of-line slot into the output buffer.
    void pump(Connection& conn);
    /// Flushes, enforces the output cap, updates epoll interest, and closes
    /// the connection when its end conditions hold.  The reference is dead
    /// after a call that closes.
    void flush_and_update(Connection& conn);
    void update_interest(Connection& conn);
    void close_conn(Connection& conn);
    void begin_drain();
    /// During a drain, half-closes each settled connection and stops the
    /// loop once every connection has been torn down.
    void check_drain_done();
    void drain_completions();

    serve::ExplanationService& service_;
    ServerConfig config_;
    RowLookup row_lookup_;
    StatsProvider stats_provider_;
    AdminProvider admin_provider_;
    std::shared_ptr<ConnectionBudget> budget_;
    EventLoop loop_;
    TcpListener listener_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
    std::uint64_t next_conn_id_ = 1;
    std::shared_ptr<CompletionChannel> channel_;
    std::atomic<bool> drain_requested_{false};
    bool draining_ = false;
    std::chrono::steady_clock::time_point drain_deadline_{};
    /// The service's recorders; connection events are counted there.
    serve::ServiceMetrics& metrics_;
    std::vector<serve::Frame> frames_;  ///< per-read scratch
};

}  // namespace xnfv::net
