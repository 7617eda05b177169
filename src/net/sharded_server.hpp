// Thread-per-core sharded TCP serving: N independent (event loop + service)
// shards behind one SO_REUSEPORT port.
//
// Scale-out model (DESIGN.md section 13):
//
//   * Accept sharding — every shard binds its own SO_REUSEPORT listener on
//     the same port; the kernel hashes incoming connections across them, so
//     there is no shared accept lock and no connection handoff.
//   * Share-nothing serving — each shard owns a full ExplanationService
//     (admission queue, micro-batcher, dispatcher thread, LRU cache slice
//     with its own drift epoch) and a full ExplanationServer (epoll loop,
//     connections, SPSC completion ring).  A connection lives and dies on
//     the shard that accepted it, which is what keeps per-connection
//     response bytes identical to the single-loop server: ordering is
//     per-connection, and every request is explained by a fresh explainer
//     seeded from the request itself.
//   * Partitioned cache — the configured capacity is split evenly across
//     shards; within a shard, keys spread over the existing hash-sharded
//     LRU.  Drift epochs are per shard: each shard's monitor watches the
//     traffic that shard actually served and re-keys only its own slice.
//   * Fleet-wide invariants — the connection limit is one ConnectionBudget
//     shared by all acceptors (rejects are exactly countable no matter how
//     the kernel spreads the storm), and `{"op":"stats"}` on any connection
//     reports the cross-shard aggregate.
//
// Lifecycle: construct (builds all shards' services), start() (binds all
// listeners — shard 0 first to learn an ephemeral port), run() (spawns one
// pinned thread per shard and supervises them until drained),
// request_drain() (async-signal-safe; run() returns once every shard has
// flushed its in-flight work).
//
// Self-healing: while run() blocks, the calling thread doubles as the shard
// supervisor.  Every `heartbeat_interval` it samples each shard: a server
// whose run() has returned while the fleet is not draining is a dead shard
// (its loop exit already closed its connections and released its
// ConnectionBudget slots — the exact-budget invariant survives the crash).
// The supervisor joins the dead thread, stops the old service (writing its
// `.shardK` cache snapshot), rebuilds service + server from the retained
// construction state (the new service reloads that snapshot), replays the
// admin log so late-loaded tenants reappear, rebinds the reuseport
// listener, and spawns a fresh thread — sibling shards keep serving
// untouched.  A wedged-but-alive thread (stale heartbeat() epoch) cannot be
// safely killed from outside; it is left to its watchdog-equipped service
// and surfaces through the heartbeat accessor instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"

namespace xnfv::net {

struct ShardedServerConfig {
    /// Per-shard front-end settings.  `max_connections` is the FLEET limit
    /// (enforced via one shared budget); `port` 0 picks an ephemeral port
    /// shared by every shard.
    ServerConfig net;
    /// Number of (event loop + service) shards; 0 = hardware concurrency.
    std::size_t shards = 0;
    /// Pin shard i's loop thread to CPU i mod hardware concurrency.
    bool pin_threads = true;
    /// Supervisor sampling period: a dead shard is detected and respawned
    /// within one interval.  Also bounds the drain fan-out latency after
    /// request_drain().
    std::chrono::milliseconds heartbeat_interval{50};
};

/// N-way sharded explanation server.  Owns its services (one per shard),
/// built from the same (model, background, config) triple so every shard
/// serves byte-identical answers.
class ShardedServer {
public:
    using RowLookup = ExplanationServer::RowLookup;

    /// `service_config.cache_capacity` is divided across shards (floor 16
    /// per shard); `snapshot_path`, when set, gets a ".shardK" suffix per
    /// shard so snapshots stay self-describing and non-overlapping.
    ShardedServer(std::shared_ptr<const xnfv::ml::Model> model,
                  xnfv::xai::BackgroundData background,
                  serve::ServiceConfig service_config,
                  ShardedServerConfig config = {});
    ~ShardedServer();

    ShardedServer(const ShardedServer&) = delete;
    ShardedServer& operator=(const ShardedServer&) = delete;

    /// Installed on every shard (connections may land anywhere).
    void set_row_lookup(RowLookup lookup);

    /// Binds every shard's listener.  On failure returns false, stores why
    /// in `error` (when non-null), and closes whatever was bound.
    [[nodiscard]] bool start(std::string* error = nullptr);

    /// Runs every shard on its own (optionally pinned) thread; the calling
    /// thread becomes the shard supervisor and blocks until all have
    /// drained.  start() must have succeeded.
    void run();

    /// Begins a graceful drain on every shard.  Async-signal-safe (one
    /// atomic store — the supervisor fans it out within one
    /// heartbeat_interval) and idempotent — wired to SIGTERM by the CLI.
    void request_drain() noexcept;

    /// Stops every shard's service (drains queued work, joins dispatchers,
    /// writes final snapshots).  Idempotent; the destructor calls it.  Only
    /// valid after run() has returned.
    void stop_services();

    [[nodiscard]] std::uint16_t port() const noexcept;
    [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }

    /// Fleet aggregate of every shard's stats, each key merged by its
    /// table rule (serve::merge_stats): histogram quantiles and means are
    /// exact over all shards' samples, and counts read from fleet-wide
    /// objects (fault injectors, the connection budget, respawns) are
    /// counted once.
    [[nodiscard]] serve::ServiceStats stats() const;

    /// Shard threads respawned by the supervisor so far.
    [[nodiscard]] std::uint64_t shard_respawns() const noexcept {
        return shard_respawns_.value();
    }

    /// The fleet-wide connection budget (tests assert slot exactness).
    [[nodiscard]] const ConnectionBudget& budget() const noexcept { return *budget_; }

    /// Shard internals, for tests and benchmarks.  Not synchronized against
    /// the supervisor — callers must know the shard is not mid-respawn.
    [[nodiscard]] serve::ExplanationService& service(std::size_t shard) {
        return *shards_[shard]->service;
    }
    [[nodiscard]] ExplanationServer& server(std::size_t shard) {
        return *shards_[shard]->server;
    }

private:
    struct Shard {
        std::unique_ptr<serve::ExplanationService> service;
        std::unique_ptr<ExplanationServer> server;
        std::thread thread;
    };

    void build_shard_locked(std::size_t index);
    /// Joins the dead thread, rebuilds service (reloading the .shardK
    /// snapshot) + server, replays the admin log, rebinds, respawns.
    /// Caller holds admin_mutex_ then shards_mutex_.
    void respawn_shard_locked(std::size_t index);
    /// The supervisor loop run() parks its caller in.
    void supervise();

    ShardedServerConfig config_;
    std::shared_ptr<ConnectionBudget> budget_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /// Construction state retained so a dead shard can be rebuilt.
    std::shared_ptr<const xnfv::ml::Model> model_;
    xnfv::xai::BackgroundData background_;
    serve::ServiceConfig per_shard_;
    RowLookup row_lookup_;
    std::uint16_t port_ = 0;  ///< concrete port every listener shares
    /// Serializes admin ops (load/swap/retire fan-out across shards) and
    /// orders before shards_mutex_ when both are held (respawn replay).
    mutable std::mutex admin_mutex_;
    /// Guards shards_ entries against the supervisor swapping a shard's
    /// service/server mid-respawn (stats and admin fan-out take it too).
    mutable std::mutex shards_mutex_;
    /// Mutating admin ops in arrival order, replayed into a respawned
    /// shard's fresh service so late-loaded tenants survive the crash.
    std::vector<serve::JsonValue> admin_log_;
    std::atomic<bool> draining_{false};
    std::atomic<bool> services_stopped_{false};
    serve::Counter shard_respawns_;
};

}  // namespace xnfv::net
