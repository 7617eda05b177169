// Thread-per-core sharded TCP serving: N independent (event loop + service)
// shards behind one SO_REUSEPORT port.
//
// Scale-out model (DESIGN.md section 13):
//
//   * Accept sharding — every shard binds its own SO_REUSEPORT listener on
//     the same port; the kernel hashes incoming connections across them, so
//     there is no shared accept lock and no connection handoff.
//   * Share-nothing serving — each shard owns a full ExplanationService
//     (admission queue, batching dispatcher thread, LRU cache slice
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
// listeners — shard 0 first to learn an ephemeral port), run() (starts one
// thread per shard, pinned when there is more than one, and joins them all),
// request_drain() (async-signal-safe; run() returns once every shard has
// flushed its in-flight work).
//
// Nothing respawns a shard.  Its loop returns only after a drain or when
// its own epoll descriptor fails; in the latter case that shard closes its
// connections and its listener and its thread ends, while its siblings keep
// serving on the port.  Anything that escapes a shard thread ends the
// process.  A shard whose dispatcher is stuck while requests wait shows up
// in its service's `worker_stalls`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "serve/service.hpp"

namespace xnfv::net {

struct ShardedServerConfig {
    /// Per-shard front-end settings.  `max_connections` is the FLEET limit
    /// (enforced via one shared budget); `port` 0 picks an ephemeral port
    /// shared by every shard.  `budget` is ignored: the fleet builds one
    /// from `max_connections`.
    ServerConfig net;
    /// Number of (event loop + service) shards; 0 = hardware concurrency.
    /// With more than one, shard i's thread is pinned to CPU i mod the
    /// hardware concurrency.
    std::size_t shards = 0;
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

    /// Runs every shard on its own thread and blocks until all have
    /// drained.  start() must have succeeded.
    void run();

    /// Begins a graceful drain on every shard.  Async-signal-safe (per
    /// shard, an atomic store and an eventfd write; the shard list never
    /// changes after construction) and idempotent — wired to SIGTERM by the
    /// CLI.
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
    /// objects (fault injectors, the connection budget) are counted once.
    /// Safe to call from any thread, including several shard loops at once.
    [[nodiscard]] serve::ServiceStats stats() const;

    /// The fleet-wide connection budget (tests assert slot exactness).
    [[nodiscard]] const ConnectionBudget& budget() const noexcept { return *budget_; }

    /// Shard internals, for tests and benchmarks.
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

    std::shared_ptr<ConnectionBudget> budget_;
    std::vector<std::unique_ptr<Shard>> shards_;  ///< fixed after construction
    /// Serializes admin ops (load/swap/retire fan-out across shards) and
    /// stats_reset, so two concurrent ops cannot interleave half-applied
    /// fleets.
    std::mutex admin_mutex_;
    std::atomic<bool> services_stopped_{false};
};

}  // namespace xnfv::net
