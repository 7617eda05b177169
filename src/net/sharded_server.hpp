// The TCP front-end of the explanation service: N independent (event loop +
// service) shards behind one port, thread-per-core.  Every TCP path serves
// through a ShardedServer; `--shards 1` is one event loop and one service.
//
// Scale-out model (DESIGN.md section 13):
//
//   * Accept sharding — with more than one shard, every shard binds its own
//     SO_REUSEPORT listener on the same port; the kernel hashes incoming
//     connections across them, so there is no shared accept lock and no
//     connection handoff.
//   * Share-nothing serving — each shard owns a full ExplanationService
//     (admission queue, batching dispatcher thread, LRU cache slice
//     with its own drift epoch) and an ExplanationServer (epoll loop,
//     connections, SPSC completion ring; net/server.hpp).  A connection
//     lives and dies on the shard that accepted it, which is what keeps
//     per-connection response bytes identical at every shard count:
//     ordering is per-connection, and every request is explained by a fresh
//     explainer seeded from the request itself.
//   * Partitioned cache — the configured capacity is split evenly across
//     shards; within a shard, keys spread over the existing hash-sharded
//     LRU.  Drift epochs are per shard: each shard's monitor watches the
//     traffic that shard actually served and re-keys only its own slice.
//   * Fleet-wide state — the settings, the row lookup and the connection
//     budget belong to the fleet, and every shard reads them from it: the
//     connection limit is one ConnectionBudget shared by all acceptors
//     (rejects are exactly countable no matter how the kernel spreads the
//     storm), `{"op":"stats"}` on any connection reports the cross-shard
//     aggregate, and an admin op or `stats_reset` on any connection applies
//     to every shard's service.
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

/// The TCP explanation server: `config.shards` shards behind one port.  Owns
/// its services (one per shard), built from the same (model, background,
/// config) triple so every shard serves byte-identical answers.
class ShardedServer {
public:
    /// Resolves `{"op":"explain","row":K}` requests to a feature vector;
    /// returns false when the row does not exist.  Unset = all row requests
    /// are answered "row out of range".
    using RowLookup = serve::Session::RowLookup;

    /// `service_config.cache_capacity` is divided across shards (floor 16
    /// per shard); `snapshot_path`, when set, gets a ".shardK" suffix per
    /// shard so snapshots stay self-describing and non-overlapping.
    ShardedServer(std::shared_ptr<const xnfv::ml::Model> model,
                  xnfv::xai::BackgroundData background,
                  serve::ServiceConfig service_config,
                  ServerConfig config = {});
    ~ShardedServer();

    ShardedServer(const ShardedServer&) = delete;
    ShardedServer& operator=(const ShardedServer&) = delete;

    /// Read by every shard (connections may land anywhere).  Set it before
    /// start().
    void set_row_lookup(RowLookup lookup) { row_lookup_ = std::move(lookup); }

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
    [[nodiscard]] const ConnectionBudget& budget() const noexcept { return budget_; }

    /// Shard `shard`'s service, for tests and benchmarks.
    [[nodiscard]] serve::ExplanationService& service(std::size_t shard) {
        return *shards_[shard]->service;
    }

private:
    friend class ExplanationServer;

    struct Shard {
        std::unique_ptr<serve::ExplanationService> service;
        std::unique_ptr<ExplanationServer> server;
        std::thread thread;
    };

    /// Applies `stats_reset` or a load/swap/retire/models op to every
    /// shard's service and returns its answer line.  Called on any shard's
    /// loop thread; serialized so two concurrent ops cannot interleave
    /// half-applied fleets.
    [[nodiscard]] std::string admin(const serve::JsonValue& request);

    const ServerConfig config_;
    RowLookup row_lookup_;
    ConnectionBudget budget_;
    std::vector<std::unique_ptr<Shard>> shards_;  ///< fixed after construction
    std::mutex admin_mutex_;  ///< serializes admin()
    std::atomic<bool> services_stopped_{false};
};

}  // namespace xnfv::net
