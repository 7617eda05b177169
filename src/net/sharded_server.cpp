#include "net/sharded_server.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "serve/registry.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace xnfv::net {

namespace {

[[nodiscard]] std::size_t resolve_shards(std::size_t requested) {
    if (requested > 0) return requested;
    const auto hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void pin_to_cpu([[maybe_unused]] std::thread& thread,
                [[maybe_unused]] std::size_t cpu) {
#ifdef __linux__
    const auto ncpu = std::thread::hardware_concurrency();
    if (ncpu == 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu % ncpu, &set);
    // Best-effort: a denied affinity call (cgroup cpuset, RT policy) just
    // leaves the shard floating, which is still correct.
    ::pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#endif
}

}  // namespace

ShardedServer::ShardedServer(std::shared_ptr<const xnfv::ml::Model> model,
                             xnfv::xai::BackgroundData background,
                             serve::ServiceConfig service_config,
                             ShardedServerConfig config)
    : config_(std::move(config)),
      model_(std::move(model)),
      background_(std::move(background)) {
    const std::size_t n = resolve_shards(config_.shards);
    config_.shards = n;
    budget_ = config_.net.budget
                  ? config_.net.budget
                  : std::make_shared<ConnectionBudget>(config_.net.max_connections);

    // Partition the cache: the fleet's total capacity stays what was asked
    // for, spread over per-shard slices (each internally hash-sharded), and
    // each slice carries its own drift epoch.  The per-shard config is
    // retained so the supervisor can rebuild a dead shard identically.
    per_shard_ = std::move(service_config);
    per_shard_.cache_capacity =
        std::max<std::size_t>(16, per_shard_.cache_capacity / n);

    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        shards_.push_back(std::make_unique<Shard>());
        build_shard_locked(i);
    }
}

void ShardedServer::build_shard_locked(std::size_t index) {
    auto& shard = *shards_[index];
    // Every model's snapshot file gets the shard suffix (the service
    // composes `<base>[.<fingerprint>].shardK`), keeping shard slices
    // distinct per model without rewriting the base path.  A respawned
    // shard's fresh service reloads exactly its own slice.
    serve::ServiceConfig cfg = per_shard_;
    if (!cfg.snapshot_path.empty() && config_.shards > 1)
        cfg.snapshot_suffix = ".shard" + std::to_string(index);
    shard.service =
        std::make_unique<serve::ExplanationService>(model_, background_, cfg);

    ServerConfig net = config_.net;
    net.reuseport = config_.shards > 1;
    net.budget = budget_;
    shard.server =
        std::make_unique<ExplanationServer>(*shard.service, std::move(net));
    shard.server->set_stats_provider([this] { return stats(); });
    // An admin op (load/swap/retire) reaching any shard must apply to
    // every shard's service, serialized so two concurrent ops cannot
    // interleave half-applied fleets.  Mutating ops are appended to the
    // admin log the supervisor replays into a respawned shard.
    shard.server->set_admin_provider([this](const serve::JsonValue& req) {
        const std::lock_guard<std::mutex> admin_lock(admin_mutex_);
        const std::lock_guard<std::mutex> shards_lock(shards_mutex_);
        if (req.get_string("op", "") == "stats_reset") {
            // Fleet-wide measurement window: zero every shard's service and
            // connection metrics under the same locks an admin op holds, so
            // a reset can never interleave with a half-applied fleet.  Not
            // logged — a respawned shard starts its metrics at zero anyway.
            for (const auto& s : shards_) s->service->stats_reset();
            budget_->reset_peak();
            serve::JsonWriter w;
            w.field("ok", true);
            w.field("op", "stats_reset");
            return w.finish();
        }
        std::vector<serve::ExplanationService*> services;
        services.reserve(shards_.size());
        for (const auto& s : shards_) services.push_back(s->service.get());
        auto response = serve::handle_model_admin(req, services);
        const auto op = req.get_string("op", "");
        if (op == "load" || op == "swap" || op == "retire")
            admin_log_.push_back(req);
        return response;
    });
    if (row_lookup_) shard.server->set_row_lookup(row_lookup_);
}

ShardedServer::~ShardedServer() { stop_services(); }

void ShardedServer::set_row_lookup(RowLookup lookup) {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    row_lookup_ = std::move(lookup);
    for (auto& shard : shards_) shard->server->set_row_lookup(row_lookup_);
}

bool ShardedServer::start(std::string* error) {
    // Shard 0 resolves an ephemeral port; siblings then join its reuseport
    // group on the concrete port.  Anything bound before a failure is closed
    // when the object is destroyed.
    if (!shards_[0]->server->start(error)) return false;
    port_ = shards_[0]->server->port();
    for (std::size_t i = 1; i < shards_.size(); ++i) {
        auto& server = *shards_[i]->server;
        // Rebind the sibling's config onto the learned port.
        if (!server.bind_port(port_, error)) return false;
    }
    return true;
}

void ShardedServer::run() {
    {
        const std::lock_guard<std::mutex> lock(shards_mutex_);
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            auto& shard = *shards_[i];
            shard.thread = std::thread([&shard] { shard.server->run(); });
            if (config_.pin_threads && shards_.size() > 1)
                pin_to_cpu(shard.thread, i);
        }
    }
    // The caller's thread becomes the shard supervisor; it returns once
    // every shard has drained.
    supervise();
}

void ShardedServer::supervise() {
    bool drain_sent = false;
    for (;;) {
        std::this_thread::sleep_for(config_.heartbeat_interval);
        const bool draining = draining_.load(std::memory_order_acquire);
        if (draining && !drain_sent) {
            // The signal handler only stored a flag (taking locks there is
            // not async-signal-safe once respawns can swap servers); the
            // actual fan-out happens here, one interval later at most.
            const std::lock_guard<std::mutex> lock(shards_mutex_);
            for (auto& shard : shards_) shard->server->request_drain();
            drain_sent = true;
        }
        bool all_done = true;
        std::vector<std::size_t> dead;
        {
            const std::lock_guard<std::mutex> lock(shards_mutex_);
            for (std::size_t i = 0; i < shards_.size(); ++i) {
                auto& shard = *shards_[i];
                // A shard is down when its run() returned (its exit path
                // already closed every connection and released every budget
                // slot) or when a previous respawn failed to rebind.
                const bool down =
                    shard.server->finished() || !shard.thread.joinable();
                if (!down) all_done = false;
                else if (!draining) dead.push_back(i);
            }
        }
        if (draining) {
            if (all_done) break;
            continue;
        }
        for (const auto i : dead) {
            // admin_mutex_ before shards_mutex_, matching the admin
            // provider, because the respawn replays the admin log.
            const std::lock_guard<std::mutex> admin_lock(admin_mutex_);
            const std::lock_guard<std::mutex> shards_lock(shards_mutex_);
            respawn_shard_locked(i);
        }
    }
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    for (auto& shard : shards_)
        if (shard->thread.joinable()) shard->thread.join();
}

void ShardedServer::respawn_shard_locked(std::size_t index) {
    auto& shard = *shards_[index];
    if (shard.thread.joinable()) shard.thread.join();
    // Tear down in dependency order: the server first (detaching its
    // completion channel so in-flight completions land harmlessly), then
    // the service (drains its dispatcher and writes the .shardK cache
    // snapshot the replacement reloads).
    shard.server.reset();
    if (shard.service) shard.service->stop();
    shard.service.reset();
    build_shard_locked(index);
    // Re-apply every mutating admin op so tenants loaded after boot exist
    // on the replacement shard too (responses are discarded; an op that
    // fails against fresh state — e.g. a retire of a never-loaded model —
    // failed against the fleet originally as well).
    for (const auto& req : admin_log_) {
        const std::vector<serve::ExplanationService*> services{shard.service.get()};
        (void)serve::handle_model_admin(req, services);
    }
    std::string error;
    if (!shard.server->bind_port(port_, &error)) {
        // Shard stays threadless; the next supervisor pass retries.
        std::fprintf(stderr, "shard %zu respawn: bind failed: %s\n", index,
                     error.c_str());
        return;
    }
    shard.thread = std::thread([&shard] { shard.server->run(); });
    if (config_.pin_threads && shards_.size() > 1)
        pin_to_cpu(shard.thread, index);
    shard_respawns_.inc();
    // A drain requested mid-respawn must reach the replacement too.
    if (draining_.load(std::memory_order_acquire)) shard.server->request_drain();
}

void ShardedServer::request_drain() noexcept {
    draining_.store(true, std::memory_order_release);
}

void ShardedServer::stop_services() {
    if (services_stopped_.exchange(true)) return;
    for (auto& shard : shards_) {
        if (shard->thread.joinable()) {
            // run() was abandoned mid-serve (exception on the caller's
            // side); drain so the joins below cannot deadlock.
            shard->server->request_drain();
            shard->thread.join();
        }
        shard->service->stop();
    }
}

std::uint16_t ShardedServer::port() const noexcept {
    return shards_[0]->server->port();
}

serve::ServiceStats ShardedServer::stats() const {
    std::vector<serve::ServiceStats> shards;
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    for (const auto& shard : shards_) shards.push_back(shard->server->stats());
    auto fleet = serve::merge_stats(shards);
    fleet.net_shard_respawns = shard_respawns_.value();
    fleet.derive();  // mirrors the respawn count into errors_by_reason
    return fleet;
}

}  // namespace xnfv::net
