#include "net/sharded_server.hpp"

#include <algorithm>
#include <utility>

#include "serve/ndjson.hpp"
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
    : budget_(std::make_shared<ConnectionBudget>(config.net.max_connections)) {
    const std::size_t n = resolve_shards(config.shards);
    // Partition the cache: the fleet's total capacity stays what was asked
    // for, spread over per-shard slices (each internally hash-sharded), and
    // each slice carries its own drift epoch.
    service_config.cache_capacity =
        std::max<std::size_t>(16, service_config.cache_capacity / n);
    ServerConfig net = std::move(config.net);
    net.reuseport = n > 1;
    net.budget = budget_;

    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto& shard = *shards_.emplace_back(std::make_unique<Shard>());
        // Every model's snapshot file gets the shard suffix (the service
        // composes `<base>[.<fingerprint>].shardK`), keeping shard slices
        // distinct per model without rewriting the base path.
        serve::ServiceConfig cfg = service_config;
        if (!cfg.snapshot_path.empty() && n > 1)
            cfg.snapshot_suffix = ".shard" + std::to_string(i);
        shard.service =
            std::make_unique<serve::ExplanationService>(model, background, cfg);
        shard.server = std::make_unique<ExplanationServer>(*shard.service, net);
        shard.server->set_stats_provider([this] { return stats(); });
        // An admin op (load/swap/retire) or a stats_reset reaching any shard
        // must apply to every shard's service, serialized so two concurrent
        // ops cannot interleave half-applied fleets.
        shard.server->set_admin_provider([this](const serve::JsonValue& req) {
            const std::lock_guard<std::mutex> lock(admin_mutex_);
            if (req.get_string("op", "") == "stats_reset") budget_->reset_peak();
            std::vector<serve::ExplanationService*> services;
            services.reserve(shards_.size());
            for (const auto& s : shards_) services.push_back(s->service.get());
            return serve::handle_model_admin(req, services);
        });
    }
}

ShardedServer::~ShardedServer() { stop_services(); }

void ShardedServer::set_row_lookup(RowLookup lookup) {
    for (auto& shard : shards_) shard->server->set_row_lookup(lookup);
}

bool ShardedServer::start(std::string* error) {
    // Shard 0 resolves an ephemeral port; siblings then join its reuseport
    // group on the concrete port.  Anything bound before a failure is closed
    // when the object is destroyed.
    if (!shards_[0]->server->start(error)) return false;
    const auto port = shards_[0]->server->port();
    for (std::size_t i = 1; i < shards_.size(); ++i)
        if (!shards_[i]->server->bind_port(port, error)) return false;
    return true;
}

void ShardedServer::run() {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        auto& shard = *shards_[i];
        shard.thread = std::thread([&shard] { shard.server->run(); });
        if (shards_.size() > 1) pin_to_cpu(shard.thread, i);
    }
    for (auto& shard : shards_) shard->thread.join();
}

void ShardedServer::request_drain() noexcept {
    for (auto& shard : shards_) shard->server->request_drain();
}

void ShardedServer::stop_services() {
    if (services_stopped_.exchange(true)) return;
    for (auto& shard : shards_) {
        if (shard->thread.joinable()) {
            // run() left before its joins (a later shard's thread failed
            // to start); drain so the joins below cannot block forever.
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
    shards.reserve(shards_.size());
    for (const auto& shard : shards_) shards.push_back(shard->server->stats());
    return serve::merge_stats(shards);
}

}  // namespace xnfv::net
