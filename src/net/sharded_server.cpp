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
                             ServerConfig config)
    : config_(std::move(config)), budget_(config_.max_connections) {
    const std::size_t n = resolve_shards(config_.shards);
    // Partition the cache: the fleet's total capacity stays what was asked
    // for, spread over per-shard slices (each internally hash-sharded), and
    // each slice carries its own drift epoch.
    service_config.cache_capacity =
        std::max<std::size_t>(16, service_config.cache_capacity / n);

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
        shard.server.reset(new ExplanationServer(*this, *shard.service));
    }
}

ShardedServer::~ShardedServer() { stop_services(); }

bool ShardedServer::start(std::string* error) {
    // Shard 0 resolves an ephemeral port; siblings then join its reuseport
    // group on the concrete port.  Anything bound before a failure is closed
    // when the object is destroyed.
    std::uint16_t port = config_.port;
    for (auto& shard : shards_) {
        if (!shard->server->start(port, error)) return false;
        port = shard->server->port();
    }
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
    for (const auto& shard : shards_) shards.push_back(shard->service->stats());
    auto s = serve::merge_stats(shards);
    s.net_enabled = true;
    s.net_shards = shards_.size();
    s.connections_active = budget_.active.load(std::memory_order_relaxed);
    s.connections_active_max = budget_.peak.load(std::memory_order_relaxed);
    if (config_.chaos) s.net_faults_injected = config_.chaos->total_fired();
    s.derive();  // mirrors the net counts into errors_by_reason
    return s;
}

std::string ShardedServer::admin(const serve::JsonValue& request) {
    const std::lock_guard<std::mutex> lock(admin_mutex_);
    if (request.get_string("op", "") == "stats_reset") budget_.reset_peak();
    std::vector<serve::ExplanationService*> services;
    services.reserve(shards_.size());
    for (const auto& shard : shards_) services.push_back(shard->service.get());
    return serve::handle_model_admin(request, services);
}

}  // namespace xnfv::net
