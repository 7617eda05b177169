#include "serve/registry.hpp"

#include <cstdio>
#include <exception>
#include <sstream>
#include <utility>

#include "core/flat_tree_shap.hpp"
#include "mlcore/serialize.hpp"
#include "serve/explainers.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"

namespace xnfv::serve {

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;

namespace {

void set_why(std::string* why, std::string message) {
    if (why != nullptr) *why = std::move(message);
}

}  // namespace

std::uint64_t fingerprint_model(const ml::Model& model) {
    try {
        std::ostringstream os;
        ml::save_model(model, os);
        return hash_string(os.str());
    } catch (const std::exception&) {
        return fnv1a_u64(model.num_features(), hash_string(model.name()));
    }
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buf;
}

bool ModelEntry::breaker_admit(const BreakerConfig& cfg,
                               std::chrono::steady_clock::time_point now) {
    if (cfg.error_threshold <= 0.0 || cfg.window == 0) return true;
    std::lock_guard lock(breaker_mutex_);
    switch (breaker_.state) {
        case BreakerState::closed:
            return true;
        case BreakerState::open:
            if (now - breaker_.opened_at >= cfg.cooldown) {
                // Cooldown over: this request becomes the half-open probe.
                breaker_.state = BreakerState::half_open;
                breaker_.probe_inflight = true;
                return true;
            }
            breaker_rejected.inc();
            return false;
        case BreakerState::half_open:
            if (!breaker_.probe_inflight) {
                breaker_.probe_inflight = true;
                return true;
            }
            breaker_rejected.inc();
            return false;
    }
    return true;  // unreachable
}

void ModelEntry::breaker_record(const BreakerConfig& cfg, bool ok) {
    if (cfg.error_threshold <= 0.0 || cfg.window == 0) return;
    std::lock_guard lock(breaker_mutex_);
    if (breaker_.state == BreakerState::half_open) {
        // The probe's outcome decides alone; the old window is history.
        breaker_.probe_inflight = false;
        if (ok) {
            breaker_.state = BreakerState::closed;
            breaker_.ring.clear();
            breaker_.head = breaker_.filled = breaker_.errors = 0;
        } else {
            breaker_.state = BreakerState::open;
            breaker_.opened_at = std::chrono::steady_clock::now();
            breaker_opens.inc();
        }
        return;
    }
    if (breaker_.state == BreakerState::open) return;  // straggler from before
    if (breaker_.ring.size() != cfg.window) {
        // First outcome, or the window was reconfigured: start fresh.
        breaker_.ring.assign(cfg.window, 0);
        breaker_.head = breaker_.filled = breaker_.errors = 0;
    }
    breaker_.errors -= breaker_.ring[breaker_.head];
    breaker_.ring[breaker_.head] = ok ? 0 : 1;
    breaker_.errors += breaker_.ring[breaker_.head];
    breaker_.head = (breaker_.head + 1) % cfg.window;
    if (breaker_.filled < cfg.window) ++breaker_.filled;
    if (breaker_.filled == cfg.window &&
        static_cast<double>(breaker_.errors) >=
            cfg.error_threshold * static_cast<double>(cfg.window)) {
        breaker_.state = BreakerState::open;
        breaker_.opened_at = std::chrono::steady_clock::now();
        breaker_opens.inc();
    }
}

void ModelEntry::breaker_abandon(const BreakerConfig& cfg) {
    if (cfg.error_threshold <= 0.0 || cfg.window == 0) return;
    std::lock_guard lock(breaker_mutex_);
    if (breaker_.state == BreakerState::half_open) breaker_.probe_inflight = false;
}

int ModelEntry::breaker_state() const {
    std::lock_guard lock(breaker_mutex_);
    return breaker_.state;
}

ModelRegistry::ModelRegistry(RegistryConfig config,
                             const xai::BackgroundData* background)
    : config_(std::move(config)), background_(background) {}

std::shared_ptr<const ModelSnapshot> ModelRegistry::make_snapshot(
    std::shared_ptr<const ml::Model> model, std::uint64_t version) const {
    auto snap = std::make_shared<ModelSnapshot>();
    snap->fingerprint = fingerprint_model(*model);
    snap->version = version;
    // Router stamp: classify once, resolve "auto" once, and prebuild the
    // flat TreeSHAP state for tree ensembles.  Built from the *real* model
    // (pre-wrap) so fast-path attributions are fault-invariant, like cache
    // keys.  A builder rejection (unfitted ensemble) must not fail the
    // load: the snapshot just serves without the fast path and the
    // per-request explainer reports the error.
    snap->kind = classify_model(*model);
    snap->auto_method = route_explainer(kAutoMethod, snap->kind).method;
    try {
        snap->flat_shap = xai::FlatTreeShap::build(*model);
    } catch (const std::exception&) {
        snap->flat_shap = nullptr;
    }
    snap->serving = model;
    if (config_.fault_injector &&
        config_.fault_injector->config()
                .rate[static_cast<std::size_t>(FaultPoint::predict_throw)] > 0.0) {
        snap->serving =
            std::make_shared<FaultInjectingModel>(model, config_.fault_injector);
    }
    snap->model = std::move(model);
    return snap;
}

std::shared_ptr<ModelEntry> ModelRegistry::resolve(const std::string& name) const {
    std::lock_guard lock(mutex_);
    const std::string& key = name.empty() ? default_name_ : name;
    const auto it = by_name_.find(key);
    return it == by_name_.end() ? nullptr : it->second;
}

ServeError ModelRegistry::load(const std::string& name,
                               std::shared_ptr<const ml::Model> model,
                               std::size_t weight, std::size_t quota,
                               std::string* why) {
    if (name.empty()) {
        set_why(why, "model name must be non-empty");
        return ServeError::bad_request;
    }
    if (!model) {
        set_why(why, "model must be non-null");
        return ServeError::bad_request;
    }
    if (model->num_features() != background_->num_features()) {
        set_why(why, "model '" + name + "' expects " +
                         std::to_string(model->num_features()) +
                         " features, background has " +
                         std::to_string(background_->num_features()));
        return ServeError::bad_request;
    }
    // Build the snapshot outside the registry lock (it hashes the model).
    auto snap = make_snapshot(std::move(model), 0);
    std::lock_guard lock(mutex_);
    if (by_name_.count(name) > 0) {
        set_why(why, "model '" + name + "' is already registered");
        return ServeError::bad_request;
    }
    auto entry = std::make_shared<ModelEntry>(name, next_class_++, config_.cache_capacity,
                                              kCacheShards);
    entry->weight.store(std::max<std::size_t>(1, weight), std::memory_order_relaxed);
    entry->quota.store(quota, std::memory_order_relaxed);
    entry->publish(std::move(snap));
    by_name_.emplace(name, entry);
    order_.push_back(std::move(entry));
    if (default_name_.empty()) default_name_ = name;
    return ServeError::none;
}

ServeError ModelRegistry::swap(const std::string& name,
                               std::shared_ptr<const ml::Model> model,
                               std::string* why) {
    if (!model) {
        set_why(why, "model must be non-null");
        return ServeError::bad_request;
    }
    if (model->num_features() != background_->num_features()) {
        set_why(why, "model '" + name + "' expects " +
                         std::to_string(model->num_features()) +
                         " features, background has " +
                         std::to_string(background_->num_features()));
        return ServeError::bad_request;
    }
    std::shared_ptr<ModelEntry> entry = resolve(name);
    if (!entry) {
        set_why(why, "unknown model '" + name + "'");
        return ServeError::unknown_model;
    }
    // Retrain -> publish: the complete new snapshot (fingerprint, base
    // value, fault wrap) is built first, then installed with one pointer
    // store.  Requests admitted before this line keep the old snapshot.
    auto snap = make_snapshot(std::move(model), entry->current()->version + 1);
    entry->publish(std::move(snap));
    entry->swaps.inc();
    return ServeError::none;
}

ServeError ModelRegistry::retire(const std::string& name, std::string* why) {
    std::lock_guard lock(mutex_);
    const std::string& key = name.empty() ? default_name_ : name;
    const auto it = by_name_.find(key);
    if (it == by_name_.end()) {
        set_why(why, "unknown model '" + name + "'");
        return ServeError::unknown_model;
    }
    if (key == default_name_) {
        set_why(why, "cannot retire the default model '" + key + "'");
        return ServeError::bad_request;
    }
    for (auto order_it = order_.begin(); order_it != order_.end(); ++order_it) {
        if ((*order_it)->name == key) {
            order_.erase(order_it);
            break;
        }
    }
    by_name_.erase(it);
    return ServeError::none;
}

std::vector<std::shared_ptr<ModelEntry>> ModelRegistry::entries() const {
    std::lock_guard lock(mutex_);
    return order_;
}

std::shared_ptr<ModelEntry> ModelRegistry::default_entry() const {
    return resolve("");
}

std::string ModelRegistry::default_name() const {
    std::lock_guard lock(mutex_);
    return default_name_;
}

std::size_t ModelRegistry::size() const {
    std::lock_guard lock(mutex_);
    return order_.size();
}

std::size_t ModelRegistry::classes_created() const {
    std::lock_guard lock(mutex_);
    return next_class_;
}

std::string handle_model_admin(const JsonValue& request,
                               const std::vector<ExplanationService*>& services) {
    const auto op = request.get_string("op", "");
    if (services.empty()) return render_error(0, ServeError::internal_error, "no services");

    if (op == "stats_reset") {
        for (ExplanationService* service : services) service->stats_reset();
        JsonWriter w;
        w.field("ok", true);
        w.field("op", "stats_reset");
        return w.finish();
    }

    if (op == "models") {
        const auto stats = services.front()->stats();
        std::string arr = "[";
        for (const auto& m : stats.models) {
            if (arr.size() > 1) arr += ',';
            JsonWriter mw;
            mw.field("name", m.name);
            mw.field("fingerprint", m.fingerprint);
            mw.field("weight", m.weight);
            mw.field("quota", m.quota);
            mw.field("swaps", m.swaps);
            arr += mw.finish();
        }
        arr += ']';
        JsonWriter w;
        w.field("ok", true);
        w.field("op", "models");
        w.field("default", services.front()->registry().default_name());
        w.field_raw("models", arr);
        return w.finish();
    }

    const auto name = request.get_string("name", "");
    if (op == "retire") {
        std::string why;
        for (ExplanationService* service : services) {
            const auto err = service->model_retire(name, &why);
            if (err != ServeError::none) return render_error(0, err, why);
        }
        JsonWriter w;
        w.field("ok", true);
        w.field("op", "retire");
        w.field("name", name);
        return w.finish();
    }

    if (op != "load" && op != "swap")
        return render_error(0, ServeError::bad_request, "unknown admin op '" + op + "'");

    const auto path = request.get_string("model", "");
    if (path.empty())
        return render_error(0, ServeError::bad_request,
                           "'" + op + "' needs a \"model\" file path");
    const auto weight = request.get_integer("weight", std::size_t{1});
    const auto quota = request.get_integer("quota", std::size_t{0});
    if (op == "load" && !(weight && quota))
        return render_error(0, ServeError::bad_request,
                            integer_error(weight ? "quota" : "weight"));
    std::shared_ptr<const ml::Model> model;
    try {
        model = ml::load_model_file(path);
    } catch (const std::exception& e) {
        return render_error(0, ServeError::bad_request,
                           "cannot load model '" + path + "': " + e.what());
    }

    std::string why;
    if (op == "load") {
        for (ExplanationService* service : services) {
            const auto err = service->model_load(name, model, *weight, *quota, &why);
            if (err != ServeError::none) return render_error(0, err, why);
        }
        JsonWriter w;
        w.field("ok", true);
        w.field("op", "load");
        w.field("name", name);
        w.field("fingerprint", fingerprint_hex(fingerprint_model(*model)));
        w.field("num_features", static_cast<std::uint64_t>(model->num_features()));
        w.field("weight", static_cast<std::uint64_t>(std::max<std::size_t>(1, *weight)));
        w.field("quota", static_cast<std::uint64_t>(*quota));
        return w.finish();
    }

    for (ExplanationService* service : services) {
        const auto err = service->model_swap(name, model, &why);
        if (err != ServeError::none) return render_error(0, err, why);
    }
    JsonWriter w;
    w.field("ok", true);
    w.field("op", "swap");
    w.field("name", name);
    w.field("fingerprint", fingerprint_hex(fingerprint_model(*model)));
    return w.finish();
}

}  // namespace xnfv::serve
