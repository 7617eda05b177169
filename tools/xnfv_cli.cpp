// xnfv command-line interface.
//
// End-to-end workflow without writing C++:
//
//   xnfv_cli generate --samples 5000 --out data.csv            # simulate NFV PoP
//   xnfv_cli train    --data data.csv --model rf --out m.xnfv  # fit a model
//   xnfv_cli evaluate --model m.xnfv --data data.csv           # metrics
//   xnfv_cli explain  --model m.xnfv --data data.csv --row 3   # incident report
//   xnfv_cli global   --model m.xnfv --data data.csv           # fleet ranking
//   xnfv_cli serve    --model m.xnfv --data data.csv           # ND-JSON service
//
// Every command accepts --seed for reproducibility; see `xnfv_cli help`.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "core/kernel_shap.hpp"
#include "core/parallel.hpp"
#include "core/lime.hpp"
#include "core/occlusion.hpp"
#include "core/report.hpp"
#include "core/sampling_shapley.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/linear.hpp"
#include "mlcore/metrics.hpp"
#include "mlcore/mlp.hpp"
#include "mlcore/preprocess.hpp"
#include "mlcore/serialize.hpp"
#include "mlcore/tree.hpp"
#include "net/chaos.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/sharded_server.hpp"
#include "scenario/driver.hpp"
#include "serve/explainers.hpp"
#include "serve/ndjson.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace nfv = xnfv::nfv;
namespace serve = xnfv::serve;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

namespace {

/// Minimal --key value argument map; flags without a value store "true".
class Args {
public:
    Args(int argc, char** argv, int first) {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw std::runtime_error("unexpected argument '" + key + "'");
            key = key.substr(2);
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values_[key] = argv[++i];
            } else {
                values_[key] = "true";
            }
        }
    }

    [[nodiscard]] std::string get(const std::string& key,
                                  const std::string& fallback) const {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }
    [[nodiscard]] std::string require(const std::string& key) const {
        const auto it = values_.find(key);
        if (it == values_.end()) throw std::runtime_error("missing --" + key);
        return it->second;
    }
    [[nodiscard]] long long get_int(const std::string& key, long long fallback) const {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : std::stoll(it->second);
    }
    [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }

private:
    std::map<std::string, std::string> values_;
};

int usage() {
    // The method lists come from the shared explainer registry
    // (serve/explainers.hpp), so --help can never drift from what the
    // service and the ND-JSON protocol actually accept.  "auto" routes to
    // the model's exact fast path: flat TreeSHAP for tree ensembles,
    // analytic integrated gradients for MLPs, kernel SHAP otherwise.
    const std::string methods = xnfv::serve::explainer_list_with_auto();
    std::printf(
        "xnfv — explainable AI for NFV (see README.md)\n\n"
        "usage: xnfv_cli <command> [--key value ...]\n\n"
        "commands:\n"
        "  generate  --samples N [--out data.csv] [--scenario mixed|web_pop|\n"
        "            enterprise_edge|video_edge|iot_aggregation|dense_colocation]\n"
        "            [--label sla|latency] [--features full|config] [--seed S]\n"
        "  train     --data data.csv --out model.xnfv [--model rf|gbt|tree|linear|\n"
        "            logistic|mlp] [--task clf|reg] [--seed S]\n"
        "  evaluate  --model model.xnfv --data data.csv\n"
        "  explain   --model model.xnfv --data data.csv --row K\n"
        "            [--method %s]\n"
        "            [--ig-steps N]   integrated-gradients path resolution\n"
        "            [--counterfactual]\n"
        "  global    --model model.xnfv --data data.csv [--rows N]\n"
        "            [--method %s]\n"
        "  serve     --model model.xnfv --data data.csv [--method M] [--seed S]\n"
        "            [--ig-steps N]   integrated-gradients path resolution\n"
        "            [--models manifest.ndjson]   multi-model registry: one\n"
        "            JSON object per line, {\"name\":\"a\",\"model\":\"a.xnfv\",\n"
        "            \"weight\":2,\"quota\":64,\"default\":true}; the flagged\n"
        "            (else first) entry is the default model and --model is\n"
        "            then optional.  weight = DWRR share, quota = per-model\n"
        "            admission cap (0 = uncapped)\n"
        "            [--batch N] [--queue N] [--cache N] [--quantum Q]\n"
        "            --batch caps how many queued requests one batch takes;\n"
        "            a batch never waits for more to arrive\n"
        "            [--degrade N] [--degrade-scale S]   overload ladder: at\n"
        "            admission depth N serve reduced budget, at 2N occlusion\n"
        "            [--snapshot FILE] [--snapshot-interval-ms M]   crash-safe\n"
        "            cache persistence (restored on startup, written on stop,\n"
        "            and every M ms from a snapshot thread when M > 0)\n"
        "            [--fault-seed S] [--fault-predict-rate R]\n"
        "            [--fault-stall-rate R]   deterministic chaos injection\n"
        "            for fault-tolerance tests\n"
        "            [--drift-window N]   drift-triggered cache invalidation\n"
        "            [--interaction-points N]   background rows sampled per\n"
        "            Friedman-H2 pair for \"interactions\" requests\n"
        "            [--listen PORT] [--host A] [--max-conns N]\n"
        "            [--idle-timeout-ms M] [--max-output BYTES]   serve the\n"
        "            same ND-JSON protocol over TCP (PORT 0 = ephemeral;\n"
        "            first line printed is `listening on HOST:PORT`;\n"
        "            SIGTERM drains gracefully)\n"
        "            [--shards N]   thread-per-core serving: N SO_REUSEPORT\n"
        "            event-loop+service shards (0 = hardware concurrency;\n"
        "            --max-conns stays a fleet-wide limit and responses are\n"
        "            byte-identical at any shard count)\n"
        "            [--dedup-window N]   per-session (stdin, or each\n"
        "            connection) idempotent-retry window: a re-sent \"rid\"\n"
        "            is answered from the recorded response instead of\n"
        "            recomputed (0 disables)\n"
        "            [--breaker-threshold R] [--breaker-window N]\n"
        "            [--breaker-cooldown-ms M]   per-tenant circuit breaker:\n"
        "            a model whose compute error rate over a full window\n"
        "            reaches R is rejected with circuit_open until a\n"
        "            half-open probe succeeds (R 0 disables)\n"
        "            [--net-fault-seed S] [--net-fault-partial-write-rate R]\n"
        "            [--net-fault-torn-read-rate R] [--net-fault-eintr-rate R]\n"
        "            [--net-fault-stall-rate R] [--net-fault-rst-rate R]\n"
        "            [--net-fault-max-rst N]\n"
        "            deterministic socket-layer chaos (seeded; byte-stream\n"
        "            shaping faults never change response bytes)\n"
        "            ND-JSON requests on stdin (or the socket), one per line:\n"
        "              {\"op\":\"explain\",\"row\":3}\n"
        "              {\"op\":\"explain\",\"features\":[...],\"method\":\"lime\"}\n"
        "              {\"op\":\"explain\",\"row\":3,\"model\":\"canary\"}\n"
        "              {\"op\":\"explain\",\"row\":3,\"interactions\":2}   adds\n"
        "              the top-K Friedman-H2 interaction pairs to the response\n"
        "              {\"op\":\"stats\"}   {\"op\":\"stats_reset\"}   {\"op\":\"quit\"}\n"
        "            model admin / selection ops (applied to every shard):\n"
        "              {\"op\":\"load\",\"name\":\"b\",\"model\":\"b.xnfv\",\n"
        "               \"weight\":1,\"quota\":0}\n"
        "              {\"op\":\"swap\",\"name\":\"b\",\"model\":\"b2.xnfv\"}\n"
        "              {\"op\":\"retire\",\"name\":\"b\"}   {\"op\":\"models\"}\n"
        "              {\"op\":\"use\",\"model\":\"b\"}   set this session's\n"
        "              default model for later explain lines\n"
        "            answers come back in request order, each as soon as\n"
        "            it and every earlier answer are ready; stdin keeps at\n"
        "            most 64 requests outstanding, and stdin and TCP answer\n"
        "            every op alike (stdin stats has no net_* keys)\n"
        "  netprobe  --port P [--host A] [--row K | --features \"v1,v2,...\"]\n"
        "            [--method M] [--model-name NAME] [--seed S]\n"
        "            [--deadline-ms D] [--count N] [--stats] [--quit]\n"
        "            [--timeout-ms T] [--connect-timeout-ms T] [--line 'JSON']\n"
        "            probe a running `serve --listen` instance and print the\n"
        "            response lines; --line sends the given raw ND-JSON line\n"
        "            instead of a built explain request (admin ops from the\n"
        "            shell; must not be a quit frame — use --quit)\n"
        "  scenario  --port P [--host A] [--scenario NAME] [--seed S]\n"
        "            [--deployments N] [--connections N] [--epochs N]\n"
        "            [--window W] [--method M] [--interactions K]\n"
        "            [--flash-mult X] [--slo-us U] [--timeout-ms T]\n"
        "            closed-loop NOC fleet driver against a running\n"
        "            `serve --listen` instance: simulates a fleet live\n"
        "            (baseline / flash_crowd / remediated phases), replays\n"
        "            every chain-epoch's telemetry as concurrent explain\n"
        "            clients, applies the explanation-chosen remediation\n"
        "            between phases, and prints a JSON SLO report; exits 0\n"
        "            when the SLO verdict holds, 2 when missed, 3 on\n"
        "            transport failure\n"
        "  loadgen   --port P [--host A] [--conns N] [--requests N] [--rows N]\n"
        "            [--window W] [--method M] [--seed S] [--max-retries K]\n"
        "            [--response-timeout-ms T] [--connect-timeout-ms T]\n"
        "            [--backoff-ms B] [--retry-seed S] [--timeout-ms T]\n"
        "            retry-storm load driver: idempotent rid-tagged requests,\n"
        "            deterministic backoff, reconnect on reset; prints a JSON\n"
        "            summary and exits 0 iff every request was answered\n"
        "  help\n\n"
        "common flags:\n"
        "  --seed S     deterministic RNG seed (per command defaults)\n"
        "  --threads N  worker threads for explanation loops\n"
        "               (default: hardware concurrency; results are identical\n"
        "               for any N)\n",
        methods.c_str(), methods.c_str());
    return 2;
}

ml::Task task_from(const Args& args, const std::string& fallback) {
    const auto t = args.get("task", fallback);
    if (t == "clf" || t == "sla") return ml::Task::binary_classification;
    if (t == "reg" || t == "latency") return ml::Task::regression;
    throw std::runtime_error("unknown task '" + t + "'");
}

int cmd_generate(const Args& args) {
    ml::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 2020)));
    wl::BuildOptions opt;
    opt.num_samples = static_cast<std::size_t>(args.get_int("samples", 5000));
    opt.label = args.get("label", "sla") == "latency" ? nfv::LabelKind::latency_ms
                                                      : nfv::LabelKind::sla_violation;
    opt.feature_set = args.get("features", "full") == "config"
                          ? nfv::FeatureSet::config_only
                          : nfv::FeatureSet::full_telemetry;

    const auto scenario = args.get("scenario", "mixed");
    std::vector<wl::ScenarioSpec> specs;
    if (scenario == "mixed") {
        specs = wl::standard_scenarios();
    } else {
        for (const auto& s : wl::standard_scenarios())
            if (s.name == scenario) specs.push_back(s);
        if (specs.empty()) throw std::runtime_error("unknown scenario '" + scenario + "'");
    }

    const auto built = wl::build_mixed_dataset(specs, opt, rng);
    const auto out = args.get("out", "data.csv");
    ml::write_csv_file(built.data, out);
    std::printf("wrote %zu rows x %zu features to %s (positive rate %.3f)\n",
                built.data.size(), built.data.num_features(), out.c_str(),
                built.data.positive_rate());
    return 0;
}

int cmd_train(const Args& args) {
    ml::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));
    const auto kind = args.get("model", "rf");
    const auto data = ml::read_csv_file(args.require("data"),
                                        task_from(args, "clf"));
    std::unique_ptr<ml::Model> model;
    if (kind == "rf") {
        auto m = std::make_unique<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = 100});
        m->fit(data, rng);
        model = std::move(m);
    } else if (kind == "gbt") {
        auto m = std::make_unique<ml::GradientBoostedTrees>(
            ml::GradientBoostedTrees::Config{.num_rounds = 150});
        m->fit(data, rng);
        model = std::move(m);
    } else if (kind == "tree") {
        auto m = std::make_unique<ml::DecisionTree>(
            ml::DecisionTree::Config{.max_depth = 8});
        m->fit(data);
        model = std::move(m);
    } else if (kind == "linear") {
        auto m = std::make_unique<ml::LinearRegression>();
        m->fit(data);
        model = std::move(m);
    } else if (kind == "logistic") {
        auto m = std::make_unique<ml::LogisticRegression>();
        m->fit(data);
        model = std::move(m);
    } else if (kind == "mlp") {
        // Note: the CLI MLP trains on raw features; standardize upstream or
        // prefer tree models for heterogeneous telemetry scales.
        auto m = std::make_unique<ml::Mlp>(
            ml::Mlp::Config{.hidden_layers = {32, 32}, .epochs = 60});
        m->fit(data, rng);
        model = std::move(m);
    } else {
        throw std::runtime_error("unknown model '" + kind + "'");
    }
    const auto out = args.get("out", "model.xnfv");
    ml::save_model_file(*model, out);
    std::printf("trained %s on %zu rows; saved to %s\n", model->name().c_str(),
                data.size(), out.c_str());
    return 0;
}

// Explainer construction is shared with the serving subsystem so that the
// one-shot path here and `serve` produce byte-identical explainers.
using serve::make_explainer;

int cmd_evaluate(const Args& args) {
    const auto model = ml::load_model_file(args.require("model"));
    const auto data = ml::read_csv_file(args.require("data"), task_from(args, "clf"));
    const auto preds = model->predict_batch(data.x);
    if (data.task == ml::Task::binary_classification) {
        const auto cm = ml::confusion_matrix(data.y, preds);
        std::printf("%s on %zu rows:\n  accuracy %.4f  f1 %.4f  auc %.4f  logloss %.4f\n",
                    model->name().c_str(), data.size(), cm.accuracy(), cm.f1(),
                    ml::roc_auc(data.y, preds), ml::log_loss(data.y, preds));
    } else {
        std::printf("%s on %zu rows:\n  mae %.4f  rmse %.4f  r2 %.4f\n",
                    model->name().c_str(), data.size(), ml::mae(data.y, preds),
                    ml::rmse(data.y, preds), ml::r2_score(data.y, preds));
    }
    return 0;
}

/// Resolves the --method flag against the loaded model exactly like the
/// serving path does: "auto" routes to the model kind's exact fast path,
/// and a forced exact method the kind cannot run fails with the router's
/// message instead of a deeper explainer error.  Shared by explain/global
/// so one-shot output stays byte-identical to a served response.
std::string resolve_method(const Args& args, const ml::Model& model) {
    const auto route = serve::route_explainer(args.get("method", "tree_shap"),
                                              serve::classify_model(model));
    if (route.unsupported) throw std::runtime_error(route.why);
    return route.method;
}

serve::ExplainerLimits one_shot_limits(const Args& args) {
    serve::ExplainerLimits limits;
    limits.ig_steps = static_cast<std::size_t>(args.get_int("ig-steps", 50));
    return limits;
}

int cmd_explain(const Args& args) {
    const auto model = ml::load_model_file(args.require("model"));
    const auto data = ml::read_csv_file(args.require("data"), task_from(args, "clf"));
    const auto row = static_cast<std::size_t>(args.get_int("row", 0));
    if (row >= data.size()) throw std::runtime_error("--row out of range");

    ml::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 11)));
    const xai::BackgroundData background(data.x, 128);
    const auto explainer = make_explainer(resolve_method(args, *model), background,
                                          11, 0, one_shot_limits(args));

    xai::ReportOptions options;
    if (args.has("counterfactual")) options.counterfactual = xai::CounterfactualOptions{};
    std::printf("%s", xai::incident_report(*model, *explainer, data.x.row(row),
                                           data.feature_names, background, rng, options)
                          .c_str());
    return 0;
}

int cmd_global(const Args& args) {
    const auto model = ml::load_model_file(args.require("model"));
    const auto data = ml::read_csv_file(args.require("data"), task_from(args, "clf"));
    const auto n = std::min<std::size_t>(
        data.size(), static_cast<std::size_t>(args.get_int("rows", 100)));
    const xai::BackgroundData background(data.x, 128);
    const auto explainer = make_explainer(resolve_method(args, *model), background,
                                          13, 0, one_shot_limits(args));

    std::vector<std::size_t> rows(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;
    const auto g = xai::aggregate_explanations(*explainer, *model,
                                               data.x.take_rows(rows),
                                               data.feature_names);
    std::printf("%s", g.to_string(12).c_str());
    return 0;
}

// The serving wire format (render_response / render_stats) lives in
// serve/ndjson.hpp, shared with the TCP front-end so both transports emit
// byte-identical responses.

/// The SIGTERM/SIGINT target when `serve --listen` is active: the handler
/// may only call the async-signal-safe request_drain().
std::atomic<xnfv::net::ShardedServer*> g_drain_target{nullptr};

extern "C" void serve_signal_handler(int) {
    if (auto* server = g_drain_target.load()) server->request_drain();
}

/// The ND-JSON serving protocol (serve/session.hpp) on stdin/stdout, or —
/// with --listen — over TCP.  Answers come back in request order.
int cmd_serve(const Args& args) {
    const auto data = ml::read_csv_file(args.require("data"), task_from(args, "clf"));

    serve::ServiceConfig cfg;
    cfg.method = args.get("method", "tree_shap");
    cfg.ig_steps = static_cast<std::size_t>(args.get_int("ig-steps", 50));
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
    cfg.queue_depth = static_cast<std::size_t>(args.get_int("queue", 256));
    cfg.max_batch = static_cast<std::size_t>(args.get_int("batch", 16));
    cfg.cache_capacity = static_cast<std::size_t>(args.get_int("cache", 4096));
    cfg.cache_quantum = std::stod(args.get("quantum", "0"));
    cfg.threads = static_cast<std::size_t>(args.get_int("threads", 0));
    cfg.interaction_points =
        static_cast<std::size_t>(args.get_int("interaction-points", 64));

    // Degradation ladder: --degrade N arms the reduced rung at admission
    // depth N and the baseline rung at 2N.
    if (const auto degrade = args.get_int("degrade", 0); degrade > 0) {
        cfg.degradation.reduced_queue_depth = static_cast<std::size_t>(degrade);
        cfg.degradation.baseline_queue_depth = static_cast<std::size_t>(2 * degrade);
    }
    cfg.degradation.reduced_budget_scale = std::stod(args.get("degrade-scale", "0.25"));

    // Drift-triggered cache invalidation (core/drift.hpp): compare every
    // --drift-window full-fidelity explanations against the first window.
    cfg.drift_window = static_cast<std::size_t>(args.get_int("drift-window", 0));

    // Per-tenant circuit breaker: --breaker-threshold arms it (fraction of
    // errors over a full outcome window that trips the model open).
    cfg.breaker.error_threshold = std::stod(args.get("breaker-threshold", "0"));
    cfg.breaker.window = static_cast<std::size_t>(args.get_int("breaker-window", 32));
    cfg.breaker.cooldown =
        std::chrono::milliseconds(args.get_int("breaker-cooldown-ms", 250));

    // Crash-safe cache snapshots.
    cfg.snapshot_path = args.get("snapshot", "");
    cfg.snapshot_interval =
        std::chrono::milliseconds(args.get_int("snapshot-interval-ms", 0));

    // Deterministic chaos: any nonzero rate wires in a seeded injector.
    const double fault_predict = std::stod(args.get("fault-predict-rate", "0"));
    const double fault_stall = std::stod(args.get("fault-stall-rate", "0"));
    if (fault_predict > 0.0 || fault_stall > 0.0) {
        serve::FaultInjector::Config fi;
        fi.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
        const auto point = [](serve::FaultPoint p) { return static_cast<std::size_t>(p); };
        fi.rate[point(serve::FaultPoint::predict_throw)] = fault_predict;
        fi.rate[point(serve::FaultPoint::queue_stall)] = fault_stall;
        cfg.fault_injector = std::make_shared<serve::FaultInjector>(fi);
    }

    // --models: multi-model registry manifest, one JSON object per line
    // ({"name","model"[,"weight","quota","default"]}).  The flagged (else
    // first) entry becomes the default model; the rest are registered as
    // extra models before serving starts.
    std::shared_ptr<const ml::Model> model;
    if (args.has("models")) {
        const auto manifest_path = args.get("models", "");
        std::ifstream manifest_in(manifest_path);
        if (!manifest_in)
            throw std::runtime_error("cannot open --models manifest '" +
                                     manifest_path + "'");
        struct ManifestEntry {
            serve::ModelSpec spec;
            bool is_default = false;
        };
        std::vector<ManifestEntry> manifest;
        std::string mline;
        std::size_t lineno = 0;
        while (std::getline(manifest_in, mline)) {
            ++lineno;
            if (mline.find_first_not_of(" \t\r") == std::string::npos) continue;
            const auto at = manifest_path + ":" + std::to_string(lineno) + ": ";
            serve::JsonValue entry;
            try {
                entry = serve::parse_json(mline);
            } catch (const std::exception& e) {
                throw std::runtime_error(at + e.what());
            }
            ManifestEntry m;
            m.spec.name = entry.get_string("name", "");
            const auto file = entry.get_string("model", "");
            if (m.spec.name.empty() || file.empty())
                throw std::runtime_error(
                    at + "manifest lines need \"name\" and \"model\"");
            const auto weight = entry.get_integer("weight", std::size_t{1});
            const auto quota = entry.get_integer("quota", std::size_t{0});
            if (!(weight && quota))
                throw std::runtime_error(at + serve::integer_error(weight ? "quota" : "weight"));
            m.spec.model = ml::load_model_file(file);
            m.spec.weight = *weight;
            m.spec.quota = *quota;
            const auto* def = entry.find("default");
            m.is_default = def != nullptr &&
                           def->type == serve::JsonValue::Type::boolean &&
                           def->boolean;
            manifest.push_back(std::move(m));
        }
        if (manifest.empty())
            throw std::runtime_error("--models manifest '" + manifest_path +
                                     "' has no entries");
        std::size_t def = 0;
        for (std::size_t i = 0; i < manifest.size(); ++i)
            if (manifest[i].is_default) { def = i; break; }
        model = manifest[def].spec.model;
        cfg.default_model_name = manifest[def].spec.name;
        cfg.default_weight = manifest[def].spec.weight;
        cfg.default_quota = manifest[def].spec.quota;
        for (std::size_t i = 0; i < manifest.size(); ++i)
            if (i != def) cfg.extra_models.push_back(std::move(manifest[i].spec));
    } else {
        model = ml::load_model_file(args.require("model"));
    }

    const auto rows = [&data](std::size_t row, std::vector<double>& features) {
        if (row >= data.size()) return false;
        const auto x = data.x.row(row);
        features.assign(x.begin(), x.end());
        return true;
    };
    const auto dedup_window = static_cast<std::size_t>(args.get_int("dedup-window", 1024));

    // --listen: serve the same protocol over TCP instead of stdin/stdout,
    // thread-per-core sharded (--shards N, 0 = hardware concurrency).  The
    // sharded server owns one service per shard, so the stdin service below
    // is only built for the stdin path.
    if (args.has("listen")) {
        xnfv::net::ServerConfig ncfg;
        ncfg.host = args.get("host", "127.0.0.1");
        ncfg.port = static_cast<std::uint16_t>(args.get_int("listen", 0));
        ncfg.shards = static_cast<std::size_t>(args.get_int("shards", 0));
        ncfg.max_connections = static_cast<std::size_t>(args.get_int("max-conns", 256));
        ncfg.idle_timeout = std::chrono::milliseconds(args.get_int("idle-timeout-ms", 0));
        ncfg.max_output_bytes =
            static_cast<std::size_t>(args.get_int("max-output", 8 << 20));
        ncfg.dedup_window = dedup_window;

        // Network-layer chaos: any nonzero rate arms a seeded socket fault
        // injector shared by every shard (fires are fleet-global counters).
        {
            const auto point = [](xnfv::net::NetFaultPoint p) {
                return static_cast<std::size_t>(p);
            };
            xnfv::net::NetFaultInjector::Config nf;
            nf.seed = static_cast<std::uint64_t>(args.get_int("net-fault-seed", 1));
            nf.rate[point(xnfv::net::NetFaultPoint::partial_write)] =
                std::stod(args.get("net-fault-partial-write-rate", "0"));
            nf.rate[point(xnfv::net::NetFaultPoint::torn_read)] =
                std::stod(args.get("net-fault-torn-read-rate", "0"));
            nf.rate[point(xnfv::net::NetFaultPoint::eintr_storm)] =
                std::stod(args.get("net-fault-eintr-rate", "0"));
            nf.rate[point(xnfv::net::NetFaultPoint::stalled_read)] =
                std::stod(args.get("net-fault-stall-rate", "0"));
            nf.rate[point(xnfv::net::NetFaultPoint::rst_close)] =
                std::stod(args.get("net-fault-rst-rate", "0"));
            nf.max_fires[point(xnfv::net::NetFaultPoint::rst_close)] =
                static_cast<std::uint64_t>(args.get_int("net-fault-max-rst", 0));
            bool armed = false;
            for (const double r : nf.rate) armed = armed || r > 0.0;
            if (armed)
                ncfg.chaos = std::make_shared<xnfv::net::NetFaultInjector>(nf);
        }

        xnfv::net::ShardedServer server(model, xai::BackgroundData(data.x, 128),
                                        cfg, ncfg);
        server.set_row_lookup(rows);
        std::string err;
        if (!server.start(&err)) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 1;
        }
        g_drain_target.store(&server);
        std::signal(SIGTERM, serve_signal_handler);
        std::signal(SIGINT, serve_signal_handler);
        // First stdout line is machine-readable so scripts can discover an
        // ephemeral port (--listen 0); its format is load-bearing.
        std::printf("listening on %s:%u\n", ncfg.host.c_str(),
                    static_cast<unsigned>(server.port()));
        std::printf("shards %zu\n", server.shards());
        std::fflush(stdout);
        server.run();
        g_drain_target.store(nullptr);
        std::signal(SIGTERM, SIG_DFL);
        std::signal(SIGINT, SIG_DFL);
        server.stop_services();
        std::printf("drained\n");
        return 0;
    }

    serve::ExplanationService service(model, xai::BackgroundData(data.x, 128), cfg);
    serve::serve_stream(std::cin, std::cout, service, rows, dedup_window);
    service.stop();
    return 0;
}

/// Closed-loop NOC fleet driver (src/scenario/): simulate a fleet live,
/// replay its telemetry as concurrent explain clients against a running
/// server, remediate from the served explanation, and report per-phase SLOs.
int cmd_scenario(const Args& args) {
    xnfv::scenario::DriverConfig cfg;
    cfg.host = args.get("host", "127.0.0.1");
    cfg.port = static_cast<std::uint16_t>(args.get_int("port", 0));
    if (cfg.port == 0) throw std::runtime_error("missing --port");
    cfg.scenario = args.get("scenario", "enterprise_edge");
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
    cfg.deployments = static_cast<std::size_t>(args.get_int("deployments", 2));
    cfg.connections = static_cast<std::size_t>(args.get_int("connections", 32));
    cfg.epochs_per_phase = static_cast<std::size_t>(args.get_int("epochs", 4));
    cfg.window = static_cast<std::size_t>(args.get_int("window", 4));
    cfg.method = args.get("method", "tree_shap");
    cfg.interactions = static_cast<std::size_t>(args.get_int("interactions", 0));
    cfg.flash_mult = std::stod(args.get("flash-mult", "6"));
    cfg.slo_us = std::stod(args.get("slo-us", "0"));
    cfg.timeout = std::chrono::milliseconds(args.get_int("timeout-ms", 120000));

    const auto report = xnfv::scenario::run_scenario(cfg);
    std::printf("%s\n", report.to_json().c_str());
    std::fflush(stdout);
    if (!report.transport_ok) {
        std::fprintf(stderr, "error: %s\n", report.error.c_str());
        return 3;
    }
    return report.slo_met ? 0 : 2;
}

/// Minimal TCP client for a running `serve --listen` instance: sends a few
/// ND-JSON requests and prints each response line to stdout.  Needs no model
/// or dataset, which makes it the smoke-test probe for the TCP path.
int cmd_netprobe(const Args& args) {
    const auto host = args.get("host", "127.0.0.1");
    const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
    if (port == 0) throw std::runtime_error("missing --port");
    const auto timeout =
        std::chrono::milliseconds(args.get_int("timeout-ms", 10000));
    const auto connect_timeout =
        std::chrono::milliseconds(args.get_int("connect-timeout-ms", 0));

    xnfv::net::Client client;
    std::string err;
    if (!client.connect(host, port, &err, connect_timeout))
        throw std::runtime_error("connect failed: " + err);

    // Build the explain request once; --count repeats it (cache-hit probe).
    // --line overrides it with a caller-supplied raw ND-JSON frame (admin
    // ops), still expected to produce one response per send.
    std::string request;
    if (args.has("line")) {
        request = args.get("line", "");
    } else {
        serve::JsonWriter w;
        w.field("op", "explain");
        if (args.has("features")) {
            // Comma-separated literal features, passed through verbatim.
            w.field_raw("features", "[" + args.get("features", "") + "]");
        } else {
            w.field("row", static_cast<double>(args.get_int("row", 0)));
        }
        if (args.has("method")) w.field("method", args.get("method", ""));
        if (args.has("model-name")) w.field("model", args.get("model-name", ""));
        if (const auto seed = args.get_int("seed", 0); seed > 0)
            w.field("seed", static_cast<std::uint64_t>(seed));
        if (const auto dl = args.get_int("deadline-ms", -1); dl >= 0)
            w.field("deadline_ms", static_cast<double>(dl));
        request = w.finish();
    }

    const auto count = static_cast<std::size_t>(args.get_int("count", 1));
    std::size_t expected = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (!client.send_line(request)) throw std::runtime_error("send failed");
        ++expected;
    }
    if (args.has("stats")) {
        if (!client.send_line(R"({"op":"stats"})"))
            throw std::runtime_error("send failed");
        ++expected;
    }
    if (args.has("quit")) {
        if (!client.send_line(R"({"op":"quit"})"))
            throw std::runtime_error("send failed");
    }

    std::string line;
    for (std::size_t i = 0; i < expected; ++i) {
        if (!client.recv_line(line, timeout))
            throw std::runtime_error("timed out waiting for response " +
                                     std::to_string(i + 1) + "/" +
                                     std::to_string(expected));
        std::printf("%s\n", line.c_str());
    }
    return 0;
}

/// Retry-storm load driver against a running `serve --listen` instance:
/// every request carries an idempotent rid, responses are matched by id,
/// unanswered lines are re-sent with deterministic backoff, and dead
/// connections are re-established — the client-side half of the resilience
/// contract.  Prints a one-line JSON summary for scripts (the CI chaos
/// smoke asserts answered == sent and errors == 0 from it).
int cmd_loadgen(const Args& args) {
    xnfv::net::LoadgenConfig cfg;
    cfg.host = args.get("host", "127.0.0.1");
    cfg.port = static_cast<std::uint16_t>(args.get_int("port", 0));
    if (cfg.port == 0) throw std::runtime_error("missing --port");
    cfg.window = static_cast<std::size_t>(args.get_int("window", 4));
    cfg.timeout = std::chrono::milliseconds(args.get_int("timeout-ms", 60000));
    cfg.max_retries = static_cast<std::size_t>(args.get_int("max-retries", 8));
    cfg.response_timeout =
        std::chrono::milliseconds(args.get_int("response-timeout-ms", 2000));
    cfg.connect_timeout =
        std::chrono::milliseconds(args.get_int("connect-timeout-ms", 2000));
    cfg.backoff_base = std::chrono::milliseconds(args.get_int("backoff-ms", 10));
    cfg.retry_seed = static_cast<std::uint64_t>(args.get_int("retry-seed", 1));

    const auto conns = static_cast<std::size_t>(args.get_int("conns", 8));
    const auto requests = static_cast<std::size_t>(args.get_int("requests", 16));
    const auto rows = static_cast<std::size_t>(args.get_int("rows", 8));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

    std::vector<std::vector<std::string>> scripts(conns);
    for (std::size_t c = 0; c < conns; ++c) {
        scripts[c].reserve(requests);
        for (std::size_t r = 0; r < requests; ++r) {
            xnfv::net::RequestSpec spec;
            spec.id = c * requests + r + 1;  // fleet-unique id == rid
            spec.rid = spec.id;
            spec.row = static_cast<long>(rows == 0 ? 0 : (c + r) % rows);
            spec.seed = seed;
            if (args.has("method")) spec.method = args.get("method", "");
            scripts[c].push_back(xnfv::net::render_request_line(spec));
        }
    }

    const auto report = xnfv::net::run_load(cfg, scripts);
    std::size_t answered = 0, sent = 0, errors = 0, retries = 0, reconnects = 0,
                duplicates = 0;
    for (const auto& conn : report.conns) {
        sent += conn.sent_lines;
        retries += conn.retries;
        reconnects += conn.reconnects;
        duplicates += conn.duplicates;
        if (conn.connect_failed || conn.io_error) ++errors;
        // In retry mode answered = matched responses (duplicates excluded).
        answered += conn.lines.size() - conn.duplicates;
    }
    serve::JsonWriter w;
    w.field("conns", static_cast<std::uint64_t>(conns));
    w.field("requests", static_cast<std::uint64_t>(conns * requests));
    w.field("answered", static_cast<std::uint64_t>(answered));
    w.field("sent_lines", static_cast<std::uint64_t>(sent));
    w.field("errors", static_cast<std::uint64_t>(errors));
    w.field("retries", static_cast<std::uint64_t>(retries));
    w.field("reconnects", static_cast<std::uint64_t>(reconnects));
    w.field("duplicates", static_cast<std::uint64_t>(duplicates));
    w.field("timed_out", report.timed_out);
    std::printf("%s\n", w.finish().c_str());
    return errors == 0 && !report.timed_out &&
                   answered == static_cast<std::size_t>(conns * requests)
               ? 0
               : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    try {
        const Args args(argc, argv, 2);
        const long long threads = args.get_int("threads", 0);
        if (threads < 0) throw std::runtime_error("--threads must be >= 0");
        xnfv::set_default_threads(static_cast<std::size_t>(threads));
        if (command == "generate") return cmd_generate(args);
        if (command == "train") return cmd_train(args);
        if (command == "evaluate") return cmd_evaluate(args);
        if (command == "explain") return cmd_explain(args);
        if (command == "global") return cmd_global(args);
        if (command == "serve") return cmd_serve(args);
        if (command == "scenario") return cmd_scenario(args);
        if (command == "netprobe") return cmd_netprobe(args);
        if (command == "loadgen") return cmd_loadgen(args);
        if (command == "help") return usage();
        std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
