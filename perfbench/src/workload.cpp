#include "workload.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/interaction.hpp"
#include "core/parallel.hpp"
#include "mlcore/dataset.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/gbt.hpp"
#include "mlcore/mlp.hpp"
#include "mlcore/rng.hpp"
#include "mlcore/serialize.hpp"
#include "net/loadgen.hpp"
#include "serve/ndjson.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "workload/dataset_builder.hpp"

namespace perfbench {

namespace serve = xnfv::serve;
namespace wl = xnfv::wl;

namespace {

/// hot_repeat's hot set: few enough rows to stay cached, enough to spread
/// over every cache shard.
constexpr std::size_t kHotRows = 512;
/// fleet_churn: share of requests that revisit one of a tenant's last
/// kRecentRows plain requests (still cached).  A choice, not a measurement:
/// live telemetry never repeats exactly (NOISE.md), so revisits stand for a
/// second consumer asking again about a chain-epoch already explained.
constexpr double kRevisitShare = 0.3;
constexpr std::size_t kRecentRows = 128;
constexpr std::uint64_t kWarmIdBase = 1'000'000'000;
/// Seed of the training telemetry and of every model.  The served model's
/// size sets the cost of each explain, so it is fixed; --seed varies what the
/// server is asked (telemetry, hot set, mix, arrival times).
constexpr std::uint64_t kModelSeed = 2020;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// The `xnfv_cli train` configuration of each model kind.
std::unique_ptr<ml::Model> train(const std::string& kind, const ml::Dataset& data,
                                 std::uint64_t seed) {
    ml::Rng rng(seed);
    if (kind == "rf") {
        auto m = std::make_unique<ml::RandomForest>(ml::RandomForest::Config{.num_trees = 100});
        m->fit(data, rng);
        return m;
    }
    if (kind == "gbt") {
        auto m = std::make_unique<ml::GradientBoostedTrees>(
            ml::GradientBoostedTrees::Config{.num_rounds = 150});
        m->fit(data, rng);
        return m;
    }
    if (kind == "mlp") {
        auto m = std::make_unique<ml::Mlp>(
            ml::Mlp::Config{.hidden_layers = {32, 32}, .epochs = 60});
        m->fit(data, rng);
        return m;
    }
    throw std::invalid_argument("unknown model kind '" + kind + "'");
}

}  // namespace

const WorkloadSpec& workload_spec(const std::string& name) {
    static const std::vector<WorkloadSpec> specs = {
        {.name = "hot_repeat", .rate = 2000.0, .tenants = {"rf"}, .cache = 4096},
        {.name = "fleet_churn", .rate = 700.0, .tenants = {"rf", "gbt", "mlp"}, .cache = 512},
    };
    for (const auto& s : specs)
        if (s.name == name) return s;
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected hot_repeat or fleet_churn)");
}

Inputs make_inputs(const WorkloadSpec& spec, const std::string& dir, bool all_models) {
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    const std::string root = fs::absolute(dir).string();

    ml::Rng rng(kModelSeed);
    wl::BuildOptions options;
    options.num_samples = 2000;
    const auto built = wl::build_mixed_dataset(wl::standard_scenarios(), options, rng);

    Inputs in;
    in.data_csv = root + "/train.csv";
    ml::write_csv_file(built.data, in.data_csv);
    in.names = spec.tenants;
    if (all_models)
        for (const char* kind : {"rf", "gbt", "mlp"})
            if (std::find(in.names.begin(), in.names.end(), kind) == in.names.end())
                in.names.emplace_back(kind);

    // Models train concurrently; each is a pure function of (data, seed).
    std::vector<std::unique_ptr<ml::Model>> trained(in.names.size());
    std::vector<std::exception_ptr> failed(in.names.size());
    {
        std::vector<std::jthread> workers;
        for (std::size_t k = 0; k < in.names.size(); ++k)
            workers.emplace_back([&, k] {
                try {
                    trained[k] = train(in.names[k], built.data, kModelSeed);
                } catch (...) {
                    failed[k] = std::current_exception();
                }
            });
    }
    for (const auto& e : failed)
        if (e) std::rethrow_exception(e);

    std::ofstream manifest(in.manifest = root + "/models.ndjson");
    for (std::size_t k = 0; k < in.names.size(); ++k) {
        in.model_paths.push_back(root + "/" + in.names[k] + ".xnfv");
        ml::save_model_file(*trained[k], in.model_paths.back());
        in.models.push_back(ml::load_model_file(in.model_paths.back()));
        if (k < spec.tenants.size()) {
            serve::JsonWriter w;
            w.field("name", in.names[k]);
            w.field("model", in.model_paths.back());
            if (k == 0) w.field("default", true);
            manifest << w.finish() << '\n';
        }
    }
    if (!manifest.flush()) throw std::runtime_error("cannot write " + in.manifest);
    const auto data = ml::read_csv_file(in.data_csv, ml::Task::binary_classification);
    in.background = xai::BackgroundData(data.x, kBackgroundRows);
    return in;
}

std::span<const double> TelemetryPool::row(std::size_t i) {
    reserve(i + 1);
    return chunks_[i / kChunk].x.row(i % kChunk);
}

bool TelemetryPool::violated(std::size_t i) {
    reserve(i + 1);
    return chunks_[i / kChunk].y[i % kChunk] > 0.5;
}

void TelemetryPool::reserve(std::size_t rows) {
    while (chunks_.size() * kChunk < rows) {
        ml::Rng rng(mix(seed_, 100 + chunks_.size()));
        wl::BuildOptions options;
        options.num_samples = kChunk;
        auto built = wl::build_mixed_dataset(wl::standard_scenarios(), options, rng);
        if (built.data.size() < kChunk)
            throw std::runtime_error("telemetry chunk came back short");
        chunks_.push_back(std::move(built.data));
    }
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed,
                             TelemetryPool& pool)
    : spec_(spec), pool_(pool), rng_(mix(seed, 3)), recent_(spec.tenants.size()) {
    if (spec.name == "hot_repeat") {
        for (std::size_t r = 0; r < kHotRows; ++r)
            warm_.push_back(make(kWarmIdBase + r, 0, "tree_shap", r, 0));
    } else {
        // The forest's interaction table, then every tenant's first explain.
        warm_.push_back(make(kWarmIdBase, 0, "auto", 0, 3));
        for (std::size_t t = 0; t < spec.tenants.size(); ++t)
            warm_.push_back(make(kWarmIdBase + 1 + t, t, "auto", 1 + t, 0));
    }
    next_fresh_ = spec.name == "hot_repeat" ? kHotRows : warm_.size();
}

const Request& RequestStream::at(std::size_t i) {
    while (requests_.size() <= i) extend();
    return requests_[i];
}

void RequestStream::extend() {
    const std::uint64_t id = requests_.size() + 1;
    if (spec_.name == "hot_repeat") {
        requests_.push_back(make(id, 0, "tree_shap", rng_.uniform_index(kHotRows), 0));
        return;
    }
    // fleet_churn.  The tenant shares (rf 50 %, gbt 30 %, mlp 20 %) are a
    // choice, not a measurement.
    const double u = rng_.uniform();
    const std::size_t t = u < 0.5 ? 0 : u < 0.8 ? 1 : 2;
    auto& recent = recent_[t];
    if (!recent.empty() && rng_.uniform() < kRevisitShare) {
        requests_.push_back(make(id, t, "auto", recent[rng_.uniform_index(recent.size())], 0));
        return;
    }
    // Remediation asks the forest for the top-3 interaction pairs of each
    // chain-epoch the simulator labels an SLA violation.
    const std::size_t row = next_fresh_++;
    const std::size_t k = t == 0 && pool_.violated(row) ? 3 : 0;
    if (k == 0) {
        recent.push_back(row);
        if (recent.size() > kRecentRows) recent.erase(recent.begin());
    }
    requests_.push_back(make(id, t, "auto", row, k));
}

Request RequestStream::make(std::uint64_t id, std::size_t tenant, std::string method,
                            std::size_t row, std::size_t interactions) {
    const auto x = pool_.row(row);
    xnfv::net::RequestSpec line;
    line.id = id;
    line.features.assign(x.begin(), x.end());
    line.method = method;
    line.model = spec_.tenants[tenant];
    line.interactions = interactions;
    Request r;
    r.line = xnfv::net::render_request_line(line) + "\n";
    r.id = id;
    r.tenant = tenant;
    r.method = std::move(method);
    r.row = row;
    r.interactions = interactions;
    return r;
}

std::size_t model_index(const Inputs& inputs, const std::string& name) {
    const auto it = std::find(inputs.names.begin(), inputs.names.end(), name);
    if (it == inputs.names.end()) throw std::logic_error("no model named " + name);
    return static_cast<std::size_t>(it - inputs.names.begin());
}

const std::vector<xai::InteractionPair>& Oracle::table(std::size_t m) {
    if (tables_.size() <= m) tables_.resize(inputs_.models.size());
    auto& table = tables_[m];
    if (!table.empty()) return table;
    const std::size_t d = inputs_.background.num_features();
    for (std::size_t j = 0; j + 1 < d; ++j)
        for (std::size_t k = j + 1; k < d; ++k) table.push_back({j, k, 0.0});
    const xai::InteractionOptions options{kInteractionPoints};
    xnfv::parallel_for(table.size(), 0, [&](std::size_t p) {
        table[p].h2 = xai::friedman_h2(*inputs_.models[m], inputs_.background, table[p].i,
                                       table[p].j, options);
    });
    // The server's order: strongest first, ties by (i, j).
    std::sort(table.begin(), table.end(),
              [](const xai::InteractionPair& a, const xai::InteractionPair& b) {
                  if (a.h2 != b.h2) return a.h2 > b.h2;
                  return a.i != b.i ? a.i < b.i : a.j < b.j;
              });
    return table;
}

std::string Oracle::expected(const Request& r, const WorkloadSpec& spec) {
    const std::size_t m = model_index(inputs_, spec.tenants[r.tenant]);
    const ml::Model& model = *inputs_.models[m];
    const auto request = serve::parse_json(r.line.substr(0, r.line.size() - 1));
    const auto features = serve::extract_features(request, model.num_features());
    if (features.error != serve::ServeError::none)
        throw std::runtime_error("benchmark request rejected: " + features.message);
    const auto route = serve::route_explainer(r.method, serve::classify_model(model));
    if (route.unsupported) throw std::runtime_error(route.why);
    if (!route.fast_path) throw std::logic_error(route.method + " is not an exact fast path");
    auto& explainer = exact_[{m, route.method}];
    if (!explainer)
        explainer = serve::make_explainer(route.method, inputs_.background, kServerSeed,
                                          kServerThreads);
    serve::ExplainResponse response;
    response.id = r.id;
    response.ok = true;
    response.explanation = explainer->explain(model, features.features);
    if (r.interactions > 0) {
        const auto& pairs = table(m);
        const auto take = std::min(r.interactions, pairs.size());
        response.explanation.interactions.assign(pairs.begin(),
                                                 pairs.begin() + static_cast<std::ptrdiff_t>(take));
    }
    return serve::render_response(response);
}

std::uint64_t Oracle::expected_hash(const Request& r, const WorkloadSpec& spec) {
    auto [it, fresh] = hashes_.try_emplace({r.tenant, r.row, r.method, r.interactions}, 0);
    if (fresh) it->second = answer_hash(expected(r, spec));
    return it->second;
}

std::uint64_t answer_hash(std::string_view line) {
    static constexpr std::string_view kId = "{\"id\":";
    static constexpr std::string_view kHit = "\"cache_hit\":true";
    if (!line.starts_with(kId)) return 0;
    const auto comma = line.find(',');
    if (comma == std::string_view::npos) return 0;
    std::string_view rest = line.substr(comma + 1);
    const auto at = rest.find(kHit);
    if (at == std::string_view::npos) return fnv1a(rest);
    const std::uint64_t h = fnv1a("\"cache_hit\":false", fnv1a(rest.substr(0, at)));
    return fnv1a(rest.substr(at + kHit.size()), h);
}

}  // namespace perfbench
