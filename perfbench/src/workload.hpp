// Seeded inputs of the serving benchmark: the models and background the
// server loads, the request stream of each workload, and the one-shot oracle
// every served answer is checked against.  Everything here is a pure
// function of the workload name and the seed; the models do not depend on
// the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/explanation.hpp"
#include "mlcore/dataset.hpp"
#include "mlcore/matrix.hpp"
#include "mlcore/model.hpp"
#include "mlcore/rng.hpp"

namespace perfbench {

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;

/// Load-generator connections (the host's vCPU count) and the server's
/// worker threads: the server's busy threads plus the generator fit in four
/// vCPUs.
constexpr std::size_t kConnections = 4;
constexpr std::size_t kServerThreads = 2;
/// Background rows behind each served Friedman-H² table (serve
/// --interaction-points); 32 keeps the forest's table near 0.7 s so the
/// fleet workload's set-up can be repeated within a run.
constexpr std::size_t kInteractionPoints = 32;
/// The server marginalises over BackgroundData(training rows, 128) and
/// seeds requests that carry no seed with 11 (xnfv_cli serve defaults).
constexpr std::size_t kBackgroundRows = 128;
constexpr std::uint64_t kServerSeed = 11;

/// An open loop: Poisson arrivals at `rate`, whatever the server's pace.
struct WorkloadSpec {
    std::string name;
    double rate = 0.0;                 ///< arrivals per second
    std::vector<std::string> tenants;  ///< model names; the first is the default
    std::size_t cache = 4096;          ///< server --cache: entries per tenant
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] const WorkloadSpec& workload_spec(const std::string& name);

/// The files a server is started with, and the same models and background
/// read back from those files, exactly as the server reads them.
struct Inputs {
    std::string data_csv;   ///< training rows; the server's --data
    std::string manifest;   ///< --models manifest of the workload's tenants
    std::vector<std::string> names;  ///< every trained model (tenants first)
    std::vector<std::string> model_paths;
    std::vector<std::shared_ptr<const ml::Model>> models;
    xai::BackgroundData background;
};

/// Simulates training telemetry with the DES simulator and trains each model
/// (the `xnfv_cli train` configurations), both from one fixed seed.
/// `all_models` also trains the models the workload does not serve (the
/// traced run times every model).
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, const std::string& dir,
                                 bool all_models);

/// Fresh telemetry rows from the DES simulator, made in fixed-size chunks
/// so that row i is the same for a seed however many rows a run uses.
class TelemetryPool {
public:
    explicit TelemetryPool(std::uint64_t seed) : seed_(seed) {}
    [[nodiscard]] std::span<const double> row(std::size_t i);
    /// Whether the simulator labels row i's chain-epoch an SLA violation.
    [[nodiscard]] bool violated(std::size_t i);
    void reserve(std::size_t rows);

private:
    static constexpr std::size_t kChunk = 4096;
    std::uint64_t seed_;
    std::vector<ml::Dataset> chunks_;
};

struct Request {
    std::string line;  ///< one ND-JSON explain request, newline included
    std::uint64_t id = 0;
    std::size_t tenant = 0;  ///< index into WorkloadSpec::tenants
    std::string method;      ///< as sent ("auto" or "tree_shap")
    std::size_t row = 0;     ///< TelemetryPool row
    std::size_t interactions = 0;
};

/// The workload's request sequence.  Request i is a pure function of
/// (workload, seed, i); requests are made in index order on demand.
class RequestStream {
public:
    RequestStream(const WorkloadSpec& spec, std::uint64_t seed, TelemetryPool& pool);

    [[nodiscard]] const Request& at(std::size_t i);
    /// What set-up sends before the server counts as warm: the hot set, and
    /// one request per lazily built per-model table.
    [[nodiscard]] const std::vector<Request>& warm_set() const noexcept { return warm_; }

private:
    Request make(std::uint64_t id, std::size_t tenant, std::string method,
                 std::size_t row, std::size_t interactions);
    void extend();

    const WorkloadSpec& spec_;
    TelemetryPool& pool_;
    ml::Rng rng_;
    std::vector<std::vector<std::size_t>> recent_;  ///< fleet: recent plain rows per tenant
    std::vector<Request> warm_;
    std::vector<Request> requests_;
    std::size_t next_fresh_ = 0;
};

/// Renders what the one-shot path (make_explainer, which is the flat kernel
/// for tree_shap, and core/interaction.hpp for pairs) answers to a request,
/// with cache_hit false: the bytes a served response must equal once
/// normalised.
class Oracle {
public:
    explicit Oracle(const Inputs& inputs) : inputs_(inputs) {}

    [[nodiscard]] std::string expected(const Request& r, const WorkloadSpec& spec);
    /// answer_hash() of expected(r, spec), kept per request content (tenant,
    /// row, method, interactions), so a repeated request costs no explain.
    [[nodiscard]] std::uint64_t expected_hash(const Request& r, const WorkloadSpec& spec);
    /// The full H² pair table of model `m` (index into Inputs::models),
    /// sorted as the server sorts it; built on first use.
    const std::vector<xai::InteractionPair>& table(std::size_t m);

private:
    const Inputs& inputs_;
    std::vector<std::vector<xai::InteractionPair>> tables_;
    /// Every route the workloads take is an exact fast path with no RNG
    /// state, so one explainer per (model, method) serves every check.
    std::map<std::pair<std::size_t, std::string>, std::unique_ptr<xai::Explainer>> exact_;
    std::map<std::tuple<std::size_t, std::size_t, std::string, std::size_t>, std::uint64_t>
        hashes_;
};

/// The index in Inputs::models of the model named `name` ("rf", "gbt", "mlp").
[[nodiscard]] std::size_t model_index(const Inputs& inputs, const std::string& name);

/// Hash of an answer line past its `{"id":N,` prefix, with
/// `"cache_hit":true` read as false: equal for a served answer and the
/// oracle's rendering of the same request.  0 when the line has no id prefix.
[[nodiscard]] std::uint64_t answer_hash(std::string_view line);

}  // namespace perfbench
