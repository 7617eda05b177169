// S5 — exact fast-path explainers versus the sampling probes they replace.
//
// The serving router (DESIGN.md §16) sends tree ensembles to the flat-tree
// TreeSHAP kernel and MLPs to analytic Integrated Gradients.  This harness
// quantifies what that buys over the black-box probe methods a router-less
// service would have to run, on the standard SLA-violation task:
//
//   table 1 (tree ensemble): per-explanation model evaluations and wall
//           time, kernel_shap probe vs exact flat TreeSHAP (zero model
//           evaluations — the kernel walks the trees directly);
//   table 2 (MLP): sampling-Shapley probe vs Integrated Gradients, whose
//           analytic gradient costs one forward+backward pass per Riemann
//           step (counted conservatively as 2 forward-equivalents each,
//           plus the two endpoint predictions);
//   gates:  both eval reductions must be >= 10x (exit 1 otherwise), the
//           flat kernel must stay bitwise-identical to the recursive
//           walker (attributions, base value and prediction), and IG
//           completeness must hold within tolerance.
//
// JSON artifact (default BENCH_s5_fastpath.json, overridable via argv[1]).
// ctest runs it at XNFV_S5_EXPLAINS=8 as the tier-1 test bench_s5_fastpath
// (tests/bench_s5_fastpath.sh), which also checks the artifact's rows.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/flat_tree_shap.hpp"
#include "core/gradient.hpp"
#include "core/tree_shap.hpp"
#include "serve/service.hpp"

namespace bench = xnfv::bench;
namespace ml = xnfv::ml;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0'
               ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
               : fallback;
}

/// Counts rows pushed through predict/predict_batch (same proxy the serving
/// path uses for its probe_rows metric).
class CountingModel final : public ml::Model {
public:
    explicit CountingModel(const ml::Model& inner) : inner_(inner) {}
    [[nodiscard]] double predict(std::span<const double> x) const override {
        ++evals_;
        return inner_.predict(x);
    }
    void predict_batch(const ml::Matrix& x, std::span<double> out) const override {
        evals_ += x.rows();
        inner_.predict_batch(x, out);
    }
    using ml::Model::predict_batch;
    [[nodiscard]] std::size_t num_features() const override {
        return inner_.num_features();
    }
    [[nodiscard]] std::string name() const override { return inner_.name(); }
    [[nodiscard]] std::uint64_t evals() const noexcept { return evals_; }

private:
    const ml::Model& inner_;
    mutable std::uint64_t evals_ = 0;
};

struct Run {
    double evals_per_explain = 0.0;
    double ms_per_explain = 0.0;
};

Run run_probe(xai::Explainer& explainer, const ml::Model& model,
              const ml::Matrix& rows) {
    const CountingModel counting(model);
    bench::Stopwatch sw;
    for (std::size_t i = 0; i < rows.rows(); ++i)
        (void)explainer.explain(counting, rows.row(i));
    Run r;
    r.ms_per_explain = sw.ms() / static_cast<double>(rows.rows());
    r.evals_per_explain =
        static_cast<double>(counting.evals()) / static_cast<double>(rows.rows());
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    bench::print_header("S5", "exact fast paths vs sampling probes");

    const std::size_t explains = env_size("XNFV_S5_EXPLAINS", 32);
    const double reduction_floor = 10.0;
    const std::string json_path = argc > 1 ? argv[1] : "BENCH_s5_fastpath.json";

    auto task = bench::make_sla_task(2500, 2020);
    const auto forest =
        std::make_shared<ml::RandomForest>(bench::train_forest(task.train, 7, 40));
    ml::Rng mlp_rng(13);
    ml::Mlp mlp(ml::Mlp::Config{.hidden_layers = {24, 24},
                                .activation = ml::Activation::tanh,
                                .epochs = 20});
    mlp.fit(task.train, mlp_rng);
    const xai::BackgroundData background(task.train.x, 128);
    std::vector<std::size_t> picks(explains);
    for (std::size_t i = 0; i < explains; ++i) picks[i] = i % task.test.size();
    const ml::Matrix rows = task.test.x.take_rows(picks);
    const std::size_t d = rows.cols();

    // --- tree ensemble: kernel_shap probe vs exact flat TreeSHAP -----------
    const auto kernel = serve::make_explainer("kernel_shap", background, 11);
    const Run kernel_run = run_probe(*kernel, *forest, rows);

    const auto flat = xai::FlatTreeShap::build(*forest);
    if (flat == nullptr) {
        std::fprintf(stderr, "FAIL: FlatTreeShap::build rejected the forest\n");
        return 1;
    }
    xai::FlatShapScratch scratch;
    xai::TreeShap recursive;
    bench::Stopwatch sw;
    for (std::size_t i = 0; i < rows.rows(); ++i)
        (void)flat->explain(rows.row(i), scratch);
    const double flat_ms = sw.ms() / static_cast<double>(rows.rows());
    // Exactness pin: the speedup must not come from a different answer.
    // Depth-8 trees on the 18 telemetry features reach leaves wider than the
    // kernel's precomputed tables, so both leaf paths are checked.
    for (std::size_t i = 0; i < rows.rows(); ++i) {
        const auto a = flat->explain(rows.row(i), scratch);
        const auto b = recursive.explain(*forest, rows.row(i));
        bool same = a.base_value == b.base_value && a.prediction == b.prediction;
        for (std::size_t j = 0; j < d; ++j) same = same && a.attributions[j] == b.attributions[j];
        if (!same) {
            std::fprintf(stderr, "FAIL: flat != recursive at row %zu\n", i);
            return 1;
        }
    }
    // The flat kernel performs zero model evaluations; the reduction is
    // reported against a 1-eval floor so the ratio stays finite.
    const double tree_reduction = kernel_run.evals_per_explain / 1.0;

    std::printf("\ntree ensemble (%zu trees, d=%zu, %zu explanations)\n", 40ul, d,
                rows.rows());
    std::printf("%-24s %14s %12s\n", "explainer", "evals/explain", "ms/explain");
    bench::print_rule();
    std::printf("%-24s %14.1f %12.3f\n", "kernel_shap (probe)",
                kernel_run.evals_per_explain, kernel_run.ms_per_explain);
    std::printf("%-24s %14.1f %12.3f\n", "flat tree_shap (exact)", 0.0, flat_ms);
    std::printf("eval reduction >= %.1fx: %.1fx  speedup %.1fx\n", reduction_floor,
                tree_reduction, kernel_run.ms_per_explain / std::max(flat_ms, 1e-6));

    // --- MLP: sampling-Shapley probe vs analytic Integrated Gradients ------
    const auto sampling = serve::make_explainer("sampling", background, 11);
    const Run sampling_run = run_probe(*sampling, mlp, rows);

    const std::size_t ig_steps = xai::IntegratedGradients::Config{}.steps;
    xai::IntegratedGradients ig(background);
    sw.reset();
    double completeness_gap = 0.0;
    for (std::size_t i = 0; i < rows.rows(); ++i) {
        const auto e = ig.explain(mlp, rows.row(i));
        completeness_gap = std::max(
            completeness_gap, std::abs(e.additive_reconstruction() - e.prediction));
    }
    const double ig_ms = sw.ms() / static_cast<double>(rows.rows());
    // One analytic gradient = forward + backward, billed as 2 forward
    // passes; plus the two endpoint predictions.
    const double ig_equiv_evals = 2.0 * static_cast<double>(ig_steps) + 2.0;
    const double mlp_reduction = sampling_run.evals_per_explain / ig_equiv_evals;

    std::printf("\nmlp (24x24 tanh, d=%zu, %zu explanations)\n", d, rows.rows());
    std::printf("%-24s %14s %12s\n", "explainer", "evals/explain", "ms/explain");
    bench::print_rule();
    std::printf("%-24s %14.1f %12.3f\n", "sampling shapley (probe)",
                sampling_run.evals_per_explain, sampling_run.ms_per_explain);
    std::printf("%-24s %14.1f %12.3f\n", "integrated grads (exact)", ig_equiv_evals,
                ig_ms);
    std::printf("eval reduction >= %.1fx: %.1fx  speedup %.1fx  "
                "completeness gap %.2e\n",
                reduction_floor, mlp_reduction, sampling_run.ms_per_explain / ig_ms,
                completeness_gap);

    char buf[512];
    bench::JsonArtifact artifact("fastpath_vs_probes");
    std::snprintf(buf, sizeof(buf),
                  "{\"path\": \"tree\", \"probe_method\": \"kernel_shap\", "
                  "\"probe_evals_per_explain\": %.1f, \"fast_evals_per_explain\": 0, "
                  "\"eval_reduction\": %.1f, \"probe_ms_per_explain\": %.3f, "
                  "\"fast_ms_per_explain\": %.3f}",
                  kernel_run.evals_per_explain, tree_reduction,
                  kernel_run.ms_per_explain, flat_ms);
    artifact.add_object(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"path\": \"mlp\", \"probe_method\": \"sampling\", "
                  "\"probe_evals_per_explain\": %.1f, \"fast_evals_per_explain\": %.1f, "
                  "\"eval_reduction\": %.1f, \"probe_ms_per_explain\": %.3f, "
                  "\"fast_ms_per_explain\": %.3f, \"completeness_gap\": %.3e}",
                  sampling_run.evals_per_explain, ig_equiv_evals, mlp_reduction,
                  sampling_run.ms_per_explain, ig_ms, completeness_gap);
    artifact.add_object(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"gate\": \"eval_reduction\", \"floor\": %.1f, "
                  "\"tree\": %.1f, \"mlp\": %.1f}",
                  reduction_floor, tree_reduction, mlp_reduction);
    artifact.add_object(buf);
    if (!artifact.write(json_path)) {
        std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::printf("\nartifact: %s\n", json_path.c_str());

    if (tree_reduction < reduction_floor || mlp_reduction < reduction_floor) {
        std::fprintf(stderr, "FAIL: eval reduction below %.1fx\n", reduction_floor);
        return 1;
    }
    if (completeness_gap > 1e-2) {
        std::fprintf(stderr, "FAIL: IG completeness gap %.3e\n", completeness_gap);
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
