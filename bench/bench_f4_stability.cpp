// F4 — Explanation stability.
//
// Two stability notions on the NFV random forest:
//   (a) input stability: mean L2 drift of attributions (and top-3 Jaccard)
//       under epsilon-scaled Gaussian input perturbations;
//   (b) rerun variance: attribution variance across re-runs with different
//       sampling seeds on the *same* input (zero for deterministic methods).
// Expected shape: TreeSHAP most stable (deterministic, exact); KernelSHAP
// close with adequate budget; LIME drifts most and has the largest rerun
// variance at equal budget.
#include <cstdio>

#include "bench_util.hpp"
#include "core/evaluate.hpp"
#include "core/flat_tree_shap.hpp"
#include "core/kernel_shap.hpp"
#include "core/lime.hpp"
#include "core/occlusion.hpp"

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;
using namespace xnfv::bench;

int main() {
    const auto task = make_sla_task(6000, /*seed=*/123);
    const auto forest = train_forest(task.train, /*seed=*/12);
    const xai::BackgroundData background(task.train.x, 96);
    const std::size_t n_instances = 20;

    print_header("F4", "explanation stability on the RF SLA model");

    std::printf("\nseries A: input-perturbation stability, eps sweep "
                "(mean over %zu instances, 6 perturbations each)\n", n_instances);
    print_rule();
    std::printf("%-12s %8s %12s %14s\n", "explainer", "eps", "L2 drift", "top3 jaccard");
    print_rule();

    xai::TreeShap tree_shap;
    for (const double eps : {0.01, 0.05, 0.1}) {
        struct Row {
            const char* name;
            xai::ExplainFn fn;
        };
        xai::KernelShap kernel_shap(background, ml::Rng(41),
                                    xai::KernelShap::Config{.max_coalitions = 600});
        xai::Lime lime(background, ml::Rng(42), xai::Lime::Config{.num_samples = 600});
        xai::Occlusion occlusion(background);
        const std::vector<Row> rows{
            {"tree_shap",
             [&](std::span<const double> x) { return tree_shap.explain(forest, x); }},
            {"kernel_shap",
             [&](std::span<const double> x) { return kernel_shap.explain(forest, x); }},
            {"lime", [&](std::span<const double> x) { return lime.explain(forest, x); }},
            {"occlusion",
             [&](std::span<const double> x) { return occlusion.explain(forest, x); }},
        };
        for (const auto& row : rows) {
            ml::Rng pert_rng(43);
            double drift = 0.0, jac = 0.0;
            for (std::size_t i = 0; i < n_instances; ++i) {
                const auto r = xai::input_stability(row.fn, task.test.x.row(i),
                                                    background, pert_rng, eps, 6);
                drift += r.mean_l2_drift;
                jac += r.mean_topk_jaccard;
            }
            std::printf("%-12s %8.2f %12.4f %14.3f\n", row.name, eps,
                        drift / n_instances, jac / n_instances);
        }
        print_rule();
    }

    std::printf("\nseries B: rerun variance (same input, new sampling seed per run)\n");
    print_rule();
    std::printf("%-20s %16s\n", "explainer", "mean attr var");
    print_rule();
    {
        const auto x0 = task.test.x.row(0);
        ml::Rng seeder(44);
        const double v_tree = xai::rerun_variance(
            [&](std::span<const double> x) { return tree_shap.explain(forest, x); }, x0, 6);
        std::printf("%-20s %16.3e\n", "tree_shap", v_tree);
        for (const std::size_t budget : {150u, 600u, 2400u}) {
            const double v = xai::rerun_variance(
                [&](std::span<const double> x) {
                    xai::KernelShap ks(background, seeder.split(),
                                       xai::KernelShap::Config{.max_coalitions = budget});
                    return ks.explain(forest, x);
                },
                x0, 6);
            std::printf("kernel_shap/%-8zu %16.3e\n", budget, v);
        }
        for (const std::size_t budget : {150u, 600u, 2400u}) {
            const double v = xai::rerun_variance(
                [&](std::span<const double> x) {
                    xai::Lime lime(background, seeder.split(),
                                   xai::Lime::Config{.num_samples = budget});
                    return lime.explain(forest, x);
                },
                x0, 6);
            std::printf("lime/%-15zu %16.3e\n", budget, v);
        }
    }
    std::printf("\nexpected shape: tree_shap variance ~ 0; lime > kernel_shap at equal\n"
                "budget; variance shrinks with budget for both samplers.\n");
    return 0;
}
