// F3 — Explanation latency vs feature count and budget.
//
// Times one explanation as a function of (a) the number of features, for a
// synthetic model where d is controllable, and (b) the coalition/sample
// budget on the NFV random forest.  Expected shape: exact enumeration blows
// up exponentially and stops being feasible past ~14 features; KernelSHAP
// and LIME scale with budget x model-eval cost; TreeSHAP is orders of
// magnitude faster because it never evaluates the model, only walks trees.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/exact_shapley.hpp"
#include "core/flat_tree_shap.hpp"
#include "core/kernel_shap.hpp"
#include "core/lime.hpp"
#include "core/occlusion.hpp"

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;
using namespace xnfv::bench;

namespace {

/// Synthetic model with adjustable dimensionality.
ml::LambdaModel synthetic(std::size_t d) {
    return ml::LambdaModel(d, [](std::span<const double> x) {
        double v = 0.0;
        for (std::size_t i = 0; i + 1 < x.size(); i += 2) v += x[i] * x[i + 1];
        return v + (x.empty() ? 0.0 : std::sin(3.0 * x[0]));
    });
}

double time_explainer(xai::Explainer& e, const ml::Model& model,
                      std::span<const double> x, int repeats = 3) {
    Stopwatch sw;
    for (int r = 0; r < repeats; ++r) (void)e.explain(model, x);
    return sw.ms() / repeats;
}

}  // namespace

int main() {
    print_header("F3", "explanation latency (ms per explanation)");

    std::printf("\nseries A: dimensionality sweep on a synthetic model "
                "(kernel budget 1024, lime 1000 samples, bg 64)\n");
    print_rule();
    std::printf("%4s %14s %14s %14s %14s\n", "d", "exact", "kernel_shap", "lime",
                "occlusion");
    print_rule();
    for (const std::size_t d : {4u, 6u, 8u, 10u, 12u, 14u, 16u}) {
        ml::Rng rng(d);
        xnfv::ml::Matrix bgm(64, d);
        for (std::size_t r = 0; r < 64; ++r)
            for (std::size_t c = 0; c < d; ++c) bgm(r, c) = rng.uniform(-1, 1);
        const xai::BackgroundData background(bgm);
        const auto model = synthetic(d);
        std::vector<double> x(d, 0.4);

        xai::KernelShap ks(background, ml::Rng(1),
                           xai::KernelShap::Config{.max_coalitions = 1024});
        xai::Lime lime(background, ml::Rng(2), xai::Lime::Config{.num_samples = 1000});
        xai::Occlusion occ(background);

        double exact_ms = -1.0;
        if (d <= 14) {  // beyond this, exact enumeration is prohibitive
            xai::ExactShapley exact(background);
            exact_ms = time_explainer(exact, model, x, d <= 10 ? 3 : 1);
        }
        const double ks_ms = time_explainer(ks, model, x);
        const double lime_ms = time_explainer(lime, model, x);
        const double occ_ms = time_explainer(occ, model, x);
        if (exact_ms >= 0.0)
            std::printf("%4zu %14.2f %14.2f %14.2f %14.2f\n", d, exact_ms, ks_ms,
                        lime_ms, occ_ms);
        else
            std::printf("%4zu %14s %14.2f %14.2f %14.2f\n", d, "(skipped)", ks_ms,
                        lime_ms, occ_ms);
    }

    std::printf("\nseries B: NFV random forest (d = 18), per-explainer latency\n");
    print_rule();
    std::printf("%-14s %14s\n", "explainer", "ms/expl");
    print_rule();
    {
        const auto task = make_sla_task(4000, /*seed=*/111);
        const auto forest = train_forest(task.train, /*seed=*/11);
        const xai::BackgroundData background(task.train.x, 96);
        const auto x = task.test.x.row(0);

        // Two rows for the one flat kernel: what a one-shot caller pays (the
        // TreeShap explainer builds the kernel per explanation) and what a
        // server pays per request (a walk of the kernel it built at load).
        xai::TreeShap ts;
        std::printf("%-14s %14.3f  (build + walk)\n", "tree_shap",
                    time_explainer(ts, forest, x, 10));
        const auto flat = xai::FlatTreeShap::build(forest);
        xai::FlatShapScratch scratch;
        Stopwatch sw;
        for (int r = 0; r < 100; ++r) (void)flat->explain(x, scratch);
        std::printf("%-14s %14.3f  (prebuilt walk)\n", "tree_shap", sw.ms() / 100);
        for (const std::size_t budget : {256u, 1024u, 4096u}) {
            xai::KernelShap ks(background, ml::Rng(3),
                               xai::KernelShap::Config{.max_coalitions = budget});
            std::printf("kernel_shap/%-4zu %12.1f\n", budget,
                        time_explainer(ks, forest, x, 1));
        }
        for (const std::size_t budget : {300u, 1000u, 3000u}) {
            xai::Lime lime(background, ml::Rng(4),
                           xai::Lime::Config{.num_samples = budget});
            std::printf("lime/%-9zu %14.2f\n", budget,
                        time_explainer(lime, forest, x, 3));
        }
        xai::Occlusion occ(background);
        std::printf("%-14s %14.2f\n", "occlusion", time_explainer(occ, forest, x, 3));

        std::printf("\nseries C: Kernel-SHAP batch (16 rows, budget 1024) vs thread count\n");
        print_rule();
        std::printf("%8s %14s %10s\n", "threads", "ms/batch", "speedup");
        print_rule();
        std::vector<std::size_t> rows(16);
        for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
        const ml::Matrix batch_rows = task.test.x.take_rows(rows);
        double ms_at_1 = 0.0;
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
            xai::KernelShap ks(background, ml::Rng(5),
                               xai::KernelShap::Config{.max_coalitions = 1024,
                                                       .threads = threads});
            (void)ks.explain_batch(forest, batch_rows);  // warm the pool
            Stopwatch sw;
            (void)ks.explain_batch(forest, batch_rows);
            const double ms = sw.ms();
            if (threads == 1) ms_at_1 = ms;
            std::printf("%8zu %14.1f %9.2fx\n", threads, ms,
                        ms > 0.0 ? ms_at_1 / ms : 0.0);
        }
    }
    std::printf("\nexpected shape: exact explodes exponentially; tree_shap is the\n"
                "fastest by orders of magnitude; kernel_shap/lime scale with budget;\n"
                "series C speedup approaches the physical core count (flat on 1-CPU\n"
                "machines -- determinism guarantees identical attributions either way).\n");
    return 0;
}
