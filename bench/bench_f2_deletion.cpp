// F2 — Deletion curves and AOPC per explainer.
//
// Deletes features most-relevant-first (mean imputation) and tracks the
// collapse of the RF's violation probability, averaged over confidently
// violating test instances.  Expected shape (Samek et al. protocol):
// Shapley-based rankings collapse the prediction fastest (highest AOPC),
// then LIME, then occlusion, with random deletion worst.
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
    const auto task = make_sla_task(6000, /*seed=*/99);
    const auto forest = train_forest(task.train, /*seed=*/9);
    const xai::BackgroundData background(task.train.x, 96);
    const std::size_t d = task.train.num_features();

    // Confidently violating instances make the curve informative.
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < task.test.size() && chosen.size() < 80; ++i)
        if (forest.predict(task.test.x.row(i)) > 0.7) chosen.push_back(i);

    xai::TreeShap tree_shap;
    xai::KernelShap kernel_shap(background, ml::Rng(31),
                                xai::KernelShap::Config{.max_coalitions = 600});
    xai::Lime lime(background, ml::Rng(32), xai::Lime::Config{.num_samples = 1200});
    xai::Occlusion occlusion(background);
    std::vector<xai::Explainer*> explainers{&tree_shap, &kernel_shap, &lime, &occlusion};

    print_header("F2", "deletion curves (mean prediction after deleting top-k features)");
    std::printf("instances: %zu confident violations; deletion = mean imputation\n\n",
                chosen.size());

    std::printf("%-12s", "k");
    for (std::size_t k = 0; k <= d; k += 3) std::printf("%8zu", k);
    std::printf("%10s\n", "AOPC");
    print_rule();

    for (auto* explainer : explainers) {
        std::vector<double> mean_curve(d + 1, 0.0);
        double aopc = 0.0;
        for (const std::size_t i : chosen) {
            const auto x = task.test.x.row(i);
            const auto e = explainer->explain(forest, x);
            const auto ranking = e.top_k(d);
            const auto curve = xai::deletion_curve(forest, x, ranking, background);
            for (std::size_t k = 0; k <= d; ++k) mean_curve[k] += curve.curve[k];
            aopc += curve.aopc;
        }
        for (double& v : mean_curve) v /= static_cast<double>(chosen.size());
        aopc /= static_cast<double>(chosen.size());
        std::printf("%-12s", explainer->name().c_str());
        for (std::size_t k = 0; k <= d; k += 3) std::printf("%8.3f", mean_curve[k]);
        std::printf("%10.4f\n", aopc);
    }

    // Random-ranking baseline.
    {
        ml::Rng rng(33);
        std::vector<double> mean_curve(d + 1, 0.0);
        double aopc = 0.0;
        for (const std::size_t i : chosen) {
            const auto curve = xai::random_deletion_curve(forest, task.test.x.row(i),
                                                          background, rng, 5);
            for (std::size_t k = 0; k <= d; ++k) mean_curve[k] += curve.curve[k];
            aopc += curve.aopc;
        }
        for (double& v : mean_curve) v /= static_cast<double>(chosen.size());
        aopc /= static_cast<double>(chosen.size());
        std::printf("%-12s", "random");
        for (std::size_t k = 0; k <= d; k += 3) std::printf("%8.3f", mean_curve[k]);
        std::printf("%10.4f\n", aopc);
    }
    std::printf("\nexpected shape: AOPC tree_shap >= kernel_shap > lime/occlusion >> random.\n");
    return 0;
}
