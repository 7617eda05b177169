// A4 (ablation) — interventional vs path-dependent (tree-conditional)
// Shapley under correlated telemetry.
//
// The two standard SHAP value functions differ in how they handle absent
// features: interventional (ExactShapley / KernelSHAP) *breaks* feature
// correlations by splicing background values in, while path-dependent
// TreeSHAP follows the training distribution down the tree's cover
// statistics.  NFV telemetry is heavily correlated (offered_pps and
// offered_mbps, chain CPU counters, ...), so the choice matters in exactly
// this domain.
//
// Setup: x1 = x0 + eps-noise with a controllable correlation; the model is a
// forest trained on y = x0 + x1.  Sweep the noise level and report the mean
// |tree_shap - exact_interventional| gap and the share of attribution each
// method gives to x0.  Expected shape: near rho = 1 the methods diverge
// (interventional splits credit by the tree's arbitrary split choices on
// out-of-manifold points; path-dependent follows covers); the gap closes as
// the features decorrelate.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/exact_shapley.hpp"
#include "core/flat_tree_shap.hpp"

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;
using namespace xnfv::bench;

int main() {
    print_header("A4", "interventional vs path-dependent Shapley under correlation");
    print_rule();
    std::printf("%12s %10s %16s %18s %18s\n", "noise sigma", "corr", "rel |gap|",
                "x0 share (tree)", "x0 share (intv)");
    print_rule();

    for (const double sigma : {0.05, 0.2, 0.5, 1.0, 2.0}) {
        ml::Rng rng(1000 + static_cast<std::uint64_t>(sigma * 100));
        ml::Dataset data;
        data.task = ml::Task::regression;
        double sxy = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0;
        const std::size_t n = 1500;
        for (std::size_t i = 0; i < n; ++i) {
            const double a = rng.uniform(-1, 1);
            const double b = a + rng.normal(0.0, sigma);
            data.add(std::vector<double>{a, b}, a + b);
            sx += a; sy += b; sxx += a * a; syy += b * b; sxy += a * b;
        }
        const double dn = static_cast<double>(n);
        const double corr = (sxy / dn - sx / dn * sy / dn) /
                            std::sqrt((sxx / dn - sx / dn * sx / dn) *
                                      (syy / dn - sy / dn * sy / dn));

        ml::RandomForest forest(ml::RandomForest::Config{.num_trees = 30});
        forest.fit(data, rng);

        const xai::BackgroundData background(data.x, 64);
        xai::TreeShap tree_shap;
        xai::ExactShapley interventional(background);

        double gap = 0.0, mass = 0.0, share_tree = 0.0, share_intv = 0.0;
        const int probes = 40;
        for (int rep = 0; rep < probes; ++rep) {
            const double a = rng.uniform(-0.8, 0.8);
            const std::vector<double> x{a, a + rng.normal(0.0, sigma)};
            const auto et = tree_shap.explain(forest, x);
            const auto ei = interventional.explain(forest, x);
            for (std::size_t j = 0; j < 2; ++j) {
                gap += std::abs(et.attributions[j] - ei.attributions[j]) / 2.0;
                mass += (std::abs(et.attributions[j]) + std::abs(ei.attributions[j])) / 4.0;
            }
            const auto share = [](const xai::Explanation& e) {
                const double a0 = std::abs(e.attributions[0]);
                const double a1 = std::abs(e.attributions[1]);
                return a0 + a1 > 0.0 ? a0 / (a0 + a1) : 0.5;
            };
            share_tree += share(et);
            share_intv += share(ei);
        }
        std::printf("%12.2f %10.3f %16.4f %18.3f %18.3f\n", sigma, corr,
                    mass > 0.0 ? gap / mass : 0.0, share_tree / probes,
                    share_intv / probes);
    }
    std::printf("\nexpected shape: the divergence peaks for strongly-but-imperfectly\n"
                "correlated features (the regime where interventional probes leave the\n"
                "data manifold most) and decays as the features decorrelate; at\n"
                "near-duplicate correlation both conventions approach an even split,\n"
                "shrinking the gap again.\n");
    return 0;
}
