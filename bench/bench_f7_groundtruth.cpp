// F7 — explanation faithfulness against *simulator ground truth*.
//
// The advantage of a simulated substrate no testbed can match: the true
// causal sensitivity of chain latency to each input is computable by
// re-simulating with that input perturbed.  This harness compares, per
// chain-epoch:
//
//   ground truth :  elasticity e_j = (dL/L) / (dx_j/x_j) from +/-5%
//                   re-simulation of the *simulator* itself,
//   explanation  :  |SHAP| of the trained config-only latency model, and
//                   LIME's local slopes.
//
// Reported: mean Spearman rank agreement between |SHAP| and the ground
// truth (both raw elasticity and elasticity x actual deviation), top-1
// driver match rate, and the sign agreement of LIME slopes with the true
// derivatives.  A random-attribution baseline calibrates the scale.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/flat_tree_shap.hpp"
#include "core/lime.hpp"
#include "mlcore/metrics.hpp"
#include "nfv/placement.hpp"
#include "nfv/simulator.hpp"

namespace ml = xnfv::ml;
namespace nfv = xnfv::nfv;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;
using namespace xnfv::bench;

namespace {

/// One probe deployment: a single randomized chain plus its offered load.
struct Probe {
    nfv::Infrastructure infra;
    nfv::Deployment dep;
    nfv::OfferedLoad load;
};

Probe sample_probe(ml::Rng& rng) {
    Probe p;
    p.infra = nfv::Infrastructure::homogeneous_pop(2, nfv::Server{});
    const auto tmpl = static_cast<wl::ChainTemplate>(rng.uniform_index(5));
    nfv::make_chain(p.dep, "c", wl::chain_types(tmpl), rng.uniform(0.5, 2.0), {},
                    static_cast<std::uint32_t>(rng.uniform_int(100, 4000)));
    nfv::place(p.dep, p.infra, nfv::PlacementStrategy::first_fit, rng);
    p.load = nfv::OfferedLoad{.pps = rng.uniform(3e4, 2.2e5),
                              .avg_pkt_bytes = rng.uniform(200.0, 1200.0),
                              .active_flows = rng.uniform(2e3, 5e4),
                              .burstiness_ca2 = rng.uniform(1.0, 6.0)};
    return p;
}

double latency_of(const Probe& p) {
    return nfv::simulate_epoch(p.dep, p.infra, {p.load}).chains[0].latency_s;
}

/// Controllable simulator inputs and the config feature each maps onto.
struct Knob {
    const char* feature;
    /// Multiplies the knob by `factor` in a copy of the probe.
    void (*apply)(Probe&, double factor);
};

const Knob kKnobs[] = {
    {"offered_pps", [](Probe& p, double f) { p.load.pps *= f; }},
    {"avg_pkt_bytes", [](Probe& p, double f) { p.load.avg_pkt_bytes *= f; }},
    {"active_flows", [](Probe& p, double f) { p.load.active_flows *= f; }},
    {"burstiness_ca2", [](Probe& p, double f) { p.load.burstiness_ca2 *= f; }},
    {"min_cpu_cores",
     [](Probe& p, double f) {
         for (auto& v : p.dep.vnfs) v.cpu_cores *= f;
     }},
    {"total_rules",
     [](Probe& p, double f) {
         for (auto& v : p.dep.vnfs)
             v.num_rules = static_cast<std::uint32_t>(v.num_rules * f);
     }},
};

/// Signed elasticities of latency w.r.t. each knob (central differences).
std::vector<double> ground_truth_elasticities(const Probe& probe) {
    const double base = latency_of(probe);
    std::vector<double> out;
    for (const Knob& knob : kKnobs) {
        Probe up = probe, down = probe;
        knob.apply(up, 1.05);
        knob.apply(down, 0.95);
        out.push_back((latency_of(up) - latency_of(down)) / (0.10 * base));
    }
    return out;
}

}  // namespace

int main() {
    // The explained model: config-only latency RF (same setting as F5/A2).
    const auto task = make_sla_task(8000, /*seed=*/4321, nfv::LabelKind::latency_ms,
                                    nfv::FeatureSet::config_only);
    const auto forest = train_forest(task.train, /*seed=*/43);
    const xai::BackgroundData background(task.train.x, 128);
    const auto names = nfv::feature_names(nfv::FeatureSet::config_only);
    std::vector<std::size_t> knob_to_feature;
    for (const Knob& knob : kKnobs)
        knob_to_feature.push_back(
            nfv::feature_index(nfv::FeatureSet::config_only, knob.feature));

    xai::TreeShap tree_shap;
    xai::Lime lime(background, ml::Rng(44), xai::Lime::Config{.num_samples = 2000});

    ml::Rng rng(45);
    double rho_shap = 0.0, rho_sens = 0.0, rho_random = 0.0, top1 = 0.0, lime_signs = 0.0,
           lime_sign_total = 0.0;
    const int n_probes = 40;
    for (int rep = 0; rep < n_probes; ++rep) {
        const Probe probe = sample_probe(rng);

        // Ground truth from the simulator itself.
        const auto elasticity = ground_truth_elasticities(probe);
        std::vector<double> gt_abs(elasticity.size());
        for (std::size_t k = 0; k < elasticity.size(); ++k)
            gt_abs[k] = std::abs(elasticity[k]);

        // Model-side view of the same chain-epoch.
        const auto epoch = nfv::simulate_epoch(probe.dep, probe.infra, {probe.load});
        const auto features = nfv::extract_features(
            nfv::FeatureSet::config_only, probe.dep, probe.infra, {probe.load}, epoch, 0);

        const auto e_shap = tree_shap.explain(forest, features);
        (void)lime.explain(forest, features);
        const auto& lime_slopes = lime.last_fit().coefficients;

        // Restrict both rankings to the controllable knobs.  |SHAP| measures
        // the *effect* of x_j's deviation from typical, not raw sensitivity,
        // so the fair ground-truth counterpart is the first-order effect
        // |e_j * (x_j - mean_j) / x_j| * L — elasticity times the relative
        // deviation this instance actually exhibits.
        const auto& mu = background.means();
        std::vector<double> shap_abs, rand_abs, gt_effect;
        for (std::size_t k = 0; k < knob_to_feature.size(); ++k) {
            const std::size_t j = knob_to_feature[k];
            shap_abs.push_back(std::abs(e_shap.attributions[j]));
            rand_abs.push_back(rng.uniform());
            const double rel_dev =
                (features[j] - mu[j]) / std::max(std::abs(features[j]), 1e-9);
            gt_effect.push_back(gt_abs[k] * std::abs(rel_dev));
        }
        rho_shap += ml::spearman(gt_effect, shap_abs);
        rho_sens += ml::spearman(gt_abs, shap_abs);
        rho_random += ml::spearman(gt_effect, rand_abs);
        top1 += ml::topk_overlap(gt_effect, shap_abs, 1);

        // LIME slope sign vs true derivative sign, on meaningful knobs only.
        for (std::size_t k = 0; k < std::size(kKnobs); ++k) {
            if (gt_abs[k] < 0.05) continue;  // causally inert here
            lime_sign_total += 1.0;
            const double slope = lime_slopes[knob_to_feature[k]];
            if (slope * elasticity[k] > 0.0) lime_signs += 1.0;
        }
    }

    print_header("F7", "explanation faithfulness vs simulator ground truth");
    std::printf("%d probe deployments; ground truth = +/-5%% re-simulation\n\n",
                n_probes);
    print_rule();
    std::printf("mean Spearman(|SHAP|, gt effect):        %6.3f\n", rho_shap / n_probes);
    std::printf("mean Spearman(|SHAP|, |elasticity|):     %6.3f\n", rho_sens / n_probes);
    std::printf("mean Spearman(random, gt effect):        %6.3f\n",
                rho_random / n_probes);
    std::printf("top-1 gt-effect driver matched by SHAP:  %5.1f%%\n",
                100.0 * top1 / n_probes);
    std::printf("LIME slope sign agreement (|e|>=0.05):   %5.1f%%  (%d checks)\n",
                lime_sign_total > 0 ? 100.0 * lime_signs / lime_sign_total : 0.0,
                static_cast<int>(lime_sign_total));
    std::printf("\nexpected shape: SHAP rank agreement clearly positive against a\n"
                "~zero random baseline, with top-1 above the 1/6 chance level; the\n"
                "sharpest faithfulness signal is directional — LIME's local slopes\n"
                "match the true derivative signs for the causally active inputs.\n"
                "(|SHAP| blends sensitivity with deviation magnitude and the model\n"
                "was trained on a different deployment mix than the probes, so\n"
                "perfect rank agreement is not achievable by construction.)\n");
    return 0;
}
