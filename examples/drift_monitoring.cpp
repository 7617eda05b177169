// Explanation-based drift monitoring.
//
// A violation model is deployed with a reference attribution profile taken
// at deployment time.  Weeks later the deployment regime shifts (links
// saturate after a peering change).  Accuracy-based monitoring would need violation labels —
// which arrive only after SLAs have already been breached.  Attribution
// monitoring needs none: the mean-|SHAP| profile over current traffic is
// compared against the reference, and the drift detector flags the regime
// change from the *reasons* behind predictions alone.
//
// Build & run:  ./build/examples/drift_monitoring
#include <cstdio>

#include "core/aggregate.hpp"
#include "core/drift.hpp"
#include "core/flat_tree_shap.hpp"
#include "mlcore/forest.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

namespace {

/// Mean-|SHAP| profile of `model` over the first `n` rows of a dataset.
xai::GlobalAttribution profile_of(const ml::Model& model, const ml::Dataset& data,
                                  std::size_t n) {
    xai::TreeShap explainer;
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < n && i < data.size(); ++i) rows.push_back(i);
    return xai::aggregate_explanations(explainer, model, data.x.take_rows(rows),
                                       data.feature_names);
}

}  // namespace

int main() {
    // Deployment time: train on the normal mixed workload and freeze the
    // reference attribution profile.
    ml::Rng rng(11);
    wl::BuildOptions opt;
    opt.num_samples = 4000;
    const auto normal = wl::build_mixed_dataset(wl::standard_scenarios(), opt, rng);
    ml::RandomForest model(ml::RandomForest::Config{.num_trees = 80});
    model.fit(normal.data, rng);

    const auto reference = profile_of(model, normal.data, 80);
    std::printf("== reference attribution profile (deployment time) ==\n%s\n",
                reference.to_string(5).c_str());

    // Week 1: same regime — the monitor must stay quiet.
    opt.num_samples = 1200;
    const auto week1 = wl::build_mixed_dataset(wl::standard_scenarios(), opt, rng);
    const auto drift1 =
        xai::attribution_drift(reference, profile_of(model, week1.data, 80));
    std::printf("== week 1 (same traffic mix) ==\n%s\n",
                drift1.to_string(normal.data.feature_names).c_str());

    // Week 2: a peering change saturates the inter-server links — the
    // violations are now link-driven, so the *reasons* behind the model's
    // predictions move to different counters even though the model itself is
    // unchanged.
    const auto week2 = wl::build_dataset(
        wl::fault_scenario(wl::FaultKind::link_saturation), opt, rng);
    const auto drift2 =
        xai::attribution_drift(reference, profile_of(model, week2.data, 80));
    std::printf("== week 2 (link-saturated regime) ==\n%s\n",
                drift2.to_string(normal.data.feature_names).c_str());

    if (!drift1.drifted && drift2.drifted) {
        std::printf("monitor verdict: regime change detected in week 2, no false\n"
                    "alarm in week 1 — review/retrain before accuracy degrades.\n");
        return 0;
    }
    std::printf("monitor verdict: unexpected (week1 drifted=%d, week2 drifted=%d)\n",
                drift1.drifted, drift2.drifted);
    return 1;
}
