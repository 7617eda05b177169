// SLA-violation diagnosis: the NOC workflow the paper motivates.
//
// A monitoring pipeline flags chains predicted to breach their SLA.  For
// each flagged chain this example produces the three artifacts an operator
// needs, combining local attribution, population-level aggregation, and an
// interpretable policy summary:
//   1. a per-incident "why" (TreeSHAP attribution of the prediction),
//   2. a fleet-level ranking of violation drivers (mean |SHAP|),
//   3. a depth-3 surrogate decision tree of the model's violation policy.
//
// Build & run:  ./build/examples/sla_violation_diagnosis
#include <cstdio>

#include "core/aggregate.hpp"
#include "core/flat_tree_shap.hpp"
#include "core/surrogate.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/metrics.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

int main() {
    // Train the violation classifier on a densely co-located deployment
    // (the scenario with the richest contention structure).
    ml::Rng rng(7);
    wl::BuildOptions options;
    options.num_samples = 5000;
    const auto built =
        wl::build_dataset(wl::standard_scenarios()[4] /* dense_colocation */, options, rng);
    auto split = ml::train_test_split(built.data, 0.3, rng);
    ml::RandomForest model(ml::RandomForest::Config{.num_trees = 100});
    model.fit(split.train, rng);
    std::printf("dense_colocation scenario; model AUC %.3f\n\n",
                ml::roc_auc(split.test.y, model.predict_batch(split.test.x)));

    xai::TreeShap explainer;

    // --- 1. Per-incident diagnosis ----------------------------------------
    std::printf("== incident reports (top telemetry drivers per flagged chain) ==\n");
    int incidents = 0;
    std::vector<std::size_t> flagged;
    for (std::size_t i = 0; i < split.test.size() && incidents < 3; ++i) {
        const double p = model.predict(split.test.x.row(i));
        if (p < 0.8) continue;
        ++incidents;
        flagged.push_back(i);
        auto e = explainer.explain(model, split.test.x.row(i));
        e.feature_names = built.data.feature_names;
        std::printf("\nincident %d: predicted violation probability %.2f\n", incidents, p);
        std::printf("%s", e.to_string(5).c_str());
    }

    // --- 2. Fleet-level ranking --------------------------------------------
    std::printf("\n== fleet view: mean |SHAP| over all flagged chains ==\n");
    std::vector<std::size_t> all_flagged;
    for (std::size_t i = 0; i < split.test.size(); ++i)
        if (model.predict(split.test.x.row(i)) >= 0.5) all_flagged.push_back(i);
    if (all_flagged.size() > 100) all_flagged.resize(100);
    if (!all_flagged.empty()) {
        const auto g = xai::aggregate_explanations(
            explainer, model, split.test.x.take_rows(all_flagged),
            built.data.feature_names);
        std::printf("%s", g.to_string(6).c_str());
    }

    // --- 3. Policy summary --------------------------------------------------
    std::printf("\n== what the model believes (depth-3 surrogate policy) ==\n");
    const xai::BackgroundData background(split.train.x, 1024);
    const auto surrogate = xai::fit_surrogate(
        model, background, built.data.feature_names, rng,
        xai::SurrogateOptions{.max_depth = 3, .min_samples_leaf = 8});
    std::printf("(holdout fidelity R^2 = %.3f)\n%s", surrogate.fidelity_r2,
                surrogate.text.c_str());
    return 0;
}
