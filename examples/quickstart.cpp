// Quickstart: the whole xnfv pipeline in ~80 lines.
//
//   1. simulate an NFV point-of-presence under mixed workloads,
//   2. train a random forest to predict SLA violations from telemetry,
//   3. explain one prediction with TreeSHAP,
//   4. print the operator-facing attribution report.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/flat_tree_shap.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/metrics.hpp"
#include "workload/dataset_builder.hpp"

namespace ml = xnfv::ml;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;

int main() {
    // 1. Generate a labelled dataset by sweeping the standard scenario
    //    library through the flow-level NFV simulator.
    ml::Rng rng(2020);
    wl::BuildOptions options;
    options.num_samples = 4000;
    const auto built = wl::build_mixed_dataset(wl::standard_scenarios(), options, rng);
    std::printf("dataset: %zu chain-epochs, %zu features, violation rate %.1f%%\n",
                built.data.size(), built.data.num_features(),
                100.0 * built.data.positive_rate());

    // 2. Train the SLA-violation classifier.
    auto split = ml::train_test_split(built.data, 0.25, rng);
    ml::RandomForest forest(ml::RandomForest::Config{.num_trees = 80});
    forest.fit(split.train, rng);
    const double auc = ml::roc_auc(split.test.y, forest.predict_batch(split.test.x));
    std::printf("random forest AUC on held-out data: %.3f\n\n", auc);

    // 3. Pick the most confidently predicted violation in the test set.
    std::size_t worst = 0;
    double worst_prob = -1.0;
    for (std::size_t i = 0; i < split.test.size(); ++i) {
        const double p = forest.predict(split.test.x.row(i));
        if (p > worst_prob) {
            worst_prob = p;
            worst = i;
        }
    }
    std::printf("explaining test instance #%zu (predicted violation prob %.2f)\n",
                worst, worst_prob);

    // 4. Explain it: which telemetry counters push this chain into violation?
    xai::TreeShap explainer;
    auto explanation = explainer.explain(forest, split.test.x.row(worst));
    explanation.feature_names = built.data.feature_names;
    std::printf("%s", explanation.to_string(8).c_str());

    std::printf("\n(additivity check: base %.3f + sum(phi) = %.3f vs prediction %.3f)\n",
                explanation.base_value, explanation.additive_reconstruction(),
                explanation.prediction);
    return 0;
}
