// A3 — Unmasking a "Clever Hans" NFV model with explanations.
//
// The classic XAI debugging story, staged in the NFV setting: a telemetry
// pipeline accidentally exports a *leaky* counter — here, a synthetic
// "alarm_count" column that during data collection was populated from the
// very SLA monitor the model is supposed to predict (label + noise).  The
// model looks superb on held-out data from the same pipeline, collapses once
// the leak is fixed, and the point of the experiment is that the *global
// SHAP ranking flags the leak before deployment*: one feature towers over
// the physically meaningful counters.
//
// Printed: accuracy with/without the leak at evaluation time, and the global
// |SHAP| ranking that exposes the reliance.
#include <cstdio>

#include "bench_util.hpp"
#include "core/aggregate.hpp"
#include "core/flat_tree_shap.hpp"
#include "mlcore/metrics.hpp"

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;
using namespace xnfv::bench;

namespace {

/// Appends the leaky column: label + Bernoulli noise, scaled like a counter.
ml::Dataset with_leak(const ml::Dataset& d, bool leak_works, ml::Rng& rng) {
    ml::Dataset out;
    out.task = d.task;
    out.feature_names = d.feature_names;
    out.feature_names.push_back("alarm_count");
    for (std::size_t i = 0; i < d.size(); ++i) {
        std::vector<double> row(d.x.row(i).begin(), d.x.row(i).end());
        double alarms;
        if (leak_works) {
            // 92% faithful to the label — a very convincing artifact.
            const bool flip = rng.bernoulli(0.08);
            alarms = (d.y[i] > 0.5) != flip ? rng.uniform(3.0, 9.0)
                                            : rng.uniform(0.0, 1.0);
        } else {
            // Pipeline fixed: the counter is now unrelated noise.
            alarms = rng.uniform(0.0, 9.0);
        }
        row.push_back(alarms);
        out.add(row, d.y[i]);
    }
    return out;
}

}  // namespace

int main() {
    // Config-only features: the pre-deployment prediction task is genuinely
    // hard (no utilization counters), so a leaky shortcut is exactly what a
    // lazy learner will latch onto — the Clever Hans setting.
    const auto task = make_sla_task(8000, /*seed=*/2468,
                                    xnfv::nfv::LabelKind::sla_violation,
                                    xnfv::nfv::FeatureSet::config_only);
    ml::Rng rng(1357);

    // Training data comes from the buggy pipeline.
    const auto train_leaky = with_leak(task.train, /*leak_works=*/true, rng);
    const auto test_leaky = with_leak(task.test, /*leak_works=*/true, rng);
    const auto test_fixed = with_leak(task.test, /*leak_works=*/false, rng);

    const auto model = train_forest(train_leaky, /*seed=*/24);

    print_header("A3", "Clever Hans detection: a leaky telemetry counter");
    print_rule();
    const auto auc_leaky = ml::roc_auc(test_leaky.y, model.predict_batch(test_leaky.x));
    const auto auc_fixed = ml::roc_auc(test_fixed.y, model.predict_batch(test_fixed.x));
    std::printf("AUC on held-out data from the buggy pipeline:   %.4f\n", auc_leaky);
    std::printf("AUC after the pipeline bug is fixed:            %.4f\n", auc_fixed);

    // Reference model trained without the leak.
    const auto clean_model = train_forest(task.train, /*seed=*/25);
    std::printf("AUC of a model trained without the counter:     %.4f\n",
                ml::roc_auc(task.test.y, clean_model.predict_batch(task.test.x)));

    std::printf("\nglobal |SHAP| ranking of the leaky model (100 instances):\n");
    xai::TreeShap explainer;
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < 100 && i < test_leaky.size(); ++i) rows.push_back(i);
    const auto g = xai::aggregate_explanations(
        explainer, model, test_leaky.x.take_rows(rows), test_leaky.feature_names);
    const auto order = g.ranking();
    for (std::size_t k = 0; k < 5; ++k) {
        const std::size_t j = order[k];
        std::printf("  %zu. %-20s mean|phi|=%8.4f\n", k + 1,
                    g.feature_names[j].c_str(), g.mean_abs[j]);
    }
    const std::size_t leak_idx = test_leaky.num_features() - 1;
    std::printf("\nleak feature rank: %zu of %zu; attribution share %.1f%%\n",
                static_cast<std::size_t>(
                    std::find(order.begin(), order.end(), leak_idx) - order.begin()) + 1,
                order.size(), [&] {
                    double total = 0.0;
                    for (double v : g.mean_abs) total += v;
                    return total > 0.0 ? 100.0 * g.mean_abs[leak_idx] / total : 0.0;
                }());
    std::printf("\nexpected shape: the leaky model tops the leaderboard while the\n"
                "pipeline is buggy, then drops *below the leak-free model* once the\n"
                "bug is fixed — and the SHAP ranking places alarm_count first by a\n"
                "wide margin, catching the artifact before deployment.\n");
    return 0;
}
