// T3 — Operator-facing global diagnosis by root cause.
//
// Builds one dataset per fault-injection family (CPU starvation, link
// saturation, traffic burst, cache contention, memory pressure), trains the
// SLA classifier, and prints the top telemetry features by mean |SHAP| over
// the *violating, fault-injected* instances.  Expected shape: each family's
// ranking is dominated by the counters causally tied to the injected fault —
// this is the experiment a real testbed cannot run, because only the
// simulator knows the true cause.
#include <cstdio>

#include "bench_util.hpp"
#include "core/aggregate.hpp"
#include "core/flat_tree_shap.hpp"
#include "mlcore/metrics.hpp"

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;
namespace wl = xnfv::wl;
using namespace xnfv::bench;

int main() {
    print_header("T3", "global |SHAP| ranking per injected root cause");

    const std::vector<wl::FaultKind> faults{
        wl::FaultKind::cpu_starvation, wl::FaultKind::link_saturation,
        wl::FaultKind::traffic_burst, wl::FaultKind::cache_contention,
        wl::FaultKind::memory_pressure};

    xai::TreeShap explainer;
    std::uint64_t seed = 500;
    for (const auto fault : faults) {
        ml::Rng rng(seed++);
        wl::BuildOptions opt;
        opt.num_samples = 3000;
        const auto built = wl::build_dataset(wl::fault_scenario(fault), opt, rng);

        auto split = ml::train_test_split(built.data, 0.25, rng);
        const auto forest = train_forest(split.train, seed);
        const double auc =
            ml::roc_auc(split.test.y, forest.predict_batch(split.test.x));

        // Violating + fault-injected rows only.
        std::vector<std::size_t> rows;
        for (std::size_t i = 0; i < built.data.size(); ++i)
            if (built.fault[i] == fault && built.data.y[i] == 1.0) rows.push_back(i);
        if (rows.size() > 80) rows.resize(80);

        std::printf("\nfault=%s  (model AUC %.3f, %zu explained instances)\n",
                    wl::to_string(fault), auc, rows.size());
        print_rule();
        if (rows.empty()) {
            std::printf("  no violating fault-injected instances generated\n");
            continue;
        }
        const auto g = xai::aggregate_explanations(
            explainer, forest, built.data.x.take_rows(rows), built.data.feature_names);
        const auto order = g.ranking();
        for (std::size_t k = 0; k < 5 && k < order.size(); ++k) {
            const std::size_t j = order[k];
            std::printf("  %zu. %-20s mean|phi|=%8.4f mean(phi)=%+8.4f\n", k + 1,
                        g.feature_names[j].c_str(), g.mean_abs[j], g.mean_signed[j]);
        }
    }
    std::printf(
        "\nexpected shape: cpu fault -> cpu counters; link fault -> max_link_util;\n"
        "burst fault -> burstiness_ca2; cache fault -> max_cache_pressure/flows;\n"
        "memory fault -> max_server_mem/flows.\n");
    return 0;
}
