// T5 — Closed-loop, simulator-validated remediation.
//
// The feature-space counterfactual (T4) asks the *model* whether a change
// would help; this experiment asks the *simulator* — the ground truth.  For
// freshly sampled deployments with mixed injected faults, each predicted
// violation is remediated by one of four policies and the same epoch is
// re-simulated:
//
//   explanation :  TreeSHAP's top telemetry driver selects the action kind
//                  (cpu counters -> scale, cache/memory/co-location ->
//                  spread, link counters -> co-locate, rules -> trim),
//                  applied to the chain's bottleneck VNF;
//   always_scale:  unconditionally grow the bottleneck's CPU (the obvious
//                  static playbook);
//   random      :  uniformly random action kind on the bottleneck;
//   none        :  do nothing (controls for transient violations).
//
// Reported: cure rate (violation gone after re-simulation) and mean latency
// reduction.  Expected shape: explanation-guided >= always_scale > random >>
// none, with the gap over always_scale coming from the non-CPU fault
// families where scaling the bottleneck is the wrong lever.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/flat_tree_shap.hpp"
#include "mlcore/metrics.hpp"
#include "nfv/remediation.hpp"
#include "nfv/simulator.hpp"

namespace ml = xnfv::ml;
namespace nfv = xnfv::nfv;
namespace wl = xnfv::wl;
namespace xai = xnfv::xai;
using namespace xnfv::bench;

namespace {

std::vector<wl::ScenarioSpec> fault_mix() {
    return {wl::fault_scenario(wl::FaultKind::cpu_starvation),
            wl::fault_scenario(wl::FaultKind::cache_contention),
            wl::fault_scenario(wl::FaultKind::link_saturation)};
}

/// Maps the top-attributed telemetry feature to a remediation action.
nfv::Action action_for_feature(const std::string& feature, std::uint32_t bottleneck,
                               const nfv::Deployment& dep,
                               const nfv::ServiceChain& chain) {
    if (feature == "max_cache_pressure" || feature == "colocated_vnfs" ||
        feature == "max_server_mem" || feature == "active_flows")
        return {.kind = nfv::ActionKind::migrate_spread, .target_vnf = bottleneck};
    if (feature == "max_link_util" || feature == "hop_count")
        return {.kind = nfv::ActionKind::migrate_colocate, .target_vnf = bottleneck};
    if (feature == "total_rules") {
        // Trim the rule-heaviest matcher on the chain.
        std::uint32_t target = bottleneck;
        std::uint32_t best_rules = 0;
        for (const std::uint32_t vid : chain.vnf_ids) {
            if (dep.vnf(vid).num_rules > best_rules) {
                best_rules = dep.vnf(vid).num_rules;
                target = vid;
            }
        }
        return {.kind = nfv::ActionKind::reduce_rules, .target_vnf = target,
                .magnitude = 0.5};
    }
    // CPU counters, allocations, and all demand-side features: the only
    // capacity lever left is scaling the bottleneck.
    return {.kind = nfv::ActionKind::scale_up_cpu, .target_vnf = bottleneck,
            .magnitude = 1.0};
}

struct PolicyStats {
    std::string name;
    std::size_t attempted = 0;
    std::size_t cured = 0;
    double latency_drop_ms = 0.0;
};

}  // namespace

int main() {
    // Train the violation model on the same fault mix the evaluation draws
    // from (disjoint seeds), exactly like the T3 diagnosis setting.
    ml::Rng train_rng(4242);
    wl::BuildOptions opt;
    opt.num_samples = 6000;
    const auto built = wl::build_mixed_dataset(fault_mix(), opt, train_rng);
    auto split = ml::train_test_split(built.data, 0.25, train_rng);
    const auto model = train_forest(split.train, 424);
    const double auc = ml::roc_auc(split.test.y, model.predict_batch(split.test.x));

    xai::TreeShap explainer;
    std::vector<PolicyStats> policies{
        {.name = "explanation"}, {.name = "always_scale"}, {.name = "random"},
        {.name = "none"}};

    ml::Rng eval_rng(777);
    ml::Rng policy_rng(778);
    const auto scenarios = fault_mix();
    std::size_t violations_seen = 0;

    for (std::size_t trial = 0; trial < 150; ++trial) {
        // Sample a deployment + one epoch of traffic, reusing the dataset
        // builder in miniature (one deployment, one epoch).
        wl::BuildOptions one;
        one.num_samples = scenarios[trial % scenarios.size()].chains.size();
        one.epochs_per_deployment = 1;
        // Rebuild the raw deployment by hand so we can mutate and re-simulate.
        ml::Rng dep_rng = eval_rng.split();
        // (Deployment sampling lives inside build_dataset; here we rebuild a
        // comparable one directly.)
        const wl::ScenarioSpec& spec = scenarios[trial % scenarios.size()];
        nfv::Infrastructure infra =
            nfv::Infrastructure::homogeneous_pop(spec.num_servers, nfv::Server{},
                                                 spec.link_bps);
        nfv::Deployment dep;
        std::vector<wl::TrafficGenerator> traffic;
        const bool inject = dep_rng.bernoulli(spec.fault_prob);
        if (inject && spec.fault == wl::FaultKind::link_saturation) {
            nfv::Infrastructure squeezed;
            for (const auto& s : infra.servers()) squeezed.add_server(s);
            for (auto link : infra.links()) {
                link.capacity_bps *= dep_rng.uniform(0.04, 0.12);
                squeezed.add_link(link);
            }
            infra = std::move(squeezed);
        }
        const std::size_t starved =
            inject && spec.fault == wl::FaultKind::cpu_starvation
                ? dep_rng.uniform_index(spec.chains.size())
                : spec.chains.size();
        for (std::size_t c = 0; c < spec.chains.size(); ++c) {
            double cores = dep_rng.uniform(spec.cpu_cores_lo, spec.cpu_cores_hi);
            if (c == starved) cores *= dep_rng.uniform(0.10, 0.25);
            nfv::SlaSpec sla;
            sla.max_latency_s =
                dep_rng.uniform(spec.sla_latency_ms_lo, spec.sla_latency_ms_hi) * 1e-3;
            nfv::make_chain(dep, std::string(wl::to_string(spec.chains[c])),
                            wl::chain_types(spec.chains[c]), cores, sla,
                            static_cast<std::uint32_t>(
                                dep_rng.uniform_int(spec.rules_lo, spec.rules_hi)));
        }
        if (!nfv::place(dep, infra, spec.placement, dep_rng))
            for (auto& v : dep.vnfs)
                if (v.server < 0) v.server = 0;
        std::vector<nfv::OfferedLoad> loads;
        for (std::size_t c = 0; c < spec.chains.size(); ++c) {
            wl::TrafficSpec ts;
            ts.base_pps = dep_rng.uniform(spec.base_pps_lo, spec.base_pps_hi);
            ts.pkt_bytes_mean = dep_rng.uniform(spec.pkt_bytes_lo, spec.pkt_bytes_hi);
            ts.burst_ratio = dep_rng.uniform(spec.burst_ratio_lo, spec.burst_ratio_hi);
            if (inject && spec.fault == wl::FaultKind::cache_contention)
                ts.flows_per_kpps = dep_rng.uniform(1500.0, 4000.0);
            wl::TrafficGenerator gen(ts, dep_rng.split());
            loads.push_back(gen.next_epoch(trial));
        }

        const auto epoch = nfv::simulate_epoch(dep, infra, loads);
        for (std::size_t c = 0; c < dep.chains.size(); ++c) {
            if (!epoch.chains[c].sla_violated) continue;
            ++violations_seen;
            const auto cid = static_cast<std::uint32_t>(c);
            const auto features = nfv::extract_features(
                nfv::FeatureSet::full_telemetry, dep, infra, loads, epoch, cid);
            const std::uint32_t bottleneck =
                nfv::bottleneck_vnf(dep, dep.chains[c], epoch);

            for (PolicyStats& policy : policies) {
                nfv::Action action{.kind = nfv::ActionKind::none};
                if (policy.name == "explanation") {
                    auto e = explainer.explain(model, features);
                    e.feature_names = built.data.feature_names;
                    const auto top = e.top_k(1);
                    action = action_for_feature(e.feature_names[top[0]], bottleneck,
                                                dep, dep.chains[c]);
                } else if (policy.name == "always_scale") {
                    action = {.kind = nfv::ActionKind::scale_up_cpu,
                              .target_vnf = bottleneck, .magnitude = 1.0};
                } else if (policy.name == "random") {
                    const nfv::ActionKind kinds[] = {
                        nfv::ActionKind::scale_up_cpu, nfv::ActionKind::migrate_spread,
                        nfv::ActionKind::migrate_colocate, nfv::ActionKind::reduce_rules};
                    action = {.kind = kinds[policy_rng.uniform_index(4)],
                              .target_vnf = bottleneck, .magnitude = 0.5};
                }
                nfv::Deployment mutated = dep;
                (void)nfv::apply_action(mutated, infra, action);
                const auto after = nfv::simulate_epoch(mutated, infra, loads);
                ++policy.attempted;
                if (!after.chains[c].sla_violated) ++policy.cured;
                policy.latency_drop_ms +=
                    (epoch.chains[c].latency_s - after.chains[c].latency_s) * 1e3;
            }
        }
    }

    print_header("T5", "closed-loop remediation validated by re-simulation");
    std::printf("model AUC %.3f; %zu violating chain-epochs remediated per policy\n\n",
                auc, violations_seen);
    print_rule();
    std::printf("%-14s %12s %20s\n", "policy", "cure rate", "mean dLatency (ms)");
    print_rule();
    for (const PolicyStats& policy : policies) {
        std::printf("%-14s %11.1f%% %20.3f\n", policy.name.c_str(),
                    policy.attempted ? 100.0 * policy.cured / policy.attempted : 0.0,
                    policy.attempted ? policy.latency_drop_ms / policy.attempted : 0.0);
    }
    std::printf("\nexpected shape: explanation >= always_scale > random >> none; the\n"
                "edge over always_scale comes from cache/link faults where scaling\n"
                "the bottleneck is the wrong lever.\n");
    return 0;
}
