#include "scenario/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "mlcore/rng.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "nfv/remediation.hpp"
#include "nfv/simulator.hpp"
#include "nfv/telemetry.hpp"
#include "serve/fnv.hpp"
#include "serve/ndjson.hpp"
#include "workload/dataset_builder.hpp"

namespace xnfv::scenario {

namespace nfv = xnfv::nfv;
namespace wl = xnfv::wl;

namespace {

[[nodiscard]] wl::ScenarioSpec resolve_scenario(const std::string& name) {
    if (name == "mixed") return wl::ScenarioSpec{};
    for (const auto& spec : wl::standard_scenarios())
        if (spec.name == name) return spec;
    for (const wl::FaultKind f :
         {wl::FaultKind::none, wl::FaultKind::cpu_starvation,
          wl::FaultKind::link_saturation, wl::FaultKind::traffic_burst,
          wl::FaultKind::cache_contention, wl::FaultKind::memory_pressure}) {
        auto spec = wl::fault_scenario(f);
        if (spec.name == name) return spec;
    }
    throw std::runtime_error("unknown scenario '" + name +
                             "' (expected a standard_scenarios() name, a "
                             "fault_* family, or \"mixed\")");
}

/// %.17g rendering shared with the wire format, so trace doubles round-trip.
[[nodiscard]] std::string num(double v) { return serve::json_number(v); }

/// Exact quantile of an ascending-sorted sample set (linear interpolation
/// between order statistics) — the satellite contract: phase percentiles come
/// from real per-request samples, never histogram bins.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] std::uint64_t hash_lines(const std::vector<std::string>& lines) {
    std::uint64_t h = serve::kFnvOffsetBasis;
    for (const auto& line : lines) {
        h = serve::fnv1a(
            {reinterpret_cast<const std::uint8_t*>(line.data()), line.size()}, h);
        h = serve::fnv1a_u64('\n', h);
    }
    return h;
}

/// Replaces the value of `"cache_hit":...` with `_`: which shard's cache a
/// connection hashed to is the one legitimately timing-dependent byte of an
/// otherwise deterministic response stream.
[[nodiscard]] std::string normalize_cache_hit(const std::string& line) {
    static const std::string kKey = "\"cache_hit\":";
    const auto pos = line.find(kKey);
    if (pos == std::string::npos) return line;
    const auto value_at = pos + kKey.size();
    auto end = value_at;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    return line.substr(0, value_at) + "_" + line.substr(end);
}

[[nodiscard]] std::string hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// What one request explained, kept so responses can be mapped back to the
/// simulated chain-epoch that produced them (remediation needs this).
struct RequestMeta {
    std::size_t phase = 0;
    std::size_t dep = 0;
    std::uint32_t chain = 0;
    double latency_s = 0.0;
    bool sla_violated = false;
    std::uint32_t bottleneck = 0;
};

struct ControlError {
    std::string what;
};

/// One blocking control exchange on its own connection (stats_reset / stats).
[[nodiscard]] std::string control_op(const DriverConfig& config,
                                     const std::string& line, std::string* error) {
    net::Client client;
    std::string why;
    if (!client.connect(config.host, config.port, &why,
                        std::chrono::milliseconds{5000})) {
        if (error) *error = "control connect failed: " + why;
        return {};
    }
    std::string reply;
    if (!client.send_line(line) || !client.recv_line(reply, config.timeout)) {
        if (error) *error = "control op '" + line + "' got no reply";
        return {};
    }
    return reply;
}

}  // namespace

std::string DriverReport::to_json() const {
    serve::JsonWriter w;
    w.field("ok", transport_ok);
    w.field("op", "scenario");
    w.field("scenario", scenario);
    w.field("seed", seed);
    w.field("slo_met", slo_met);
    if (!transport_ok) w.field("error", error);
    w.field("trace_lines", static_cast<std::uint64_t>(trace.size()));
    w.field("trace_hash", hex64(trace_hash));
    w.field("responses_hash", hex64(responses_hash));
    w.field("action", action);
    w.field("action_driver", action_driver);
    w.field("action_applied", action_applied);
    std::string parr = "[";
    for (const PhaseReport& p : phases) {
        if (parr.size() > 1) parr += ',';
        serve::JsonWriter pw;
        pw.field("name", p.name);
        pw.field("requests", static_cast<std::uint64_t>(p.requests));
        pw.field("responses", static_cast<std::uint64_t>(p.responses));
        pw.field("errors", static_cast<std::uint64_t>(p.errors));
        pw.field("latency_p50_us", p.latency_p50_us);
        pw.field("latency_p95_us", p.latency_p95_us);
        pw.field("latency_p99_us", p.latency_p99_us);
        pw.field("latency_max_us", p.latency_max_us);
        pw.field("latency_mean_us", p.latency_mean_us);
        pw.field("completed", p.completed);
        pw.field("degraded", p.degraded);
        pw.field("cache_hits", p.cache_hits);
        pw.field("drift_flushes", p.drift_flushes);
        pw.field("breaker_opens", p.breaker_opens);
        pw.field("sla_violations", p.sla_violations);
        pw.field("slo_met", p.slo_met);
        parr += pw.finish();
    }
    parr += ']';
    w.field_raw("phases", parr);
    return w.finish();
}

DriverReport run_scenario(const DriverConfig& config) {
    const wl::ScenarioSpec spec = resolve_scenario(config.scenario);
    DriverReport report;
    report.seed = config.seed;
    report.scenario = spec.name;

    // The fleet: sampled once, stepped live through every phase.  Traffic
    // generators carry their MMPP state across phases, so the flash phase
    // hits a fleet whose load history is the baseline's continuation.
    ml::Rng rng(config.seed);
    std::vector<wl::SampledDeployment> fleet;
    const std::size_t n_deps = std::max<std::size_t>(1, config.deployments);
    fleet.reserve(n_deps);
    for (std::size_t d = 0; d < n_deps; ++d)
        fleet.push_back(wl::sample_deployment(spec, rng));
    std::vector<std::size_t> epoch_cursor(n_deps, 0);

    const auto feature_names = nfv::feature_names(nfv::FeatureSet::full_telemetry);
    const std::size_t n_conns = std::max<std::size_t>(1, config.connections);

    struct Phase {
        const char* name;
        double mult;
    };
    const Phase phase_plan[3] = {
        {"baseline", 1.0},
        {"flash_crowd", config.flash_mult},
        {"remediated", config.flash_mult},
    };

    std::uint64_t next_id = 1;
    std::vector<RequestMeta> meta;              // meta[id - 1]
    std::vector<std::pair<std::uint64_t, std::string>> all_responses;

    // Worst violating chain-epoch seen in the flash phase: the incident the
    // served explanation is asked to diagnose.
    bool have_incident = false;
    std::uint64_t incident_id = 0;
    double incident_latency = 0.0;
    std::size_t incident_dep = 0;
    std::uint32_t incident_bottleneck = 0;

    const auto fail = [&report](std::string why) -> DriverReport& {
        report.transport_ok = false;
        report.slo_met = false;
        report.error = std::move(why);
        return report;
    };

    for (std::size_t pi = 0; pi < 3; ++pi) {
        const Phase& phase = phase_plan[pi];
        PhaseReport pr;
        pr.name = phase.name;

        // Phase boundary: zero the fleet's counters so this phase's stats
        // snapshot measures only its own traffic.
        std::string control_why;
        const auto reset_reply =
            control_op(config, R"({"op":"stats_reset"})", &control_why);
        if (reset_reply.empty()) {
            report.phases.push_back(std::move(pr));
            return fail(std::move(control_why));
        }

        // Simulate the phase and build its request scripts.  This block is a
        // pure function of (seed, scenario, geometry, prior remediation) —
        // the server is not consulted, which is what makes the trace
        // deterministic across runs and shard counts.
        std::vector<std::vector<std::string>> scripts(n_conns);
        const std::uint64_t first_id = next_id;
        std::size_t rr = 0;
        for (std::size_t e = 0; e < config.epochs_per_phase; ++e) {
            for (std::size_t d = 0; d < n_deps; ++d) {
                wl::SampledDeployment& fleet_dep = fleet[d];
                std::vector<nfv::OfferedLoad> loads;
                loads.reserve(fleet_dep.traffic.size());
                for (auto& gen : fleet_dep.traffic)
                    loads.push_back(gen.next_epoch(epoch_cursor[d]));
                ++epoch_cursor[d];
                for (auto& load : loads) {
                    load.pps *= phase.mult;
                    load.active_flows *= phase.mult;
                }
                const auto epoch =
                    nfv::simulate_epoch(fleet_dep.dep, fleet_dep.infra, loads);
                for (std::size_t c = 0; c < fleet_dep.dep.chains.size(); ++c) {
                    const auto& chain = epoch.chains[c];
                    if (chain.sla_violated) ++pr.sla_violations;
                    report.trace.push_back(
                        std::string("phase=") + phase.name + " dep=" +
                        std::to_string(d) + " epoch=" + std::to_string(e) +
                        " chain=" + std::to_string(c) +
                        " latency_s=" + num(chain.latency_s) +
                        " goodput=" + num(chain.goodput_frac) +
                        " sla=" + (chain.sla_violated ? "1" : "0") +
                        " bottleneck=" + std::to_string(chain.bottleneck_vnf) +
                        " util=" + num(chain.bottleneck_utilization) +
                        " hops=" + std::to_string(chain.hop_count));

                    net::RequestSpec rs;
                    rs.id = next_id++;
                    rs.features = nfv::extract_features(
                        nfv::FeatureSet::full_telemetry, fleet_dep.dep,
                        fleet_dep.infra, loads, epoch,
                        static_cast<std::uint32_t>(c));
                    rs.method = config.method;
                    rs.seed = config.seed;
                    rs.interactions = config.interactions;
                    scripts[rr++ % n_conns].push_back(
                        net::render_request_line(rs));
                    meta.push_back(RequestMeta{
                        pi, d, static_cast<std::uint32_t>(c), chain.latency_s,
                        chain.sla_violated, chain.bottleneck_vnf});

                    if (pi == 1 && chain.sla_violated &&
                        (!have_incident || chain.latency_s > incident_latency)) {
                        have_incident = true;
                        incident_id = rs.id;
                        incident_latency = chain.latency_s;
                        incident_dep = d;
                        incident_bottleneck = chain.bottleneck_vnf;
                    }
                }
            }
        }
        pr.requests = static_cast<std::size_t>(next_id - first_id);

        // Replay the phase as concurrent live clients.
        net::LoadgenConfig lg;
        lg.host = config.host;
        lg.port = config.port;
        lg.window = std::max<std::size_t>(1, config.window);
        lg.shutdown_writes = true;
        lg.record_latency = true;
        lg.timeout = config.timeout;
        const net::LoadReport load = net::run_load(lg, scripts);
        if (load.timed_out) {
            report.phases.push_back(std::move(pr));
            return fail("phase '" + pr.name + "' timed out");
        }
        std::vector<double> latencies;
        for (const net::ConnReport& conn : load.conns) {
            if (conn.connect_failed || conn.io_error) {
                report.phases.push_back(std::move(pr));
                return fail("phase '" + pr.name + "': connection " +
                            std::string(conn.connect_failed ? "refused"
                                                            : "errored"));
            }
            pr.responses += conn.lines.size();
            latencies.insert(latencies.end(), conn.latency_us.begin(),
                             conn.latency_us.end());
            for (const std::string& line : conn.lines) {
                std::uint64_t id = 0;
                bool ok = false;
                try {
                    const auto v = serve::parse_json(line);
                    id = static_cast<std::uint64_t>(v.get_number("id", 0));
                    ok = v.find("ok") != nullptr && v.find("ok")->boolean;
                } catch (const std::exception&) {
                }
                if (!ok) ++pr.errors;
                all_responses.emplace_back(id, line);
            }
        }
        std::sort(latencies.begin(), latencies.end());
        pr.latency_p50_us = quantile_sorted(latencies, 0.50);
        pr.latency_p95_us = quantile_sorted(latencies, 0.95);
        pr.latency_p99_us = quantile_sorted(latencies, 0.99);
        if (!latencies.empty()) {
            pr.latency_max_us = latencies.back();
            double sum = 0.0;
            for (const double v : latencies) sum += v;
            pr.latency_mean_us = sum / static_cast<double>(latencies.size());
        }

        // Phase-scoped server counters (everything since the reset).
        const auto stats_reply =
            control_op(config, R"({"op":"stats"})", &control_why);
        if (stats_reply.empty()) {
            report.phases.push_back(std::move(pr));
            return fail(std::move(control_why));
        }
        try {
            const auto stats = serve::parse_json(stats_reply);
            pr.completed =
                static_cast<std::uint64_t>(stats.get_number("requests_completed", 0));
            pr.degraded =
                static_cast<std::uint64_t>(stats.get_number("requests_degraded", 0));
            pr.cache_hits =
                static_cast<std::uint64_t>(stats.get_number("cache_hits", 0));
            pr.drift_flushes =
                static_cast<std::uint64_t>(stats.get_number("drift_flushes", 0));
            if (const auto* models = stats.find("models");
                models != nullptr &&
                models->type == serve::JsonValue::Type::array) {
                for (const auto& m : models->array)
                    pr.breaker_opens += static_cast<std::uint64_t>(
                        m.get_number("breaker_opens", 0));
            }
        } catch (const std::exception& e) {
            report.phases.push_back(std::move(pr));
            return fail(std::string("stats parse failed: ") + e.what());
        }

        pr.slo_met = config.slo_us <= 0.0 || pr.latency_p99_us <= config.slo_us;
        report.slo_met = report.slo_met && pr.slo_met;
        report.phases.push_back(std::move(pr));

        // Between flash_crowd and remediated: diagnose the worst violating
        // chain from its *served* attributions and apply the chosen action
        // back into the simulator state.  The remediated phase then re-drives
        // the same (continued) traffic against the repaired fleet.
        if (pi == 1 && have_incident) {
            const std::string* incident_line = nullptr;
            for (const auto& [id, line] : all_responses)
                if (id == incident_id) {
                    incident_line = &line;
                    break;
                }
            if (incident_line != nullptr) {
                try {
                    const auto v = serve::parse_json(*incident_line);
                    const auto* attrs = v.find("attributions");
                    if (v.find("ok") != nullptr && v.find("ok")->boolean &&
                        attrs != nullptr &&
                        attrs->type == serve::JsonValue::Type::array &&
                        attrs->array.size() == feature_names.size()) {
                        std::size_t top = 0;
                        double best = -1.0;
                        for (std::size_t i = 0; i < attrs->array.size(); ++i) {
                            const double a = std::abs(attrs->array[i].number);
                            if (a > best) {
                                best = a;
                                top = i;
                            }
                        }
                        report.action_driver = feature_names[top];
                        // The driver->verb mapping of the closed-loop
                        // example: contention drivers spread, locality
                        // drivers co-locate, rule bloat shrinks the table,
                        // anything else grows the bottleneck's CPU.
                        nfv::Action action;
                        action.kind = nfv::ActionKind::scale_up_cpu;
                        action.target_vnf = incident_bottleneck;
                        action.magnitude = 3.0;
                        const std::string& top_name = report.action_driver;
                        if (top_name == "max_cache_pressure" ||
                            top_name == "colocated_vnfs" ||
                            top_name == "max_server_mem")
                            action.kind = nfv::ActionKind::migrate_spread;
                        else if (top_name == "max_link_util" ||
                                 top_name == "hop_count")
                            action.kind = nfv::ActionKind::migrate_colocate;
                        else if (top_name == "total_rules") {
                            action.kind = nfv::ActionKind::reduce_rules;
                            action.magnitude = 0.5;
                        }
                        report.action = action.to_string(fleet[incident_dep].dep);
                        report.action_applied = nfv::apply_action(
                            fleet[incident_dep].dep, fleet[incident_dep].infra,
                            action);
                    }
                } catch (const std::exception&) {
                    // An unparseable incident response just skips remediation;
                    // the remediated phase then measures the unrepaired fleet.
                }
            }
        }
    }

    std::sort(all_responses.begin(), all_responses.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    report.responses.reserve(all_responses.size());
    std::vector<std::string> normalized;
    normalized.reserve(all_responses.size());
    for (auto& [id, line] : all_responses) {
        normalized.push_back(normalize_cache_hit(line));
        report.responses.push_back(std::move(line));
    }
    report.trace_hash = hash_lines(report.trace);
    report.responses_hash = hash_lines(normalized);
    return report;
}

}  // namespace xnfv::scenario
