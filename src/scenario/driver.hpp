// Closed-loop NOC fleet driver: live scenario replay against a running
// explanation server, with per-phase SLO measurement and explanation-driven
// remediation.
//
// This is the subsystem that closes the loop the paper sketches and the
// repo's pieces have so far only exercised separately.  One run_scenario()
// call:
//
//   1. samples a fleet of deployments from a named workload scenario
//      (workload/scenario.hpp + sample_deployment), exactly as the dataset
//      builder would — but instead of flattening epochs into training rows,
//      it steps the DES simulator live;
//   2. converts every simulated chain-epoch's telemetry into an ND-JSON
//      `explain` request and replays the phase's full request set as many
//      concurrent pipelined clients (net/loadgen.hpp) against a running
//      server (net/sharded_server.hpp) of any shard count;
//   3. runs three phases — `baseline` (nominal traffic), `flash_crowd`
//      (offered load multiplied, driving the degradation ladder, breakers,
//      and attribution-drift flushes), and `remediated` (the flash traffic
//      again, after an explanation-chosen action was applied back into the
//      simulator state) — bracketing each with the fleet-wide `stats_reset`
//      op so every phase's counters are measured in isolation;
//   4. parses the served attributions of the worst violating chain, maps the
//      dominant telemetry driver to a remediation verb (nfv/remediation.hpp)
//      targeting the chain's bottleneck VNF, and applies it to the live
//      deployment between phases 2 and 3 — the simulator, not the model,
//      then judges the fix in phase 3;
//   5. emits a machine-readable SLO report: exact per-phase latency
//      percentiles from the load generator's per-request samples, the
//      degradation / breaker / drift-flush / cache counters from the
//      server's own stats, and a verdict against `slo_us`.
//
// Determinism contract: for a fixed (seed, scenario, phase geometry) the
// simulated event trace is identical across runs and across server shard
// counts (it never depends on the server at all), and the per-request
// response bytes are identical across shard counts up to the `cache_hit`
// flag (which depends on which shard's cache a connection hashed to —
// responses_hash normalizes it; the determinism tests additionally pin raw
// byte identity on degradation-free servers).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace xnfv::scenario {

struct DriverConfig {
    /// Server to replay against (must already be listening).
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Workload family: a standard_scenarios() name ("web_pop",
    /// "enterprise_edge", "video_edge", "iot_aggregation",
    /// "dense_colocation"), a fault family ("fault_cpu", "fault_link",
    /// "fault_burst", "fault_cache", "fault_memory", "fault_none"), or
    /// "mixed" (the default ScenarioSpec).
    std::string scenario = "enterprise_edge";
    /// Master seed: deployment sampling, traffic evolution, and every
    /// request's explainer seed derive from it.
    std::uint64_t seed = 2020;
    /// Deployments sampled into the fleet.
    std::size_t deployments = 2;
    /// Concurrent client connections per phase (requests are dealt
    /// round-robin across them).
    std::size_t connections = 32;
    /// Simulated epochs per deployment per phase.
    std::size_t epochs_per_phase = 4;
    /// Pipelining window per connection (net::LoadgenConfig::window).
    std::size_t window = 4;
    /// Explainer method for every request ("" = server default).
    std::string method = "tree_shap";
    /// Per-request "interactions": k (0 = plain requests).
    std::size_t interactions = 0;
    /// Offered-load multiplier of the flash_crowd (and remediated) phases.
    double flash_mult = 6.0;
    /// SLO on the exact client-side p99 round-trip, microseconds; 0 disables
    /// the verdict (slo_met then stays true).
    double slo_us = 0.0;
    /// Whole-phase loadgen deadline.
    std::chrono::milliseconds timeout{120000};
};

/// One phase's measurement window (all server counters are deltas since the
/// phase's stats_reset; latency percentiles are exact, computed from the
/// load generator's per-response round-trip samples, not histogram bins).
struct PhaseReport {
    std::string name;
    std::size_t requests = 0;   ///< explain lines sent
    std::size_t responses = 0;  ///< response lines received
    std::size_t errors = 0;     ///< responses with ok:false
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;
    double latency_max_us = 0.0;
    double latency_mean_us = 0.0;
    std::uint64_t completed = 0;      ///< server-side requests_completed
    std::uint64_t degraded = 0;       ///< responses below full fidelity
    std::uint64_t cache_hits = 0;
    std::uint64_t drift_flushes = 0;  ///< drift-triggered epoch bumps
    std::uint64_t breaker_opens = 0;  ///< circuit-breaker open transitions
    std::uint64_t sla_violations = 0; ///< simulated chain-epochs over SLA
    bool slo_met = true;              ///< p99 <= slo_us (true when slo_us == 0)
};

/// Everything one closed-loop run produced.
struct DriverReport {
    std::uint64_t seed = 0;
    std::string scenario;
    std::vector<PhaseReport> phases;
    /// Deterministic simulated event trace, one line per chain-epoch, in
    /// generation order — a pure function of (seed, scenario, geometry).
    std::vector<std::string> trace;
    std::uint64_t trace_hash = 0;  ///< FNV-1a over the trace lines
    /// Every response line of every phase, sorted by request id (raw bytes,
    /// cache_hit included) — what the determinism tests byte-compare.
    std::vector<std::string> responses;
    /// FNV-1a over the id-sorted responses with `"cache_hit":...` normalized
    /// (shard-count invariant even when caching differs per shard).
    std::uint64_t responses_hash = 0;
    /// Remediation applied between flash_crowd and remediated ("" when no
    /// chain violated, or the chosen action was infeasible).
    std::string action;
    std::string action_driver;  ///< top-|attribution| feature that chose it
    bool action_applied = false;
    bool slo_met = true;        ///< AND over the phase verdicts
    bool transport_ok = true;   ///< false on connect/IO failures
    std::string error;          ///< detail when !transport_ok

    /// Machine-readable SLO report (single JSON object, no newline).
    [[nodiscard]] std::string to_json() const;
};

/// Runs the full three-phase closed loop against the server at
/// `config.host:config.port`.  Throws std::runtime_error on an unknown
/// scenario name; transport failures are reported in the result instead
/// (transport_ok = false) so a partial report is still inspectable.
[[nodiscard]] DriverReport run_scenario(const DriverConfig& config);

}  // namespace xnfv::scenario
