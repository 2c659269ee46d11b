#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dimetrodon::obs {

/// Per-logical-core counters, incremented inline by the machine regardless of
/// whether a trace sink is attached (plain integer adds; the registry is the
/// always-on half of the observability layer).
struct CoreCounters {
  std::uint64_t dispatches = 0;        // threads placed on this core
  std::uint64_t context_switches = 0;  // dispatches that charged a switch
  std::uint64_t injections = 0;        // idle quanta injected here
  std::uint64_t injected_idle_ns = 0;  // completed injected-idle residency
  std::uint64_t idle_ns = 0;           // total idle span (incl. transitions)
  std::uint64_t c1e_residency_ns = 0;  // settled time in the idle C-state
  std::uint64_t cstate_entries = 0;    // idle-path entries
};

/// Machine-wide counter totals: the flat, serializable summary surfaced in
/// harness::RunResult and merged into sweep metrics JSON. Fieldwise
/// subtraction yields window deltas.
struct CounterTotals {
  std::uint64_t dispatches = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t injections = 0;
  std::uint64_t injected_idle_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t c1e_residency_ns = 0;
  std::uint64_t cstate_entries = 0;
  std::uint64_t prochot_activations = 0;
  std::uint64_t dvfs_changes = 0;
  std::uint64_t meter_samples = 0;
  std::uint64_t sensor_samples = 0;  // trace-only sampler; 0 without a sink
  std::uint64_t requests_completed = 0;

  // Cluster-scope counters (src/cluster). A machine never increments these;
  // the cluster's load balancer and drain logic do, through a cluster-owned
  // tracer, and the cluster folds them into its aggregated totals.
  std::uint64_t requests_routed = 0;  // dispatch decisions made
  std::uint64_t node_drains = 0;      // PROCHOT failover engagements
  std::uint64_t fleet_samples = 0;    // batched fleet-wide telemetry sweeps

  // Scenario-layer counters (src/scenario directives acting on a cluster).
  // All zero outside scenario runs; shed/re-homed nonzero means requests
  // were intentionally dropped or migrated by churn — surfaced in sweep
  // metrics so long scenario runs cannot lose data silently.
  std::uint64_t scenario_directives = 0;  // script directives applied
  std::uint64_t node_joins = 0;           // nodes joined mid-run
  std::uint64_t node_removals = 0;        // nodes removed mid-run
  std::uint64_t requests_shed = 0;        // arrivals with no routable node
  std::uint64_t requests_rehomed = 0;     // cancelled + re-routed requests
  /// Non-finite latency samples dropped by the cluster's streaming
  /// percentile histogram (PercentileHistogram::rejected()) — nonzero means
  /// the reported p50/p95/p99 silently exclude samples.
  std::uint64_t latency_rejects = 0;

  // Thermal-engine work counters (mirrored from RcNetwork::stats() at every
  // advance): how the closed-form fast-forward is spending its effort.
  std::uint64_t thermal_substeps = 0;            // substeps integrated
  std::uint64_t thermal_fast_forward_steps = 0;  // covered by lifted matvecs
  std::uint64_t thermal_factorizations = 0;      // step-matrix LU factors
  std::uint64_t thermal_matvecs = 0;             // matvec products, any kind
  std::uint64_t thermal_sparse_matvecs = 0;      // of those, via the CSR path
  /// Always 0: each network holds one step operator, so there is nothing to
  /// evict. Kept so serialized totals and their readers keep the field.
  std::uint64_t thermal_evictions = 0;

  // Warm-start counters. The machine never increments these; the sweep
  // engine's snapshot cache does (builds = warmup prefixes simulated, forks
  // = runs resumed from a cached checkpoint).
  std::uint64_t snapshot_builds = 0;
  std::uint64_t snapshot_forks = 0;

  // Sweep-level fault counters. The machine never increments these; the
  // sweep engine's fault-isolation layer does, and routing them through the
  // same fields() listing folds them into every metrics merge for free.
  std::uint64_t runs_failed = 0;          // runs that exhausted all attempts
  std::uint64_t runs_retried = 0;         // extra attempts after transients
  std::uint64_t cache_write_retries = 0;  // result-cache store retries

  // Closed-loop control counters (src/control). Incremented by the
  // GovernorDriver through the machine's tracer; all zero on open-loop runs.
  std::uint64_t governor_samples = 0;   // sensor frames consumed
  std::uint64_t governor_trips = 0;     // threshold engagements
  std::uint64_t governor_releases = 0;  // threshold releases
  std::uint64_t duty_changes = 0;       // resolved duty-cycle changes
  std::uint64_t duty_reversals = 0;     // duty direction flips (flapping)

  /// Stable (name, member) listing driving every serialization of the totals
  /// (result cache, metrics JSON, CSV) so the field set cannot drift apart.
  using Field = std::pair<const char*, std::uint64_t CounterTotals::*>;
  static const std::vector<Field>& fields();

  CounterTotals& operator+=(const CounterTotals& o);
  CounterTotals& operator-=(const CounterTotals& o);
  friend CounterTotals operator-(CounterTotals a, const CounterTotals& b) {
    a -= b;
    return a;
  }
  bool operator==(const CounterTotals&) const = default;
};

/// The machine's counter registry: per-core rows plus machine-global
/// counters, owned by the tracer and readable at any time.
class CounterRegistry {
 public:
  void resize(std::size_t num_cores) { per_core_.assign(num_cores, {}); }

  CoreCounters& core(std::size_t i) { return per_core_.at(i); }
  const CoreCounters& core(std::size_t i) const { return per_core_.at(i); }
  std::size_t num_cores() const { return per_core_.size(); }

  std::uint64_t prochot_activations = 0;
  std::uint64_t dvfs_changes = 0;
  std::uint64_t meter_samples = 0;
  std::uint64_t sensor_samples = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_routed = 0;  // cluster scope
  std::uint64_t node_drains = 0;      // cluster scope
  std::uint64_t fleet_samples = 0;    // cluster scope
  std::uint64_t scenario_directives = 0;  // scenario scope
  std::uint64_t node_joins = 0;           // scenario scope
  std::uint64_t node_removals = 0;        // scenario scope
  std::uint64_t requests_shed = 0;        // cluster scope
  std::uint64_t requests_rehomed = 0;     // scenario scope

  // Closed-loop control (src/control GovernorDriver).
  std::uint64_t governor_samples = 0;
  std::uint64_t governor_trips = 0;
  std::uint64_t governor_releases = 0;
  std::uint64_t duty_changes = 0;
  std::uint64_t duty_reversals = 0;

  // Thermal-engine counters; the machine writes the network's monotonic
  // stats() snapshot here after every thermal advance.
  std::uint64_t thermal_substeps = 0;
  std::uint64_t thermal_fast_forward_steps = 0;
  std::uint64_t thermal_factorizations = 0;
  std::uint64_t thermal_matvecs = 0;
  std::uint64_t thermal_sparse_matvecs = 0;

  CounterTotals totals() const;

 private:
  std::vector<CoreCounters> per_core_;
};

/// Render totals as `"prefix": {...}` JSON (no trailing newline).
std::string totals_to_json(const CounterTotals& t, int indent);

}  // namespace dimetrodon::obs
