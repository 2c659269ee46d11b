#pragma once

#include <cstdint>
#include <string>
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

  bool operator==(const CoreCounters&) const = default;
};

/// The layer that increments a counter. Folds pick rows by scope: a machine
/// registry sums its kCore rows over cores, and a cluster adds only its own
/// registry's kCluster rows on top of its machines' totals.
enum class CounterScope : std::uint8_t {
  kCore,     // per logical core (CoreCounters), summed by the registry
  kMachine,  // one machine's tracer or thermal network
  kCluster,  // a cluster's load balancer, drain and scenario logic
  kSweep,    // the sweep engine (warm-start cache, fault isolation)
};

/// Machine-wide counter totals: the flat, serializable summary surfaced in
/// harness::RunResult and merged into sweep metrics JSON. Fieldwise
/// subtraction yields window deltas. The per-core fields come from the
/// CoreCounters base, summed over cores.
struct CounterTotals : CoreCounters {
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
  /// Unit solves building each operator's first table: free nodes per
  /// factorization, and none per substep.
  std::uint64_t thermal_solves = 0;
  std::uint64_t thermal_matvecs = 0;             // 2 per table application
  /// Always 0: each network holds one step operator, so there is nothing to
  /// evict. Kept so serialized totals and their readers keep the field.
  std::uint64_t thermal_evictions = 0;
  /// Per-core power-model evaluations the machine actually ran: misses of
  /// its per-physical-core operating-point memo. A cache statistic, so a
  /// machine restored from a snapshot (whose memo starts cold) may count up
  /// to one more per physical core than the run it forked from.
  std::uint64_t core_power_evals = 0;
  /// PROCHOT monitor ticks that fired. The tick runs only while the PROCHOT
  /// certificate fails (sched::MachineConfig::hw_thermal_throttle), so a
  /// cool machine fires one, the tick that issues the certificate.
  std::uint64_t monitor_ticks = 0;
  /// Refresh points (multiples of thermal_monitor_period) the thermal clock
  /// reached with no monitor tick armed there: span boundaries it took
  /// without an event. Events + clock_refreshes is the number of thermal
  /// spans, the base of the power-evaluation budgets.
  std::uint64_t clock_refreshes = 0;

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

  /// Stable (name, member, scope) listing driving every serialization of the
  /// totals (result cache, metrics JSON, CSV) and every fold, so the field
  /// set cannot drift apart. A kCore row's member lives in CoreCounters.
  struct Field {
    const char* name;
    std::uint64_t CounterTotals::* member;
    CounterScope scope;
  };
  static const std::vector<Field>& fields();

  CounterTotals& operator+=(const CounterTotals& o);
  CounterTotals& operator-=(const CounterTotals& o);
  friend CounterTotals operator-(CounterTotals a, const CounterTotals& b) {
    a -= b;
    return a;
  }
  bool operator==(const CounterTotals&) const = default;
};

/// The machine's counter registry: per-core rows plus the machine-global
/// counters, owned by the tracer and readable at any time. The globals are
/// the CounterTotals base, incremented in place; its CoreCounters part stays
/// unused, since per-core counts live in core(i). Read the machine's totals
/// through totals(), never by slicing the base.
class CounterRegistry : public CounterTotals {
 public:
  void resize(std::size_t num_cores) { per_core_.assign(num_cores, {}); }

  CoreCounters& core(std::size_t i) { return per_core_.at(i); }
  const CoreCounters& core(std::size_t i) const { return per_core_.at(i); }
  std::size_t num_cores() const { return per_core_.size(); }

  /// The registry's own fields plus each kCore row summed over cores.
  CounterTotals totals() const;

 private:
  std::vector<CoreCounters> per_core_;
};

/// Render totals as `"prefix": {...}` JSON (no trailing newline).
std::string totals_to_json(const CounterTotals& t, int indent);

}  // namespace dimetrodon::obs
