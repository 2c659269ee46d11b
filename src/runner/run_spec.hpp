#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/governor.hpp"
#include "harness/experiment.hpp"
#include "sched/machine.hpp"

namespace dimetrodon::runner {

class ThreadPool;

/// Execution environment handed to kCustom runs. Strictly NON-semantic: a
/// run must produce bit-identical results for every possible context —
/// nothing here may feed the cache key or the simulation, only how fast the
/// result arrives. The pool enables intra-run parallelism (cluster fleets
/// fan per-machine advancement onto it), arbitrated against the engine's
/// own run-level parallelism via the lanes hint.
struct RunContext {
  /// The engine's work-stealing pool; null when the engine is serial or
  /// when execute() is called standalone. Borrowed, never owned; nested
  /// submission uses ThreadPool::run_and_wait, which cannot deadlock on a
  /// saturated pool.
  ThreadPool* pool = nullptr;
  /// How many pool lanes one run may reasonably claim for nested work:
  /// 0 = auto (share the pool; work stealing balances a partly idle grid),
  /// 1 = stay serial inside the run (the grid itself saturates the pool),
  /// N = the run owns the whole pool (a 1-run sweep).
  std::size_t lanes_hint = 0;
};

/// The sweep engine's actuations are the harness catalogue's values: their
/// fields feed the cache key (canonical_spec) and apply() runs them.
using harness::ActuationSpec;

/// Structured capture of one failed run: what threw, which grid point, and
/// how hard the engine tried. Failure is data, not death — a sweep with a
/// degenerate config finishes every other point and reports these in its
/// metrics JSON instead of aborting.
struct RunError {
  std::size_t spec_index = 0;   // position in the sweep's spec vector
  std::string spec_label;       // workload_key / custom_tag (+ actuation)
  std::string key_hex;          // cache key of the canonical spec
  std::uint64_t seed = 0;
  std::string what;             // exception message; "(non-std exception)"
                                // when something other than std::exception
                                // escaped
  bool transient = false;       // was the final failure a retryable class?
  std::uint32_t attempts = 1;   // total attempts, including the failing one
  double wall_seconds = 0.0;    // wall time burned across all attempts
};

/// Everything the engine caches about one run: the union of what the sweep
/// benches read out. Measured runs fill `result`; custom runs fill whichever
/// of `window`, `samples`, and `extra` they produce.
struct RunRecord {
  harness::RunResult result;
  harness::WindowResult window;
  std::vector<double> samples;  // e.g. per-thread completion times
  std::vector<std::pair<std::string, double>> extra;  // named custom metrics

  /// Engaged when the run failed: `result`/`window` hold defaults, nothing
  /// was cached, and the error carries the capture. Failed records never
  /// enter the result cache, so the serialization format is unaffected.
  std::optional<RunError> error;
  bool ok() const { return !error.has_value(); }

  /// Lookup in `extra`; dies if absent (a cache-format mismatch bug).
  double metric(const std::string& key) const;

  /// Simulated seconds consumed producing this record (progress metrics).
  /// Measured runs report it via result.sim_seconds; window runs via
  /// window.wall_seconds; custom runs may add an "sim_seconds" extra.
  double sim_seconds_estimate() const;
};

/// One point of a sweep grid. A spec is pure data plus the factories needed
/// to execute it; the data half (everything except the std::functions) is
/// canonicalized into the cache key, so two specs collide exactly when they
/// describe the same simulation.
struct RunSpec {
  enum class Kind : std::uint8_t {
    kMeasure,  // steady-state settle + 30 s-window measurement
    kCustom,   // arbitrary bench-supplied computation
  };

  Kind kind = Kind::kMeasure;

  /// Stable identity of what `workload` builds (e.g. "cpuburn:4",
  /// "spec:calculix:4"). Part of the cache key; the factory itself cannot be
  /// hashed, so the caller vouches that equal keys build equal workloads.
  std::string workload_key;
  harness::ExperimentRunner::WorkloadFactory workload;

  ActuationSpec actuation;
  harness::MeasurementConfig measurement{};

  /// kMeasure only: simulated time to run the deployed workload *unactuated*
  /// before the actuation attaches and the settle/measure methodology begins.
  /// Points sharing the same (machine config, workload_key, seed, warmup)
  /// prefix fork from one cached machine snapshot instead of re-simulating
  /// it (see SweepEngine). 0 = classic cold run. Part of the cache key, so
  /// warm and cold records never collide.
  sim::SimTime warmup = 0;

  /// Master seed of this run's machine. Every RNG stream in the simulation
  /// derives from it, which is what makes runs independent of execution
  /// order and thread placement.
  std::uint64_t seed = 0;

  /// Overrides the engine's base machine config for this run (C-state or
  /// scheduler ablations). Hashed canonically either way.
  std::optional<sched::MachineConfig> machine;

  /// kCustom only: the computation, plus a tag naming it in the cache key.
  /// The tag must change whenever the function's meaning changes — the
  /// engine cannot see through the closure. The RunContext is the engine's
  /// execution environment (shared pool, parallelism hint); it is not part
  /// of the identity and must not change results.
  std::function<RunRecord(const RunSpec&, const sched::MachineConfig&,
                          const RunContext&)>
      custom;
  std::string custom_tag;
};

/// Deterministic canonical serialization of a spec's data half (machine
/// config, measurement config, workload key, actuation, seed, custom tag).
/// Doubles are rendered as hex floats, so the text is bit-exact. This string
/// *is* the cache identity: it is hashed for the key and stored verbatim in
/// the cache file to rule out hash collisions.
std::string canonical_spec(const RunSpec& spec,
                           const sched::MachineConfig& base);

/// Canonical identity of a spec's warmup prefix: machine config + workload
/// key + seed + warmup, and nothing else. Two specs share a warmup snapshot
/// exactly when this string matches — actuation and measurement config are
/// deliberately absent because the prefix runs before either applies.
std::string canonical_warm_prefix(const RunSpec& spec,
                                  const sched::MachineConfig& base);

}  // namespace dimetrodon::runner
