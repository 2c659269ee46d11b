#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "control/governor.hpp"
#include "core/controller.hpp"
#include "obs/counters.hpp"
#include "obs/trace_sink.hpp"
#include "sched/machine.hpp"
#include "workload/web.hpp"
#include "workload/workload.hpp"

namespace dimetrodon::harness {

/// Measurement methodology shared by all experiments, mirroring the paper's:
/// let the system reach thermal steady state (they ran ~300 s; we accelerate
/// the heatsink time constant with run/jump iterations), then average the
/// quantized per-core sensors over a 30 s window and differentiate workload
/// progress into throughput over the same window (§3.4).
struct MeasurementConfig {
  int max_settle_iterations = 6;
  sim::SimTime settle_chunk = sim::from_sec(8);
  double settle_tolerance_c = 0.15;   // exact-temp movement per jump
  sim::SimTime post_settle_run = sim::from_sec(3);
  sim::SimTime measure_window = sim::from_sec(30);
  sim::SimTime sensor_poll = sim::from_ms(500);
};

/// The actuation catalogue: how a run is thermally actuated — every baseline
/// technique and the Dimetrodon configurations from the paper's
/// comparisons, as one declarative, hashable value. The sweep engine hashes
/// the fields into cache keys (runner::canonical_spec); apply() configures a
/// machine before the workload deploys. Labels are stable identifiers
/// consumed by CSV output and tests.
struct ActuationSpec {
  /// The numbering is part of cached run-spec keys; append, never reorder.
  enum class Kind : std::uint8_t {
    kNone,              // race-to-idle baseline
    kGlobal,            // Dimetrodon global Bernoulli policy
    kGlobalStratified,  // deterministic (stratified) injection
    kVfs,               // static DVFS ladder setpoint
    kTcc,               // static p4tcc clock-duty setpoint
    kGovernor,          // closed-loop governed injection (src/control)
  };

  Kind kind = Kind::kNone;
  double probability = 0.0;   // kGlobal / kGlobalStratified; for kGovernor,
                              // the preventive-channel floor duty (0 = none)
  sim::SimTime quantum = 0;   // kGlobal / kGlobalStratified / kGovernor floor
  std::size_t level = 0;      // kVfs ladder index / kTcc duty step
  control::GovernorSpec governor{};  // kGovernor only

  /// Unconstrained baseline ("race-to-idle").
  static ActuationSpec none() { return {}; }
  /// Global Dimetrodon policy with the paper's Bernoulli injection.
  static ActuationSpec global(double p, sim::SimTime quantum) {
    return {Kind::kGlobal, p, quantum, 0};
  }
  /// Global Dimetrodon policy with deterministic (stratified) injection.
  static ActuationSpec global_stratified(double p, sim::SimTime quantum) {
    return {Kind::kGlobalStratified, p, quantum, 0};
  }
  /// Static DVFS setpoint (ladder index).
  static ActuationSpec vfs(std::size_t level) {
    return {Kind::kVfs, 0.0, 0, level};
  }
  /// Static p4tcc clock-duty setpoint (step 1..8).
  static ActuationSpec tcc(std::size_t duty_step) {
    return {Kind::kTcc, 0.0, 0, duty_step};
  }
  /// Closed-loop governed injection: a Dimetrodon controller behind an
  /// InjectionArbiter, with a GovernorDriver running `spec`.
  /// `preventive_p > 0` also engages the arbiter's open-loop preventive
  /// channel at that duty, so the governor can only raise the resolved duty
  /// above the preventive floor (max-probability-wins).
  static ActuationSpec governed(control::GovernorSpec spec,
                                double preventive_p = 0.0,
                                sim::SimTime preventive_quantum =
                                    sim::from_ms(100)) {
    ActuationSpec a;
    a.kind = Kind::kGovernor;
    a.probability = preventive_p;
    a.quantum = preventive_quantum;
    a.governor = spec;
    return a;
  }

  /// Configure `machine` for this actuation. Returns the attached Dimetrodon
  /// controller, or nullptr for the hardware-only kinds. For kGovernor the
  /// returned pointer also keeps the arbiter and driver alive for as long
  /// as the caller holds it.
  std::shared_ptr<core::DimetrodonController> apply(
      sched::Machine& machine) const;
  std::string label() const;
};

/// Outcome of one steady-state measured run.
struct RunResult {
  std::string label;
  double idle_sensor_temp_c = 0.0;  // machine at idle, quantized sensors
  double idle_exact_temp_c = 0.0;
  double avg_sensor_temp_c = 0.0;   // measured over the window
  double avg_exact_temp_c = 0.0;
  double throughput = 0.0;          // workload progress per second
  double avg_power_w = 0.0;         // true energy over window / window
  double injected_idle_fraction = 0.0;  // of total core-time in window
  double sim_seconds = 0.0;  // total simulated time incl. settling
  /// QoS latency buckets; engaged only for web workloads.
  std::optional<workload::WebWorkload::QosStats> qos;
  /// Structured counter totals accrued inside the measurement window
  /// (settling excluded), from the machine's always-on registry.
  obs::CounterTotals counters;
};

/// Derived trade-off versus an unconstrained baseline run — the paper's
/// reporting currency. `r` follows the paper's definition: the reduction of
/// the temperature rise over idle ("an idle temperature of 40C, an
/// unconstrained temperature 60C, and a resulting temperature of 50C would
/// constitute a 50% reduction", §3.4).
struct Tradeoff {
  double temp_reduction = 0.0;        // r, from quantized sensors
  double temp_reduction_exact = 0.0;  // r, from continuous model state
  double throughput_retained = 1.0;
  double throughput_reduction = 0.0;
  double efficiency = 0.0;            // temp_reduction / throughput_reduction
};

Tradeoff compute_tradeoff(const RunResult& baseline, const RunResult& run);

/// Outcome of a finite (run-to-completion or fixed-window) run — the model
/// validation experiments of §3.3.
struct WindowResult {
  double completion_seconds = -1.0;  // -1 if workload did not finish
  double meter_energy_j = 0.0;       // through the noisy clamp+multimeter
  double true_energy_j = 0.0;
  double mean_power_w = 0.0;
  double wall_seconds = 0.0;
};

/// Thrown when a simulation dies mid-run. Prefixes the failing measurement
/// phase ("setup", "settle", "measure-window", ...) onto the underlying
/// message, so a sweep-level RunError says *where* the run died, not just
/// what threw ("settle: thermal step matrix is singular").
class MeasurementError : public std::runtime_error {
 public:
  MeasurementError(std::string phase, const std::string& what)
      : std::runtime_error(phase + ": " + what), phase_(std::move(phase)) {}
  const std::string& phase() const { return phase_; }

 private:
  std::string phase_;
};

/// Builds fresh, identically seeded machines per run so configurations are
/// compared under identical stochastic conditions.
class ExperimentRunner {
 public:
  using WorkloadFactory =
      std::function<std::unique_ptr<workload::Workload>()>;
  /// Invoked after workload deployment: per-thread policy configuration
  /// (Fig. 5) and other experiment-specific setup.
  using PostDeployHook = std::function<void(
      sched::Machine&, workload::Workload&, core::DimetrodonController*)>;

  ExperimentRunner(sched::MachineConfig base, MeasurementConfig mc);

  /// Builder-style configuration. The machine config is fixed at
  /// construction; targeted tweaks go through `with_config`, which applies
  /// `fn` to the stored base config and returns *this for chaining. This
  /// replaces the old mutable_base_config() escape hatch: every mutation now
  /// happens through a named, greppable call.
  ExperimentRunner& with_config(
      const std::function<void(sched::MachineConfig&)>& fn);

  /// Attach structured tracing to every machine this runner builds: the
  /// factory is invoked once per constructed machine (src/obs).
  ExperimentRunner& with_trace(obs::SinkFactory factory);

  /// Steady-state measured run (temperature/throughput experiments).
  RunResult measure(const WorkloadFactory& factory,
                    const ActuationSpec& actuation,
                    const PostDeployHook& post_deploy = {});

  // --- warm-start (shared warmup prefix via machine snapshots) -------------
  /// Build a machine, deploy the workload, run it *unactuated* for `warmup`,
  /// and capture the complete machine state. Sweep points that share the
  /// same (machine config, workload, seed, warmup) prefix fork from one
  /// cached snapshot instead of each re-simulating the prefix. Throws if the
  /// machine or workload is not snapshot-capable (see Machine::snapshot).
  sched::MachineSnapshot build_warmup_snapshot(const WorkloadFactory& factory,
                                               sim::SimTime warmup);

  /// Fork a measured run from a warmup snapshot: fresh machine, identical
  /// workload deployed, state restored, THEN the actuation applied, then the
  /// standard settle + measure-window methodology. Bit-identical to
  /// measure_after_warmup with the same arguments (fork ≡ replay).
  RunResult measure_warm(const WorkloadFactory& factory,
                         const ActuationSpec& actuation,
                         const sched::MachineSnapshot& snap,
                         const PostDeployHook& post_deploy = {});

  /// Reference path for the fork ≡ replay invariant: identical to
  /// measure_warm except the warmup prefix is re-simulated inline instead of
  /// restored from a snapshot.
  RunResult measure_after_warmup(const WorkloadFactory& factory,
                                 const ActuationSpec& actuation,
                                 sim::SimTime warmup,
                                 const PostDeployHook& post_deploy = {});

  /// Run a finite workload to completion (bounded by `deadline`); meter on.
  WindowResult run_to_completion(const WorkloadFactory& factory,
                                 const ActuationSpec& actuation,
                                 sim::SimTime deadline,
                                 const PostDeployHook& post_deploy = {});

  /// Run for a fixed wall-clock window (the race-to-idle side of the energy
  /// comparison); meter on.
  WindowResult run_window(const WorkloadFactory& factory,
                          const ActuationSpec& actuation, sim::SimTime window,
                          const PostDeployHook& post_deploy = {});

  const sched::MachineConfig& base_config() const { return base_; }
  const MeasurementConfig& measurement_config() const { return mc_; }

 private:
  double mean_exact_temp(const sched::Machine& m) const;
  /// Settle + measurement-window tail shared by measure / measure_warm /
  /// measure_after_warmup; takes over with the machine actuated and the
  /// workload deployed. `phase` is the caller's MeasurementError context.
  RunResult finish_measurement(
      sched::Machine& machine, workload::Workload& wl,
      const std::shared_ptr<core::DimetrodonController>& controller,
      RunResult result, const char*& phase);
  RunResult measure_warm_impl(const WorkloadFactory& factory,
                              const ActuationSpec& actuation,
                              const sched::MachineSnapshot* snap,
                              sim::SimTime warmup,
                              const PostDeployHook& post_deploy);

  sched::MachineConfig base_;
  MeasurementConfig mc_;
};

}  // namespace dimetrodon::harness
