#pragma once

#include <cstdint>
#include <memory>

#include "control/arbiter.hpp"
#include "control/governor.hpp"
#include "control/stability.hpp"
#include "sched/machine.hpp"

namespace dimetrodon::control {

/// Runs one Governor against one machine — the one runtime duty loop every
/// closed-loop job (thermal governors, the power cap) goes through. Every
/// `spec.sample_period` the driver makes "now" a thermal interaction point
/// (Machine::sync_thermal_now — a governor sample is NOT a new periodic
/// substep, so the lazy thermal clock's O(log k) fast-forward is preserved),
/// reads the *quantized* per-core sensors and the package power since the
/// last frame into a SensorFrame, feeds the governor, and publishes the
/// returned duty through its InjectionArbiter port. Trip edges, duty changes
/// and duty reversals are probed into the machine's tracer; for a
/// temperature loop the (time, temp, duty) series feeds a StabilityTracker
/// for the derived oscillation / overshoot / settling metrics. A kPowerCap
/// loop regulates watts, so its tracker stays empty.
///
/// The driver owns no RNG and reads no exact temperatures: a governed run is
/// a deterministic function of (machine config, workload, GovernorSpec).
class GovernorDriver {
 public:
  struct Stats {
    std::uint64_t samples = 0;
    std::uint64_t trips = 0;
    std::uint64_t releases = 0;
    std::uint64_t duty_changes = 0;
    std::uint64_t duty_reversals = 0;
  };

  /// Claims the arbiter's kPowerCap channel for a kPowerCap spec and
  /// kGovernor for every other kind, and schedules the first sample one
  /// period from now. Throws std::invalid_argument on a kNone spec or a
  /// non-positive sample period; must outlive the run (or be stop()ed).
  GovernorDriver(sched::Machine& machine, InjectionArbiter& arbiter,
                 GovernorSpec spec);

  GovernorDriver(const GovernorDriver&) = delete;
  GovernorDriver& operator=(const GovernorDriver&) = delete;

  void stop() { running_ = false; }

  /// Swap the governor mid-run (a rolling config update): the new spec's
  /// controller starts from reset state, the channel claim and the
  /// sampling cadence survive (the already-armed sample fires at its old
  /// time; later samples use the new period), and the stability tracker
  /// restarts so its metrics describe the post-retune loop. The channel's
  /// last published duty stays in force until the new governor's first
  /// sample publishes a change. Throws std::invalid_argument on a kNone
  /// spec, a non-positive sample period, or a spec that needs the other
  /// channel (a power cap and a thermal governor are separate loops) — a
  /// retune can change the loop, not remove or move it.
  void retune(const GovernorSpec& spec);

  const Governor& governor() const { return *governor_; }
  const GovernorSpec& spec() const { return spec_; }
  const Stats& stats() const { return stats_; }
  double last_duty() const { return last_duty_; }

  const StabilityTracker& stability() const { return stability_; }
  StabilityMetrics stability_metrics() const { return stability_.metrics(); }

 private:
  void schedule_sample();
  void sample(sim::SimTime now);

  sched::Machine& machine_;
  InjectionArbiter::Channel channel_;
  InjectionArbiter::Port& port_;
  GovernorSpec spec_;
  std::unique_ptr<Governor> governor_;
  StabilityTracker stability_;
  Stats stats_;
  bool running_ = true;
  bool was_tripped_ = false;
  bool has_last_ = false;
  sim::SimTime last_sample_at_ = 0;
  double last_energy_j_ = 0.0;  // package energy at the previous frame
  double last_duty_ = 0.0;
  double last_duty_delta_ = 0.0;
};

}  // namespace dimetrodon::control
