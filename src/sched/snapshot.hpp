#pragma once

#include <cstdint>
#include <vector>

#include "obs/counters.hpp"
#include "power/energy.hpp"
#include "power/power_model.hpp"
#include "sched/core.hpp"
#include "sched/thread.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "thermal/rc_network.hpp"

namespace dimetrodon::sched {

/// In-memory checkpoint of a Machine's complete dynamic state, captured by
/// Machine::snapshot() and replayed by Machine::restore() into a freshly
/// constructed machine (same MachineConfig, same workload deployed at t=0).
///
/// The contract is *fork ≡ replay*: a machine restored from a snapshot
/// evolves bit-identically — same temperatures, same work counters, same
/// request outcomes, same event interleavings — to one that simply kept
/// running past the capture point. Two things make that exact:
///
///  * every pending event is captured with its (time, seq) pair and re-armed
///    in ascending seq order, so events that tie on the timestamp (the
///    recurring watchdog/schedcpu/monitor trio regularly does) fire in the
///    captured order, and
///  * all stochastic state (master RNG, per-thread RNG streams, cached
///    Box-Muller halves) is copied verbatim.
///
/// Deliberately NOT captured: the thermal step operator (a pure function of
/// topology + dt; rebuilt lazily with bit-identical arithmetic, so only the
/// factorization/solve work counters can exceed the replay's)
/// and anything precondition-excluded by Machine::snapshot (meter, trace
/// sink, reference stepper, an attached injection hook).
struct MachineSnapshot {
  /// One captured pending event: scheduled time plus tie-break rank.
  struct EventStamp {
    bool armed = false;
    sim::SimTime at = 0;
    std::uint64_t seq = 0;
  };

  struct ThreadSnap {
    ThreadState state = ThreadState::kRunnable;
    CoreId affinity = kNoCore;
    CoreId injection_pin = kNoCore;
    bool injection_suspended = false;
    double burst_remaining = 0.0;
    double activity = 1.0;
    double cpu_seconds = 0.0;
    double work_completed = 0.0;
    std::uint64_t bursts_completed = 0;
    std::uint64_t times_scheduled = 0;
    std::uint64_t injections_suffered = 0;
    sim::SimTime created_at = 0;
    sim::SimTime finished_at = -1;
    double estcpu = 0.0;
    sim::SimTime sleep_started_at = -1;
    CoreId last_core = kNoCore;
    sim::Rng rng{0};
    std::vector<double> behavior_state;
  };

  struct CoreSnap {
    ThreadId current = kInvalidThread;
    ThreadId last_thread = kInvalidThread;
    CoreActivity activity = CoreActivity::kIdle;
    bool injected_idle = false;
    ThreadId injection_victim = kInvalidThread;
    power::CoreOperatingPoint op;
    std::size_t dvfs_level = 0;
    std::size_t duty_step_user = 8;
    sim::SimTime segment_start = 0;
    sim::SimTime quantum_deadline = 0;
    double quantum_ran_seconds = 0.0;
    sim::SimTime idle_settled_at = 0;
    double busy_seconds = 0.0;
    double idle_seconds = 0.0;
    double injected_idle_seconds = 0.0;
    std::uint64_t dispatches = 0;
    std::uint64_t injections = 0;
    std::uint64_t context_switches = 0;
    EventStamp timer;             // segment end / injected-idle-quantum end
    EventStamp transition_timer;  // C-state entry/exit completion
  };

  /// A pending per-thread timer (timed-sleep wakeup or injection-suspension
  /// expiry), including the payload its callback closed over.
  struct ThreadTimerSnap {
    std::uint8_t kind = 0;  // Machine::ThreadTimer::Kind
    ThreadId thread = kInvalidThread;
    CoreId where = kNoCore;      // injection-resume only
    sim::SimTime quantum = 0;    // injection-resume only
    sim::SimTime at = 0;
    std::uint64_t seq = 0;
  };

  sim::SimTime now = 0;
  std::uint64_t events_executed = 0;
  sim::Rng master_rng{0};

  thermal::RcNetwork::State thermal;
  sim::SimTime last_thermal_update = 0;
  /// Thermal grid anchor and the open substep's carried per-node energy: a
  /// fork taken mid-substep must close that substep at the same mean power.
  sim::SimTime thermal_grid = 0;
  std::vector<double> thermal_carry;

  power::EnergyAccountant::State energy;
  obs::CounterRegistry counters;

  std::vector<bool> tm_active;
  std::uint64_t tm_events = 0;
  std::vector<double> window_node_joules;
  sim::SimTime window_start = 0;

  std::size_t live_threads = 0;
  std::vector<ThreadSnap> threads;
  std::vector<CoreSnap> cores;
  /// Scheduler run-queue contents in dequeue order.
  std::vector<ThreadId> run_queue;
  std::vector<ThreadTimerSnap> thread_timers;

  EventStamp watchdog;
  EventStamp schedcpu;
  EventStamp monitor;
};

}  // namespace dimetrodon::sched
