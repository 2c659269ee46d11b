#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/counters.hpp"
#include "power/energy.hpp"
#include "sched/core.hpp"
#include "sched/thread.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "thermal/rc_network.hpp"

namespace dimetrodon::sched {

/// Machine::snapshot()'s refusal: the machine holds state a snapshot cannot
/// capture (see Machine::snapshot for the list). A caller with a cold path
/// to fall back on catches this type and nothing broader.
class SnapshotUnsupported : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
///    recurring schedcpu/monitor pair regularly does) fire in the captured
///    order — a parked monitor tick (EventQueue::park) keeps its captured
///    place the same way — and
///  * all stochastic state (master RNG, per-thread RNG streams, cached
///    Box-Muller halves) is copied verbatim.
///
/// Deliberately NOT captured: the thermal step operator (a pure function of
/// topology + dt; rebuilt lazily with bit-identical arithmetic, so the
/// factorization/solve work counters can exceed the replay's), the
/// machine's power memo (a pure cache, restored cold, so core_power_evals
/// can exceed the replay's by one per physical core), and anything
/// precondition-excluded by Machine::snapshot (meter, trace sink, reference
/// stepper, an attached injection hook).
///
/// Threads and cores are copied whole (ThreadDynamicState, CoreDynamicState),
/// so no field list is kept here. Both types are trivially copyable: a
/// snapshot shared across sweep lanes must not hold an EventHandle, whose
/// owner count is not atomic.
struct MachineSnapshot {
  /// One captured pending event: scheduled time plus tie-break rank.
  struct EventStamp {
    bool armed = false;
    sim::SimTime at = 0;
    std::uint64_t seq = 0;
  };

  /// A thread's whole dynamic state plus its behavior's saved state.
  struct ThreadSnap {
    ThreadDynamicState state;
    std::vector<double> behavior_state;
  };

  /// A core's whole value state plus the four members that point into the
  /// machine, translated: the running thread and the injection victim to
  /// thread ids, the two timers to their queue places.
  struct CoreSnap {
    CoreDynamicState state;
    ThreadId current = kInvalidThread;
    ThreadId injection_victim = kInvalidThread;
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

  power::EnergyAccountant energy;
  obs::CounterRegistry counters;

  std::vector<bool> tm_active;
  std::uint64_t tm_events = 0;
  std::vector<double> window_node_joules;
  sim::SimTime window_start = 0;

  std::vector<ThreadSnap> threads;
  std::vector<CoreSnap> cores;
  /// Scheduler run-queue contents in dequeue order.
  std::vector<ThreadId> run_queue;
  std::vector<ThreadTimerSnap> thread_timers;

  EventStamp schedcpu;
  /// The next PROCHOT monitor tick: armed in the queue, or — with
  /// monitor_parked — parked there while the PROCHOT certificate holds.
  EventStamp monitor;
  bool monitor_parked = false;
};

}  // namespace dimetrodon::sched
