#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "power/power_model.hpp"
#include "sched/thread.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dimetrodon::sched {

/// What a core is doing right now (drives the power model and accounting).
enum class CoreActivity : std::uint8_t {
  kExecuting,       // running a thread (includes context-switch overhead)
  kIdleEntering,    // transitioning into the idle C-state
  kIdle,            // resident in the idle C-state
  kIdleExiting,     // transitioning back to C0
};

/// A core's value state, as one trivially copyable value:
/// Machine::snapshot() and restore() copy it whole, so a field added here is
/// captured with no further code.
struct CoreDynamicState {
  CoreId id = 0;

  ThreadId last_thread = kInvalidThread;  // affinity / context-switch check
  CoreActivity activity = CoreActivity::kIdle;
  bool injected_idle = false;      // current idle is a Dimetrodon quantum

  power::CoreOperatingPoint op;    // consumed by the power model
  std::size_t dvfs_level = 0;
  std::size_t duty_step_user = 8;  // software-requested TCC duty step

  // Execution segment bookkeeping.
  sim::SimTime segment_start = 0;      // when useful execution began
  sim::SimTime quantum_deadline = 0;   // end of the current timeslice
  sim::SimTime idle_settled_at = 0;    // when the idle C-state was reached

  // Statistics the counter registry does not keep (obs::CoreCounters holds
  // dispatches, context switches and injections).
  double busy_seconds = 0.0;
  double injected_idle_seconds = 0.0;
};
// One snapshot is shared read-only across sweep lanes (runner::SnapshotCache),
// so it must hold plain values: an EventHandle's owner count is not atomic.
static_assert(std::is_trivially_copyable_v<CoreDynamicState>);

/// Per-core execution state, owned by the Machine: the value state plus the
/// members that point into the machine, which a snapshot translates (the
/// threads to their ids, the timers to their (at, seq) places).
struct Core : CoreDynamicState {
  Thread* current = nullptr;
  Thread* injection_victim = nullptr;

  sim::EventHandle timer;          // segment end / idle-quantum end
  sim::EventHandle transition_timer;

  /// Work completion rate relative to nominal: (f/f0) * effective clock
  /// duty. TCC-style duty cycling costs more throughput than its duty factor
  /// alone: every stop-clock window drains and refills the pipeline, so an
  /// overhead proportional to the gated fraction is charged (the reason
  /// p4tcc fails to reach 1:1 trade-offs in the paper's Figure 4).
  double execution_rate(double nominal_freq_ghz,
                        double modulation_overhead) const {
    const double duty_eff =
        op.clock_duty * (1.0 - modulation_overhead * (1.0 - op.clock_duty));
    return (op.freq_ghz / nominal_freq_ghz) * duty_eff;
  }
};

}  // namespace dimetrodon::sched
