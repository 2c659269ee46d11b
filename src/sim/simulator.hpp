#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dimetrodon::sim {

/// Discrete-event simulation driver: a clock plus an event queue. All
/// machine-level components (scheduler timers, injection quanta, meter
/// sampling, workload arrivals) register callbacks here.
class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute simulation time `at` (must be >= now()).
  template <typename F>
  EventHandle at(SimTime when, F&& fn) {
    assert(when >= now_);
    return queue_.schedule(when, std::forward<F>(fn));
  }

  /// Schedule `fn` after a relative delay (must be >= 0).
  template <typename F>
  EventHandle after(SimTime delay, F&& fn) {
    assert(delay >= 0);
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Run events until the queue empties or the clock would pass `deadline`,
  /// and leave the clock at `deadline` (never moving it back). Events at
  /// exactly `deadline` are executed, and a parked periodic event's firings
  /// up to `deadline` are passed (EventQueue::park).
  void run_until(SimTime deadline);

  /// Run a single event if one exists; returns false when the queue is empty.
  bool step();

  /// Total events executed (diagnostics).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Snapshot-restore support: drop every pending event (handles go inert)
  /// and pin the clock and executed-event count to captured values. The
  /// caller (sched::Machine::restore) re-arms the captured event set next.
  void reset_for_restore(SimTime now, std::uint64_t events_executed) {
    queue_.clear();
    now_ = now;
    events_executed_ = events_executed;
  }

  EventQueue& queue() { return queue_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_executed_ = 0;
};

}  // namespace dimetrodon::sim
