#include "sim/simulator.hpp"

#include <cassert>

namespace dimetrodon::sim {

EventHandle Simulator::at(SimTime when, EventQueue::Callback fn) {
  assert(when >= now_);
  return queue_.schedule(when, std::move(fn));
}

EventHandle Simulator::after(SimTime delay, EventQueue::Callback fn) {
  assert(delay >= 0);
  return queue_.schedule(now_ + delay, std::move(fn));
}

void Simulator::run_until(SimTime deadline) {
  // One head query per event: next_time() drops cancelled carcasses and
  // reports kTimeInfinity once the queue is empty.
  for (SimTime t = queue_.next_time(); t <= deadline && t != kTimeInfinity;
       t = queue_.next_time()) {
    // Advance the clock BEFORE the callback runs so now() is correct inside
    // it (callbacks routinely schedule relative follow-ups).
    now_ = t;
    queue_.pop_and_run();
    ++events_executed_;
  }
  if (now_ < deadline) now_ = deadline;
}

bool Simulator::step() {
  const SimTime t = queue_.next_time();
  if (t == kTimeInfinity) return false;
  now_ = t;
  queue_.pop_and_run();
  ++events_executed_;
  return true;
}

}  // namespace dimetrodon::sim
