#include "sim/simulator.hpp"

namespace dimetrodon::sim {

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
