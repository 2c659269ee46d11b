#include "sched/scheduler.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sched/snapshot.hpp"

namespace dimetrodon::sched {

void Scheduler::snapshot_queue(std::vector<Thread*>& /*out*/) const {
  throw SnapshotUnsupported(
      "this scheduler does not support machine snapshots");
}

void BsdScheduler::enqueue(Thread& t) { queue_.enqueue(&t); }

void BsdScheduler::enqueue_front(Thread& t) { queue_.enqueue_front(&t); }

Thread* BsdScheduler::pick_next(CoreId core, sim::SimTime /*now*/) {
  return queue_.pick(core);
}

void BsdScheduler::charge(Thread& t, double ran_seconds) {
  t.set_estcpu(t.estcpu() + config_.estcpu_per_cpu_second * ran_seconds);
}

void BsdScheduler::quantum_expired(Thread& t, double ran_seconds,
                                   sim::SimTime /*now*/) {
  charge(t, ran_seconds);
  queue_.enqueue(&t);
}

void BsdScheduler::thread_stopped(Thread& t, double ran_seconds,
                                  sim::SimTime /*now*/) {
  charge(t, ran_seconds);
}

void BsdScheduler::dequeue(Thread& t) { queue_.remove(&t); }

void BsdScheduler::apply_sleep_decay(Thread& t, double slept_seconds) {
  if (slept_seconds <= 0.0) return;
  t.set_estcpu(t.estcpu() *
               std::pow(config_.sleep_decay_per_second, slept_seconds));
}

void BsdScheduler::periodic(std::size_t runnable_threads,
                            sim::SimTime /*now*/) {
  // schedcpu: estcpu *= (2*load) / (2*load + 1), once per second. We only
  // decay queued threads here; running threads decay when they next stop,
  // which is equivalent at our timescales.
  const double load = static_cast<double>(runnable_threads);
  const double decay = (2.0 * load) / (2.0 * load + 1.0);
  // Decay by re-bucketing: drain and reinsert so priorities stay consistent.
  std::vector<Thread*> drained;
  drained.reserve(queue_.size());
  queue_.drain_all(drained);
  for (Thread* t : drained) {
    t->set_estcpu(t->estcpu() * decay);
    queue_.enqueue(t);
  }
}

}  // namespace dimetrodon::sched
