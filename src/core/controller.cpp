#include "core/controller.hpp"

namespace dimetrodon::core {

DimetrodonController::DimetrodonController(
    sched::Machine& machine, std::unique_ptr<InjectionPolicy> policy)
    : machine_(machine), policy_(std::move(policy)) {
  if (!policy_) {
    policy_ = std::make_unique<BernoulliInjection>(machine_.fork_rng());
  }
  machine_.set_injection_hook(this);
}

DimetrodonController::~DimetrodonController() {
  if (machine_.injection_hook() == this) machine_.set_injection_hook(nullptr);
}

void DimetrodonController::sys_set_global(double probability,
                                          sim::SimTime quantum) {
  table_.set_global(InjectionParams{probability, quantum});
}

void DimetrodonController::sys_set_thread(sched::ThreadId tid,
                                          double probability,
                                          sim::SimTime quantum) {
  table_.set_thread(tid, InjectionParams{probability, quantum});
}

void DimetrodonController::sys_shield_thread(sched::ThreadId tid) {
  table_.set_thread(tid, InjectionParams{0.0, 0});
}

void DimetrodonController::sys_disable() { table_.reset(); }

const InjectionStats& DimetrodonController::thread_stats(
    sched::ThreadId tid) const {
  static const InjectionStats kEmpty{};
  return tid < per_thread_.size() ? per_thread_[tid] : kEmpty;
}

InjectionStats& DimetrodonController::per_thread(sched::ThreadId tid) {
  if (tid >= per_thread_.size()) per_thread_.resize(tid + 1);
  return per_thread_[tid];
}

void DimetrodonController::reset_stats() {
  stats_ = InjectionStats{};
  per_thread_.clear();
}

std::optional<sim::SimTime> DimetrodonController::before_dispatch(
    const sched::Thread& t, sched::CoreId /*core*/, sim::SimTime now) {
  const InjectionParams params = table_.params_for(t);
  if (!params.enabled()) return std::nullopt;
  ++stats_.decisions;
  InjectionStats& thread = per_thread(t.id());
  ++thread.decisions;
  const auto quantum = policy_->decide(t.id(), params, now);
  if (quantum.has_value()) {
    ++stats_.injections;
    ++thread.injections;
  }
  return quantum;
}

void DimetrodonController::on_injection_complete(const sched::Thread& t,
                                                 sched::CoreId /*core*/,
                                                 sim::SimTime /*now*/) {
  // Stats use the nominal quantum; actual residency equals it by mechanism.
  const InjectionParams params = table_.params_for(t);
  stats_.injected_idle += params.quantum;
  per_thread(t.id()).injected_idle += params.quantum;
}

}  // namespace dimetrodon::core
