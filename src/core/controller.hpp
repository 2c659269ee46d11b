#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/injection.hpp"
#include "core/policy_table.hpp"
#include "sched/machine.hpp"

namespace dimetrodon::core {

/// Aggregate injection statistics.
struct InjectionStats {
  std::uint64_t decisions = 0;       // dispatches evaluated
  std::uint64_t injections = 0;      // idle quanta injected
  sim::SimTime injected_idle = 0;    // total idle time injected
};

/// The Dimetrodon controller: attaches to the machine's scheduler dispatch
/// hook and realizes the paper's mechanism — "each time the scheduler is
/// about to schedule a thread, with user-defined probability p, it instead
/// runs the idle thread for a quantum of length L" (§2.2). The sys_* methods
/// mirror the system-call control surface of the FreeBSD implementation
/// ("We control Dimetrodon using system calls", §3.1).
class DimetrodonController final : public sched::InjectionHook {
 public:
  /// Attaches to `machine` (RAII: detaches on destruction). A null policy
  /// selects the paper's Bernoulli implementation seeded from the machine.
  explicit DimetrodonController(sched::Machine& machine,
                                std::unique_ptr<InjectionPolicy> policy = {});
  ~DimetrodonController() override;

  DimetrodonController(const DimetrodonController&) = delete;
  DimetrodonController& operator=(const DimetrodonController&) = delete;

  // --- control surface (the "system calls") ---
  void sys_set_global(double probability, sim::SimTime quantum);
  void sys_set_thread(sched::ThreadId tid, double probability,
                      sim::SimTime quantum);
  void sys_shield_thread(sched::ThreadId tid);  // never inject this thread
  void sys_disable();                           // stop all injection

  PolicyTable& table() { return table_; }
  const PolicyTable& table() const { return table_; }

  const InjectionStats& stats() const { return stats_; }
  const InjectionStats& thread_stats(sched::ThreadId tid) const;
  void reset_stats();

  /// Fraction of evaluated dispatches that injected (sanity check against p).
  double observed_injection_rate() const {
    return stats_.decisions == 0
               ? 0.0
               : static_cast<double>(stats_.injections) /
                     static_cast<double>(stats_.decisions);
  }

  // --- sched::InjectionHook ---
  std::optional<sim::SimTime> before_dispatch(const sched::Thread& t,
                                              sched::CoreId core,
                                              sim::SimTime now) override;
  void on_injection_complete(const sched::Thread& t, sched::CoreId core,
                             sim::SimTime now) override;

 private:
  sched::Machine& machine_;
  std::unique_ptr<InjectionPolicy> policy_;
  PolicyTable table_;
  InjectionStats stats_;
  /// Indexed by ThreadId (dense machine indices); grown on first sight.
  std::vector<InjectionStats> per_thread_;
  InjectionStats& per_thread(sched::ThreadId tid);
};

}  // namespace dimetrodon::core
