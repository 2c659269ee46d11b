#pragma once

#include <optional>
#include <unordered_map>

#include "core/injection.hpp"
#include "sched/thread.hpp"

namespace dimetrodon::core {

/// Per-thread injection configuration — the flexibility that distinguishes
/// Dimetrodon from chip-wide mechanisms like DVFS (paper §2.1, §3.6). A
/// global default applies to unconfigured threads; per-thread entries
/// override it (including overriding to "never inject" for high-priority
/// threads). Kernel-class threads are always exempt from the global default
/// (paper §3.1: "We always schedule kernel-level threads"); an explicit
/// per-thread entry still targets one.
class PolicyTable {
 public:
  /// Default applied to threads with no explicit entry.
  void set_global(InjectionParams params) { global_ = params; }
  const InjectionParams& global() const { return global_; }

  /// Per-thread override (pass a disabled InjectionParams to shield a
  /// thread from the global policy).
  void set_thread(sched::ThreadId tid, InjectionParams params) {
    overrides_[tid] = params;
  }

  /// Resolve the effective parameters for a thread.
  InjectionParams params_for(const sched::Thread& t) const {
    const auto it = overrides_.find(t.id());
    if (it != overrides_.end()) return it->second;
    if (t.thread_class() == sched::ThreadClass::kKernel) {
      return InjectionParams{};  // disabled
    }
    return global_;
  }

  /// Disable everything (global and overrides).
  void reset() {
    global_ = InjectionParams{};
    overrides_.clear();
  }

 private:
  InjectionParams global_{};
  std::unordered_map<sched::ThreadId, InjectionParams> overrides_;
};

}  // namespace dimetrodon::core
