// Test-only access to sched::Machine's private state. One definition for
// every test in the sched suite (the class is a friend of Machine).
#pragma once

#include <cstddef>

#include "sched/machine.hpp"

namespace dimetrodon::sched {

class MachineTestPeer {
 public:
  /// The machine's memoised power path for one physical core.
  static double physical_core_power(Machine& m, std::size_t phys) {
    return m.physical_core_power(phys);
  }
  static Core& core(Machine& m, CoreId id) { return m.cores_.at(id); }

  /// The PROCHOT certificate's current die bound, °C (NaN if none).
  static double prochot_bound(Machine& m) { return m.prochot_bound(); }

  /// Make every certificate check fail until the topology changes, as a
  /// singular network would: the machine then samples PROCHOT at every
  /// period, which is the oracle a certified machine must match.
  static void revoke_prochot_certificate(Machine& m) {
    m.certificate_.revision = m.network_.topology_revision();
    m.certificate_.valid = false;
  }
};

}  // namespace dimetrodon::sched
