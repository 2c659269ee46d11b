#pragma once

namespace dimetrodon::power {

/// Exact (model-side) energy bookkeeping: integrates true package power
/// (every core and the uncore) across the simulation. Used by conservation
/// tests and to cross-check the noisy PowerMeter path. A plain value, so a
/// machine snapshot copies it whole.
class EnergyAccountant {
 public:
  /// Accumulate `watts` over `dt_seconds`. The total is a running sum in
  /// call order, so callers keep one order of additions per span.
  void add(double watts, double dt_seconds) {
    total_joules_ += watts * dt_seconds;
  }

  double total_joules() const { return total_joules_; }

 private:
  double total_joules_ = 0.0;
};

}  // namespace dimetrodon::power
