#pragma once

#include "power/cstate.hpp"
#include "power/dvfs.hpp"
#include "power/leakage_table.hpp"

namespace dimetrodon::power {

/// Calibration constants for the simulated Xeon E5520 package (80 W TDP).
/// Defaults reproduce the paper platform's anchors: ~25 W idle package power
/// (C1E, uncore awake), ~65 W under cpuburn, and a leakage component that is
/// a substantial, strongly temperature-dependent fraction of core power —
/// the nonlinearity from which idle-injection's better-than-1:1 efficiencies
/// derive (see DESIGN.md §1).
struct PowerModelParams {
  // Dynamic power of one core at nominal V/f with activity factor 1.0
  // (cpuburn-class switching activity).
  double core_dynamic_nominal_w = 8.0;
  double nominal_freq_ghz = 2.261;
  double nominal_voltage_v = 1.225;

  // Subthreshold leakage per core:
  //   leak = L0 * (V/V0)^2 * exp(k * Tsat * tanh((T - T0) / Tsat)).
  // Near T0 this is the textbook exponential exp(k*(T-T0)); far above it the
  // tanh softly saturates the current (supply series resistance, carrier
  // velocity saturation), bounding the thermal feedback loop.
  double core_leakage_nominal_w = 4.2;   // at T0, V0
  double leakage_ref_temp_c = 60.0;      // T0
  double leakage_temp_coeff = 0.055;     // k (1/°C): doubles every ~12.6 °C
  double leakage_saturation_c = 25.0;    // Tsat

  // Uncore (L3, memory controller, QPI, I/O): always on, mild activity
  // dependence.
  double uncore_base_w = 16.0;
  double uncore_active_w = 4.0;  // extra at full 4-core activity
};

/// Instantaneous operating point of one core, as tracked by the machine.
struct CoreOperatingPoint {
  CState cstate = CState::kC0;
  bool in_transition = false;  // entering/exiting an idle state
  double voltage_v = 1.225;
  double freq_ghz = 2.261;
  double activity = 0.0;    // workload switching-activity factor in [0,1]
  double clock_duty = 1.0;  // p4tcc duty cycle in (0,1]
};

/// Analytic power model: P_core = P_dyn(a, V, f, duty, C-state) +
/// P_leak(V, T_die). Pure function of the operating point and die
/// temperature. Leakage factors into a voltage term and a temperature
/// factor, so a caller can re-evaluate only the part whose input changed:
/// the machine memoises both per physical core (sched::Machine).
class CpuPowerModel {
 public:
  /// Throws std::invalid_argument unless leakage_saturation_c is finite and
  /// positive and leakage_temp_coeff and leakage_ref_temp_c are finite.
  explicit CpuPowerModel(PowerModelParams params = {});

  const PowerModelParams& params() const { return params_; }

  /// Dynamic (switching) power of one core, watts.
  double core_dynamic_power(const CoreOperatingPoint& op) const;

  /// Leakage power of one core at the given die temperature, watts.
  double core_leakage_power(const CoreOperatingPoint& op,
                            double die_temp_c) const {
    return core_leakage_power_with_factor(op, leakage_temp_factor(die_temp_c));
  }

  /// The temperature part of leakage, exp(k·Tsat·tanh((T − T0)/Tsat)),
  /// read from the shared LeakageTable for (k, Tsat): a pure function of
  /// the die temperature, so callers may memoise it.
  double leakage_temp_factor(double die_temp_c) const;

  /// The shared table behind leakage_temp_factor().
  const LeakageTable& leakage_table() const { return *leakage_; }

  /// The voltage part of leakage, L0·(V/V0)², at the operating point's
  /// effective voltage: a pure function of the operating point.
  double core_leakage_voltage_term(const CoreOperatingPoint& op) const;

  /// Leakage power given a precomputed leakage_temp_factor(): the voltage
  /// term times the factor, bit-identical to core_leakage_power at that
  /// temperature.
  double core_leakage_power_with_factor(const CoreOperatingPoint& op,
                                        double temp_factor) const {
    return core_leakage_voltage_term(op) * temp_factor;
  }

  /// Total power of one core, watts.
  double core_power(const CoreOperatingPoint& op, double die_temp_c) const {
    return core_dynamic_power(op) + core_leakage_power(op, die_temp_c);
  }

  /// Uncore power given the mean activity across cores in [0,1].
  double uncore_power(double mean_activity) const;

  /// Voltage actually applied in the operating point's C-state (C1E lowers
  /// it below the DVFS setpoint).
  double effective_voltage(const CoreOperatingPoint& op) const;

 private:
  PowerModelParams params_;
  const LeakageTable* leakage_;
};

}  // namespace dimetrodon::power
