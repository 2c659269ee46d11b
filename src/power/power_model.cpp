#include "power/power_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dimetrodon::power {
namespace {

const PowerModelParams& validated(const PowerModelParams& p) {
  // The table's domain is x = (T − T0)/Tsat, and Tsat = 0 turns a die at
  // exactly T0 into 0/0: a NaN leakage that poisons the thermal network.
  if (!std::isfinite(p.leakage_saturation_c) || p.leakage_saturation_c <= 0.0) {
    throw std::invalid_argument(
        "leakage_saturation_c must be finite and positive");
  }
  if (!std::isfinite(p.leakage_temp_coeff)) {
    throw std::invalid_argument("leakage_temp_coeff must be finite");
  }
  if (!std::isfinite(p.leakage_ref_temp_c)) {
    throw std::invalid_argument("leakage_ref_temp_c must be finite");
  }
  return p;
}

}  // namespace

CpuPowerModel::CpuPowerModel(PowerModelParams params)
    : params_(validated(params)),
      leakage_(&LeakageTable::shared(params_.leakage_temp_coeff,
                                     params_.leakage_saturation_c)) {}

double CpuPowerModel::effective_voltage(const CoreOperatingPoint& op) const {
  // During entry/exit transitions the core has not yet reached the idle
  // state's operating conditions.
  if (op.in_transition || op.cstate == CState::kC0) return op.voltage_v;
  const CStateInfo info = cstate_info(op.cstate);
  if (info.voltage_override > 0.0) {
    return std::min(op.voltage_v, info.voltage_override);
  }
  return op.voltage_v;
}

double CpuPowerModel::core_dynamic_power(const CoreOperatingPoint& op) const {
  const double v0 = params_.nominal_voltage_v;
  const double f0 = params_.nominal_freq_ghz;
  double activity = std::clamp(op.activity, 0.0, 1.0);
  double duty = std::clamp(op.clock_duty, 0.0, 1.0);
  double v = op.voltage_v;
  double f = op.freq_ghz;
  if (!op.in_transition && op.cstate != CState::kC0) {
    // Idle residual: the halted core keeps a trickle of clocked logic alive.
    activity = cstate_info(op.cstate).dynamic_fraction;
    duty = 1.0;
    v = effective_voltage(op);
  }
  return params_.core_dynamic_nominal_w * activity * duty * (v / v0) *
         (v / v0) * (f / f0);
}

double CpuPowerModel::leakage_temp_factor(double die_temp_c) const {
  // Soft saturation: exponential near T0, flattening far above it so the
  // leakage feedback loop is physically bounded (see PowerModelParams).
  return (*leakage_)((die_temp_c - params_.leakage_ref_temp_c) /
                     params_.leakage_saturation_c);
}

double CpuPowerModel::core_leakage_voltage_term(
    const CoreOperatingPoint& op) const {
  const double v = effective_voltage(op);
  const double v0 = params_.nominal_voltage_v;
  return params_.core_leakage_nominal_w * (v / v0) * (v / v0);
}

double CpuPowerModel::uncore_power(double mean_activity) const {
  return params_.uncore_base_w +
         params_.uncore_active_w * std::clamp(mean_activity, 0.0, 1.0);
}

}  // namespace dimetrodon::power
