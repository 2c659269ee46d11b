#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"

namespace dimetrodon::power {
namespace {

CoreOperatingPoint nominal_c0(double activity = 1.0) {
  CoreOperatingPoint op;
  op.cstate = CState::kC0;
  op.voltage_v = 1.225;
  op.freq_ghz = 2.261;
  op.activity = activity;
  op.clock_duty = 1.0;
  return op;
}

TEST(PowerModelTest, NominalDynamicPowerMatchesParameter) {
  const CpuPowerModel model;
  EXPECT_NEAR(model.core_dynamic_power(nominal_c0()),
              model.params().core_dynamic_nominal_w, 1e-9);
}

TEST(PowerModelTest, DynamicPowerLinearInActivity) {
  const CpuPowerModel model;
  const double full = model.core_dynamic_power(nominal_c0(1.0));
  EXPECT_NEAR(model.core_dynamic_power(nominal_c0(0.5)), 0.5 * full, 1e-9);
  EXPECT_NEAR(model.core_dynamic_power(nominal_c0(0.0)), 0.0, 1e-9);
}

TEST(PowerModelTest, DynamicPowerLinearInFrequency) {
  const CpuPowerModel model;
  CoreOperatingPoint op = nominal_c0();
  const double full = model.core_dynamic_power(op);
  op.freq_ghz /= 2.0;
  EXPECT_NEAR(model.core_dynamic_power(op), 0.5 * full, 1e-9);
}

TEST(PowerModelTest, DynamicPowerQuadraticInVoltage) {
  const CpuPowerModel model;
  CoreOperatingPoint op = nominal_c0();
  const double full = model.core_dynamic_power(op);
  op.voltage_v *= 0.8;
  EXPECT_NEAR(model.core_dynamic_power(op), 0.64 * full, 1e-9);
}

TEST(PowerModelTest, DynamicPowerScalesWithClockDuty) {
  const CpuPowerModel model;
  CoreOperatingPoint op = nominal_c0();
  op.clock_duty = 0.25;
  EXPECT_NEAR(model.core_dynamic_power(op),
              0.25 * model.params().core_dynamic_nominal_w, 1e-9);
}

TEST(PowerModelTest, LeakageExponentialInTemperature) {
  const CpuPowerModel model;
  const auto& p = model.params();
  const CoreOperatingPoint op = nominal_c0();
  const double at_ref = model.core_leakage_power(op, p.leakage_ref_temp_c);
  EXPECT_NEAR(at_ref, p.core_leakage_nominal_w, 1e-9);
  // Near the reference the model is the textbook exponential (within the
  // few-percent bend the tanh saturation introduces)...
  const double hotter =
      model.core_leakage_power(op, p.leakage_ref_temp_c + 10.0);
  EXPECT_NEAR(hotter / at_ref, std::exp(10.0 * p.leakage_temp_coeff), 0.06);
  // ... and matches the documented saturating form exactly.
  const double dt_eff =
      p.leakage_saturation_c * std::tanh(10.0 / p.leakage_saturation_c);
  EXPECT_NEAR(hotter / at_ref, std::exp(p.leakage_temp_coeff * dt_eff),
              1e-9);
}

TEST(PowerModelTest, LeakageFactorFormIsBitIdentical) {
  // The machine memoises leakage_temp_factor per core; leakage through the
  // factor must equal the one-shot form, and both the documented
  // L0·(V/V0)²·exp(k·(Tsat·tanh((T − T0)/Tsat))) in its product order,
  // bitwise.
  const CpuPowerModel model;
  const auto& p = model.params();
  sim::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    CoreOperatingPoint op;
    op.cstate = static_cast<CState>(rng.uniform_int(0, 2));
    op.in_transition = rng.uniform() < 0.3;
    op.voltage_v = rng.uniform(0.8, 1.3);
    const double t = rng.uniform(-20.0, 160.0);
    const double leak = model.core_leakage_power(op, t);
    EXPECT_EQ(leak, model.core_leakage_power_with_factor(
                        op, model.leakage_temp_factor(t)));
    const double v = model.effective_voltage(op) / p.nominal_voltage_v;
    const double tsat = p.leakage_saturation_c;
    const double dt_eff = tsat * std::tanh((t - p.leakage_ref_temp_c) / tsat);
    EXPECT_EQ(leak, p.core_leakage_nominal_w * v * v *
                        std::exp(p.leakage_temp_coeff * dt_eff));
  }
}

TEST(PowerModelTest, LeakageSaturatesFarAboveReference) {
  // The saturating form bounds leakage: the 60->120 C multiplier is well
  // below the unsaturated exponential's.
  const CpuPowerModel model;
  const auto& p = model.params();
  const CoreOperatingPoint op = nominal_c0();
  const double at_ref = model.core_leakage_power(op, p.leakage_ref_temp_c);
  const double extreme = model.core_leakage_power(op, 120.0);
  EXPECT_LT(extreme / at_ref, std::exp(p.leakage_temp_coeff * 60.0) * 0.5);
  EXPECT_LT(extreme, 5.0 * p.core_leakage_nominal_w);
}

TEST(PowerModelTest, LeakageMonotoneInTemperature) {
  const CpuPowerModel model;
  const CoreOperatingPoint op = nominal_c0();
  double prev = 0.0;
  for (double t = 20.0; t <= 90.0; t += 5.0) {
    const double leak = model.core_leakage_power(op, t);
    EXPECT_GT(leak, prev);
    prev = leak;
  }
}

TEST(PowerModelTest, LeakageIsSubstantialFractionWhenHot) {
  // The paper's trade-off shapes require leakage to matter: at hot die
  // temperatures leakage should be a third or more of core power.
  const CpuPowerModel model;
  const CoreOperatingPoint op = nominal_c0();
  const double leak = model.core_leakage_power(op, 70.0);
  const double total = model.core_power(op, 70.0);
  EXPECT_GT(leak / total, 0.30);
  EXPECT_LT(leak / total, 0.60);
}

TEST(PowerModelTest, C1GatesDynamicKeepsLeakage) {
  const CpuPowerModel model;
  CoreOperatingPoint op = nominal_c0();
  op.cstate = CState::kC1;
  const double dyn = model.core_dynamic_power(op);
  EXPECT_LT(dyn, 0.1 * model.params().core_dynamic_nominal_w);
  // Leakage unchanged versus C0 at the same voltage.
  EXPECT_NEAR(model.core_leakage_power(op, 60.0),
              model.core_leakage_power(nominal_c0(), 60.0), 1e-9);
}

TEST(PowerModelTest, C1EReducesLeakageViaVoltage) {
  const CpuPowerModel model;
  CoreOperatingPoint op = nominal_c0();
  op.cstate = CState::kC1E;
  const double c1e_leak = model.core_leakage_power(op, 60.0);
  const double c0_leak = model.core_leakage_power(nominal_c0(), 60.0);
  EXPECT_LT(c1e_leak, 0.6 * c0_leak);
}

TEST(PowerModelTest, TransitionBurnsAtActiveLevels) {
  // During C-state entry/exit the core has not reached idle conditions yet —
  // the cost that ruins microsecond-scale duty cycling.
  const CpuPowerModel model;
  CoreOperatingPoint op = nominal_c0();
  op.cstate = CState::kC1E;
  op.in_transition = true;
  EXPECT_NEAR(model.core_power(op, 60.0),
              model.core_power(nominal_c0(), 60.0), 1e-9);
}

TEST(PowerModelTest, C1EIdlePowerFarBelowActive) {
  const CpuPowerModel model;
  CoreOperatingPoint idle = nominal_c0();
  idle.cstate = CState::kC1E;
  idle.activity = 0.0;
  const double m = model.core_power(idle, 40.0);
  const double u = model.core_power(nominal_c0(), 70.0);
  EXPECT_LT(m, 0.2 * u);
}

TEST(PowerModelTest, UncorePowerScalesWithActivity) {
  const CpuPowerModel model;
  const auto& p = model.params();
  EXPECT_NEAR(model.uncore_power(0.0), p.uncore_base_w, 1e-9);
  EXPECT_NEAR(model.uncore_power(1.0), p.uncore_base_w + p.uncore_active_w,
              1e-9);
  EXPECT_NEAR(model.uncore_power(2.0), p.uncore_base_w + p.uncore_active_w,
              1e-9);  // clamped
}

TEST(PowerModelTest, PackagePowerBudgetRealistic) {
  // Four cpuburn cores at ~70 C plus uncore must land inside the E5520's
  // 80 W TDP ballpark, and the idle package in the 20-30 W range.
  const CpuPowerModel model;
  const double hot = 4.0 * model.core_power(nominal_c0(), 70.0) +
                     model.uncore_power(1.0);
  EXPECT_GT(hot, 55.0);
  EXPECT_LT(hot, 85.0);
  CoreOperatingPoint idle = nominal_c0(0.0);
  idle.cstate = CState::kC1E;
  const double idle_pkg =
      4.0 * model.core_power(idle, 33.0) + model.uncore_power(0.0);
  EXPECT_GT(idle_pkg, 12.0);
  EXPECT_LT(idle_pkg, 32.0);
}

class ActivitySweep : public ::testing::TestWithParam<double> {};

TEST_P(ActivitySweep, ActivityClampedToUnitInterval) {
  const CpuPowerModel model;
  const double dyn = model.core_dynamic_power(nominal_c0(GetParam()));
  EXPECT_GE(dyn, 0.0);
  EXPECT_LE(dyn, model.params().core_dynamic_nominal_w + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Extremes, ActivitySweep,
                         ::testing::Values(-1.0, 0.0, 0.3, 1.0, 2.5));

}  // namespace
}  // namespace dimetrodon::power
