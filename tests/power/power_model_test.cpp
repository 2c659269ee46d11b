#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "power/leakage_table.hpp"
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
  // factor must equal the one-shot form bitwise.
  const CpuPowerModel model;
  sim::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    CoreOperatingPoint op;
    op.cstate = static_cast<CState>(rng.uniform_int(0, 2));
    op.in_transition = rng.uniform() < 0.3;
    op.voltage_v = rng.uniform(0.8, 1.3);
    const double t = rng.uniform(-20.0, 160.0);
    EXPECT_EQ(model.core_leakage_power(op, t),
              model.core_leakage_power_with_factor(
                  op, model.leakage_temp_factor(t)));
  }
}

// The documented law the table is fitted to, evaluated with libm in double:
// exp(k·(Tsat·tanh((T − T0)/Tsat))).
double closed_form_factor(const PowerModelParams& p, double t) {
  const double tsat = p.leakage_saturation_c;
  return std::exp(p.leakage_temp_coeff *
                  (tsat * std::tanh((t - p.leakage_ref_temp_c) / tsat)));
}

std::uint64_t ulp_distance(double a, double b) {
  // Both factors are positive, so their bit patterns order like the values.
  const auto x = std::bit_cast<std::uint64_t>(a);
  const auto y = std::bit_cast<std::uint64_t>(b);
  return x > y ? x - y : y - x;
}

TEST(PowerModelTest, LeakageFactorWithinFourUlpOfClosedFormOnMillidegreeGrid) {
  const CpuPowerModel model;
  std::uint64_t worst = 0;
  double worst_t = 0.0;
  for (int i = -50000; i <= 250000; ++i) {
    const double t = i * 0.001;
    const std::uint64_t d = ulp_distance(
        model.leakage_temp_factor(t), closed_form_factor(model.params(), t));
    if (d > worst) {
      worst = d;
      worst_t = t;
    }
  }
  EXPECT_LE(worst, 4u) << "at " << worst_t << " C";
}

TEST(PowerModelTest,
     LeakageFactorWithinFourUlpOfClosedFormOnRandomTemperatures) {
  // Over the whole table domain, |T − T0| < 20·Tsat.
  const CpuPowerModel model;
  const auto& p = model.params();
  const double span = LeakageTable::kHalfWidth * p.leakage_saturation_c;
  sim::Rng rng(11);
  std::uint64_t worst = 0;
  double worst_t = 0.0;
  for (int i = 0; i < 10'000'000; ++i) {
    const double t =
        rng.uniform(p.leakage_ref_temp_c - span, p.leakage_ref_temp_c + span);
    const std::uint64_t d =
        ulp_distance(model.leakage_temp_factor(t), closed_form_factor(p, t));
    if (d > worst) {
      worst = d;
      worst_t = t;
    }
  }
  EXPECT_LE(worst, 4u) << "at " << worst_t << " C";
}

TEST(PowerModelTest, LeakageFactorBitIdenticalWhenSaturatedAndOnSpecialValues) {
  // For |x| ≥ 20 libm's tanh is exactly ±1, and the table returns the
  // closed form's exp(±k·Tsat) bit for bit; ±inf saturate and NaN
  // propagates.
  const CpuPowerModel model;
  const auto& p = model.params();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double edge = LeakageTable::kHalfWidth * p.leakage_saturation_c;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double t :
       {p.leakage_ref_temp_c + edge, p.leakage_ref_temp_c - edge,
        p.leakage_ref_temp_c + edge + 1.0, p.leakage_ref_temp_c - edge - 1.0,
        1e6, -1e6, 1e300, -1e300, inf, -inf}) {
    EXPECT_EQ(bits(model.leakage_temp_factor(t)),
              bits(closed_form_factor(p, t)))
        << "at " << t << " C";
  }
  sim::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double t = p.leakage_ref_temp_c + rng.uniform(edge, 100.0 * edge);
    const double mirrored = 2.0 * p.leakage_ref_temp_c - t;
    EXPECT_EQ(bits(model.leakage_temp_factor(t)),
              bits(closed_form_factor(p, t)));
    EXPECT_EQ(bits(model.leakage_temp_factor(mirrored)),
              bits(closed_form_factor(p, mirrored)));
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(model.leakage_temp_factor(nan)));
  EXPECT_EQ(bits(model.leakage_temp_factor(nan)),
            bits(closed_form_factor(p, nan)));
}

TEST(PowerModelTest, LeakageFactorMonotoneOnMillidegreeGrid) {
  // Monotone at 0.001 C steps. At 1-ulp steps in temperature the rounded
  // polynomial is not, so this does not claim it.
  const CpuPowerModel model;
  double prev = model.leakage_temp_factor(-50.0);
  for (int i = -49999; i <= 250000; ++i) {
    const double t = i * 0.001;
    const double f = model.leakage_temp_factor(t);
    ASSERT_GT(f, prev) << "at " << t << " C";
    prev = f;
  }
}

TEST(PowerModelTest, LeakageTableSharedPerParameterSet) {
  const CpuPowerModel a;
  const CpuPowerModel b;
  EXPECT_EQ(&a.leakage_table(), &b.leakage_table());
  // T0 is not part of the table.
  PowerModelParams moved_ref;
  moved_ref.leakage_ref_temp_c = 45.0;
  EXPECT_EQ(&CpuPowerModel(moved_ref).leakage_table(), &a.leakage_table());
  PowerModelParams other_k;
  other_k.leakage_temp_coeff = 0.05;
  PowerModelParams other_tsat;
  other_tsat.leakage_saturation_c = 30.0;
  const CpuPowerModel ck(other_k);
  const CpuPowerModel ct(other_tsat);
  EXPECT_NE(&ck.leakage_table(), &a.leakage_table());
  EXPECT_NE(&ct.leakage_table(), &a.leakage_table());
  EXPECT_NE(&ck.leakage_table(), &ct.leakage_table());
  EXPECT_EQ(&CpuPowerModel(other_k).leakage_table(), &ck.leakage_table());
}

TEST(PowerModelTest, LeakageTableFitIsDeterministic) {
  const PowerModelParams p;
  const auto first = std::make_unique<LeakageTable>(p.leakage_temp_coeff,
                                                    p.leakage_saturation_c);
  const auto second = std::make_unique<LeakageTable>(p.leakage_temp_coeff,
                                                     p.leakage_saturation_c);
  const auto& shared =
      LeakageTable::shared(p.leakage_temp_coeff, p.leakage_saturation_c);
  for (int i = 0; i < LeakageTable::kCells; ++i) {
    for (int n = 0; n <= LeakageTable::kDegree; ++n) {
      const auto bits = [&](const LeakageTable& t) {
        return std::bit_cast<std::uint64_t>(t.cells()[i].c[n]);
      };
      ASSERT_EQ(bits(*first), bits(*second)) << "cell " << i << " c" << n;
      ASSERT_EQ(bits(*first), bits(shared)) << "cell " << i << " c" << n;
    }
  }
}

TEST(PowerModelTest, ConcurrentModelsGetOneTablePerParameterSet) {
  // Parameter sets no other test uses, so every thread races to build them.
  constexpr int kThreads = 8;
  constexpr int kSets = 3;
  std::array<std::array<const LeakageTable*, kSets>, kThreads> seen{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      for (int s = 0; s < kSets; ++s) {
        PowerModelParams p;
        p.leakage_temp_coeff = 0.071 + 0.001 * s;
        p.leakage_saturation_c = 27.5;
        seen[t][s] = &CpuPowerModel(p).leakage_table();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int s = 0; s < kSets; ++s) {
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][s], seen[0][s]);
    for (int other = 0; other < s; ++other) {
      EXPECT_NE(seen[0][s], seen[0][other]);
    }
  }
}

TEST(PowerModelTest, RejectsDegenerateLeakageParameters) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double tsat : {0.0, -0.0, -25.0, inf, -inf, nan}) {
    PowerModelParams p;
    p.leakage_saturation_c = tsat;
    EXPECT_THROW(CpuPowerModel{p}, std::invalid_argument) << "Tsat " << tsat;
  }
  for (const double k : {inf, -inf, nan}) {
    PowerModelParams p;
    p.leakage_temp_coeff = k;
    EXPECT_THROW(CpuPowerModel{p}, std::invalid_argument) << "k " << k;
  }
  for (const double t0 : {inf, -inf, nan}) {
    PowerModelParams p;
    p.leakage_ref_temp_c = t0;
    EXPECT_THROW(CpuPowerModel{p}, std::invalid_argument) << "T0 " << t0;
  }
  PowerModelParams tiny;
  tiny.leakage_saturation_c = 1e-3;
  EXPECT_NO_THROW(CpuPowerModel{tiny});
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
