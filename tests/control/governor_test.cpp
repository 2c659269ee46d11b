// Unit tests for the closed-loop governors (pure controllers over synthetic
// sensor frames) and the injection arbiter that serializes their actuation.
#include "control/governor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "control/arbiter.hpp"
#include "sched/machine.hpp"
#include "sim/canon.hpp"

namespace dimetrodon::control {
namespace {

SensorFrame frame(double max_c, double dt_s = 0.05) {
  SensorFrame f;
  f.dt_s = dt_s;
  f.temps_c = {max_c};
  f.max_c = max_c;
  f.mean_c = max_c;
  return f;
}

// --- hysteresis -------------------------------------------------------------

TEST(HysteresisGovernorTest, TripsAtTripPointHoldsUntilRelease) {
  HysteresisConfig cfg;
  cfg.trip_c = 70.0;
  cfg.release_c = 66.0;
  cfg.hot_probability = 0.6;
  cfg.idle_probability = 0.1;
  HysteresisGovernor gov(cfg);

  EXPECT_EQ(gov.update(frame(69.0)), 0.1);  // below trip: idle duty
  EXPECT_FALSE(gov.tripped());
  EXPECT_EQ(gov.update(frame(70.0)), 0.6);  // at trip: engage
  EXPECT_TRUE(gov.tripped());
  // Inside the band (release <= T < trip): the latch holds.
  EXPECT_EQ(gov.update(frame(68.0)), 0.6);
  EXPECT_EQ(gov.update(frame(66.0)), 0.6);
  EXPECT_TRUE(gov.tripped());
  // Strictly below the release point: let go.
  EXPECT_EQ(gov.update(frame(65.0)), 0.1);
  EXPECT_FALSE(gov.tripped());
}

TEST(HysteresisGovernorTest, BareThresholdFlapsWhereBandHolds) {
  // The same reading sequence oscillating one degree around the trip point:
  // the bare threshold follows every crossing, the banded governor latches.
  HysteresisConfig bare;
  bare.trip_c = bare.release_c = 70.0;
  HysteresisConfig banded = bare;
  banded.release_c = 67.0;
  HysteresisGovernor threshold(bare), hysteresis(banded);

  const double seq[] = {70.0, 69.0, 70.0, 69.0, 70.0, 69.0};
  int threshold_flips = 0, hysteresis_flips = 0;
  bool t_last = false, h_last = false;
  for (const double c : seq) {
    threshold.update(frame(c));
    hysteresis.update(frame(c));
    if (threshold.tripped() != t_last) ++threshold_flips;
    if (hysteresis.tripped() != h_last) ++hysteresis_flips;
    t_last = threshold.tripped();
    h_last = hysteresis.tripped();
  }
  EXPECT_EQ(threshold_flips, 6);  // every sample crosses the bare threshold
  EXPECT_EQ(hysteresis_flips, 1);  // trips once, never releases inside band
}

TEST(HysteresisGovernorTest, ResetClearsTheLatch) {
  HysteresisConfig cfg;
  cfg.trip_c = 70.0;
  cfg.release_c = 60.0;
  HysteresisGovernor gov(cfg);
  gov.update(frame(75.0));
  ASSERT_TRUE(gov.tripped());
  gov.reset();
  EXPECT_FALSE(gov.tripped());
}

TEST(HysteresisGovernorTest, InvertedBandThrows) {
  HysteresisConfig cfg;
  cfg.trip_c = 60.0;
  cfg.release_c = 65.0;
  EXPECT_THROW(HysteresisGovernor{cfg}, std::invalid_argument);
}

TEST(HysteresisGovernorTest, NameReflectsDegenerateBand) {
  HysteresisConfig banded;
  banded.trip_c = 70.0;
  banded.release_c = 66.0;
  EXPECT_EQ(HysteresisGovernor(banded).name(), "hysteresis");
  banded.release_c = banded.trip_c;
  EXPECT_EQ(HysteresisGovernor(banded).name(), "threshold");
}

// --- pid --------------------------------------------------------------------

TEST(PidGovernorTest, OutputIsClampedToProbabilityRange) {
  PidConfig cfg;
  cfg.setpoint_c = 50.0;
  cfg.kp = 1.0;  // huge gain: unclamped output far outside [min, max]
  cfg.ki = 0.0;
  cfg.min_probability = 0.05;
  cfg.max_probability = 0.9;
  PidGovernor gov(cfg);
  EXPECT_EQ(gov.update(frame(90.0)), 0.9);   // +40 C error -> clamped high
  EXPECT_EQ(gov.update(frame(10.0)), 0.05);  // -40 C error -> clamped low
}

TEST(PidGovernorTest, AntiWindupFreezesIntegralAtSaturation) {
  PidConfig cfg;
  cfg.setpoint_c = 50.0;
  cfg.kp = 0.0;
  cfg.ki = 0.1;
  cfg.max_probability = 0.5;
  PidGovernor gov(cfg);

  // 100 s of +10 C error. Naive integration would accumulate 1000 C*s
  // (ki * integral = 100); conditional integration stops once the output
  // saturates at 0.5, so the integral parks just past the clamp.
  for (int i = 0; i < 100; ++i) gov.update(frame(60.0, 1.0));
  EXPECT_LE(cfg.ki * gov.integral(), 0.5 + cfg.ki * 10.0 * 1.0);

  // Recovery is immediate once the error flips: a wound-up integral would
  // pin the output high for ~100 further seconds.
  double duty = 1.0;
  int steps = 0;
  while (duty > 0.0 && steps < 20) {
    duty = gov.update(frame(40.0, 1.0));
    ++steps;
  }
  EXPECT_LT(steps, 20) << "integral wind-up: output stuck high";
}

TEST(PidGovernorTest, DerivativeActsOnMeasurementWithoutFirstSampleKick) {
  PidConfig cfg;
  cfg.setpoint_c = 50.0;
  cfg.kp = 0.0;
  cfg.ki = 0.0;
  cfg.kd = 1.0;
  PidGovernor gov(cfg);
  // First frame: no previous measurement, derivative must be zero.
  EXPECT_EQ(gov.update(frame(80.0, 1.0)), 0.0);
  // Falling measurement -> negative derivative -> clamped at min (0).
  EXPECT_EQ(gov.update(frame(70.0, 1.0)), 0.0);
  // Rising measurement -> positive derivative contributes.
  EXPECT_GT(gov.update(frame(80.0, 1.0)), 0.0);
}

TEST(PidGovernorTest, ResetForgetsState) {
  PidConfig cfg;
  cfg.setpoint_c = 50.0;
  PidGovernor gov(cfg);
  // +2 C error: small enough that the default gains stay unsaturated, so
  // the integral actually accumulates.
  for (int i = 0; i < 10; ++i) gov.update(frame(52.0, 1.0));
  ASSERT_GT(gov.integral(), 0.0);
  gov.reset();
  EXPECT_EQ(gov.integral(), 0.0);
}

TEST(PidGovernorTest, InvertedClampThrows) {
  PidConfig cfg;
  cfg.min_probability = 0.8;
  cfg.max_probability = 0.2;
  EXPECT_THROW(PidGovernor{cfg}, std::invalid_argument);
}

// --- hybrid -----------------------------------------------------------------

TEST(HybridGovernorTest, AtSetpointRunsThePreventiveBaseline) {
  HybridConfig cfg;
  cfg.baseline_probability = 0.25;
  cfg.setpoint_c = 50.0;
  HybridGovernor gov(cfg);
  // Zero error, zero integral: exactly the paper's open-loop duty.
  EXPECT_EQ(gov.update(frame(50.0, 1.0)), 0.25);
  EXPECT_EQ(gov.trim(), 0.0);
}

TEST(HybridGovernorTest, TrimIsClampedToItsAuthority) {
  HybridConfig cfg;
  cfg.baseline_probability = 0.4;
  cfg.setpoint_c = 50.0;
  cfg.kp = 1.0;
  cfg.ki = 0.0;
  cfg.max_delta = 0.2;
  HybridGovernor gov(cfg);
  EXPECT_EQ(gov.update(frame(90.0, 1.0)), 0.4 + 0.2);  // trim caps at +delta
  EXPECT_EQ(gov.trim(), 0.2);
  EXPECT_EQ(gov.update(frame(10.0, 1.0)), 0.4 - 0.2);  // and at -delta
  EXPECT_EQ(gov.trim(), -0.2);
}

TEST(HybridGovernorTest, DutyStaysInValidRange) {
  HybridConfig cfg;
  cfg.baseline_probability = 0.1;
  cfg.setpoint_c = 50.0;
  cfg.kp = 1.0;
  cfg.max_delta = 0.5;
  cfg.max_probability = 0.95;
  HybridGovernor gov(cfg);
  // Baseline 0.1 with trim -0.5 would be negative: clamps to 0.
  EXPECT_EQ(gov.update(frame(10.0, 1.0)), 0.0);
  gov.reset();
  EXPECT_EQ(gov.trim(), 0.0);
}

TEST(HybridGovernorTest, NegativeAuthorityThrows) {
  HybridConfig cfg;
  cfg.max_delta = -0.1;
  EXPECT_THROW(HybridGovernor{cfg}, std::invalid_argument);
}

// --- power cap --------------------------------------------------------------

SensorFrame power_frame(double package_w, double dt_s = 0.25) {
  SensorFrame f = frame(50.0, dt_s);
  f.package_w = package_w;
  return f;
}

TEST(PowerCapGovernorTest, InjectsOnlyOverBudgetAndClampsAtTheCeiling) {
  PowerCapConfig cfg;
  cfg.cap_w = 50.0;
  cfg.max_probability = 0.6;
  PowerCapGovernor gov(cfg);
  EXPECT_EQ(gov.update(power_frame(30.0)), 0.0);  // under budget: no duty
  gov.reset();
  const double p = gov.update(power_frame(60.0));
  EXPECT_GT(p, 0.0);
  EXPECT_EQ(gov.last_power_w(), 60.0);
  for (int i = 0; i < 200; ++i) gov.update(power_frame(500.0));
  EXPECT_EQ(gov.update(power_frame(500.0)), 0.6);
  // Anti-windup: saturated steps did not wind the integral up, so the
  // first under-budget frame releases the duty at once.
  EXPECT_EQ(gov.update(power_frame(0.0)), 0.0);
}

TEST(PowerCapGovernorTest, NegativeCeilingThrows) {
  PowerCapConfig cfg;
  cfg.max_probability = -0.1;
  EXPECT_THROW(PowerCapGovernor{cfg}, std::invalid_argument);
}

// --- spec / factory ---------------------------------------------------------

TEST(GovernorSpecTest, FactoryMatchesKind) {
  GovernorSpec none;
  EXPECT_EQ(make_governor(none), nullptr);
  EXPECT_FALSE(none.enabled());

  GovernorSpec hys;
  hys.kind = GovernorKind::kHysteresis;
  EXPECT_EQ(make_governor(hys)->name(), "hysteresis");
  GovernorSpec pid;
  pid.kind = GovernorKind::kPid;
  EXPECT_EQ(make_governor(pid)->name(), "pid");
  GovernorSpec hybrid;
  hybrid.kind = GovernorKind::kHybrid;
  EXPECT_EQ(make_governor(hybrid)->name(), "hybrid");
  GovernorSpec cap;
  cap.kind = GovernorKind::kPowerCap;
  cap.power_cap.cap_w = 42.0;
  const auto gov = make_governor(cap);
  EXPECT_EQ(gov->name(), "power-cap");
  EXPECT_EQ(dynamic_cast<const PowerCapGovernor&>(*gov).config().cap_w, 42.0);
}

TEST(GovernorSpecTest, ReferenceTemperatureTracksTheActiveController) {
  GovernorSpec spec;
  EXPECT_EQ(governor_reference_c(spec), 0.0);
  spec.kind = GovernorKind::kHysteresis;
  spec.hysteresis.trip_c = 71.0;
  EXPECT_EQ(governor_reference_c(spec), 71.0);
  spec.kind = GovernorKind::kPid;
  spec.pid.setpoint_c = 64.0;
  EXPECT_EQ(governor_reference_c(spec), 64.0);
  spec.kind = GovernorKind::kHybrid;
  spec.hybrid.setpoint_c = 58.0;
  EXPECT_EQ(governor_reference_c(spec), 58.0);
  // A power loop has no temperature reference, whatever its cap.
  spec.kind = GovernorKind::kPowerCap;
  spec.power_cap.cap_w = 45.0;
  EXPECT_EQ(governor_reference_c(spec), 0.0);
}

TEST(GovernorSpecTest, CanonicalTextDistinguishesEveryBehavioralField) {
  GovernorSpec base;
  base.kind = GovernorKind::kPid;
  sim::CanonWriter wa;
  append_canonical_governor(wa, base);
  const std::string a = wa.take();

  auto differs = [&](auto mutate) {
    GovernorSpec other = base;
    mutate(other);
    sim::CanonWriter wb;
    append_canonical_governor(wb, other);
    return a != wb.take();
  };
  EXPECT_TRUE(differs([](GovernorSpec& s) { s.kind = GovernorKind::kHybrid; }));
  EXPECT_TRUE(differs([](GovernorSpec& s) { s.sample_period *= 2; }));
  EXPECT_TRUE(differs([](GovernorSpec& s) { s.quantum *= 2; }));
  EXPECT_TRUE(differs([](GovernorSpec& s) { s.stability_band_c += 0.5; }));
  EXPECT_TRUE(differs([](GovernorSpec& s) { s.pid.setpoint_c += 1.0; }));
  EXPECT_TRUE(differs([](GovernorSpec& s) { s.pid.ki += 0.001; }));
  EXPECT_TRUE(differs([](GovernorSpec& s) { s.hysteresis.release_c -= 1.0; }));
  EXPECT_TRUE(differs([](GovernorSpec& s) {
    s.hybrid.baseline_probability += 0.01;
  }));

  // The power-cap fields render for a kPowerCap spec, and each one counts.
  base.kind = GovernorKind::kPowerCap;
  sim::CanonWriter wc;
  append_canonical_governor(wc, base);
  const std::string cap_text = wc.take();
  EXPECT_NE(cap_text, a);
  auto cap_differs = [&](auto mutate) {
    GovernorSpec other = base;
    mutate(other);
    sim::CanonWriter wb;
    append_canonical_governor(wb, other);
    return cap_text != wb.take();
  };
  EXPECT_TRUE(cap_differs([](GovernorSpec& s) { s.power_cap.cap_w += 1.0; }));
  EXPECT_TRUE(cap_differs([](GovernorSpec& s) { s.power_cap.kp += 0.001; }));
  EXPECT_TRUE(cap_differs([](GovernorSpec& s) { s.power_cap.ki += 0.001; }));
  EXPECT_TRUE(cap_differs([](GovernorSpec& s) {
    s.power_cap.max_probability -= 0.1;
  }));
  // Other kinds do not render them, so their keys predate kPowerCap.
  GovernorSpec pid_with_cap = base;
  pid_with_cap.kind = GovernorKind::kPid;
  pid_with_cap.power_cap.cap_w += 1.0;
  sim::CanonWriter wp;
  append_canonical_governor(wp, pid_with_cap);
  EXPECT_EQ(wp.take(), a);
}

// --- arbiter ----------------------------------------------------------------

sched::MachineConfig quiet_machine() {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  return cfg;
}

TEST(InjectionArbiterTest, MaxProbabilityWinsTiesGoToLowestChannel) {
  sched::Machine m(quiet_machine());
  core::DimetrodonController ctl(m);
  InjectionArbiter arb(ctl);

  auto& preventive =
      arb.claim(InjectionArbiter::Channel::kPreventive, "preventive");
  auto& governor = arb.claim(InjectionArbiter::Channel::kGovernor, "governor");

  preventive.request(0.3, sim::from_ms(10));
  EXPECT_EQ(arb.resolved_probability(), 0.3);
  EXPECT_EQ(ctl.table().global().probability, 0.3);

  governor.request(0.5, sim::from_ms(5));
  EXPECT_EQ(arb.resolved_probability(), 0.5);
  EXPECT_EQ(arb.winner(), InjectionArbiter::Channel::kGovernor);
  EXPECT_EQ(ctl.table().global().quantum, sim::from_ms(5));

  // Tie: the lower channel index (preventive) wins deterministically.
  governor.request(0.3, sim::from_ms(5));
  EXPECT_EQ(arb.winner(), InjectionArbiter::Channel::kPreventive);
  EXPECT_EQ(ctl.table().global().quantum, sim::from_ms(10));
}

TEST(InjectionArbiterTest, WithdrawFallsBackToNextRequest) {
  sched::Machine m(quiet_machine());
  core::DimetrodonController ctl(m);
  InjectionArbiter arb(ctl);
  auto& preventive =
      arb.claim(InjectionArbiter::Channel::kPreventive, "preventive");
  auto& governor = arb.claim(InjectionArbiter::Channel::kGovernor, "governor");

  preventive.request(0.2, sim::from_ms(10));
  governor.request(0.7, sim::from_ms(5));
  ASSERT_EQ(arb.resolved_probability(), 0.7);

  governor.withdraw();
  EXPECT_FALSE(governor.engaged());
  EXPECT_EQ(arb.resolved_probability(), 0.2);
  EXPECT_EQ(ctl.table().global().probability, 0.2);

  preventive.withdraw();
  EXPECT_EQ(arb.resolved_probability(), 0.0);
  EXPECT_FALSE(ctl.table().global().enabled());
}

TEST(InjectionArbiterTest, DoubleClaimThrows) {
  sched::Machine m(quiet_machine());
  core::DimetrodonController ctl(m);
  InjectionArbiter arb(ctl);
  arb.claim(InjectionArbiter::Channel::kGovernor, "pid");
  EXPECT_TRUE(arb.claimed(InjectionArbiter::Channel::kGovernor));
  EXPECT_EQ(arb.owner(InjectionArbiter::Channel::kGovernor), "pid");
  // Two governors on one machine is a configuration error, not a silent tie.
  EXPECT_THROW(arb.claim(InjectionArbiter::Channel::kGovernor, "hysteresis"),
               std::logic_error);
}

TEST(InjectionArbiterTest, WritesOnlyOnResolvedChange) {
  sched::Machine m(quiet_machine());
  core::DimetrodonController ctl(m);
  InjectionArbiter arb(ctl);
  auto& port = arb.claim(InjectionArbiter::Channel::kGovernor, "governor");

  port.request(0.4, sim::from_ms(10));
  const std::uint64_t after_first = arb.writes();
  EXPECT_GE(after_first, 1u);
  // Re-requesting the identical (p, quantum) must not touch the controller.
  port.request(0.4, sim::from_ms(10));
  EXPECT_EQ(arb.writes(), after_first);
  port.request(0.4, sim::from_ms(20));  // quantum change is a real change
  EXPECT_EQ(arb.writes(), after_first + 1);
}

}  // namespace
}  // namespace dimetrodon::control
