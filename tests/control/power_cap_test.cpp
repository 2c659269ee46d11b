// The power cap as a governor: a kPowerCap spec on the GovernorDriver holds
// package power at a budget through the arbiter's kPowerCap channel, reading
// the frame's package power (the energy-account delta since the previous
// sample).
#include <gtest/gtest.h>

#include <memory>

#include "control/arbiter.hpp"
#include "control/driver.hpp"
#include "core/controller.hpp"
#include "obs/trace_sink.hpp"
#include "workload/cpuburn.hpp"

namespace dimetrodon::control {
namespace {

sched::MachineConfig small_config() {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  return cfg;
}

GovernorSpec cap_spec(double cap_w) {
  GovernorSpec spec;
  spec.kind = GovernorKind::kPowerCap;
  spec.sample_period = sim::from_ms(250);
  spec.quantum = sim::from_ms(5);
  spec.power_cap.cap_w = cap_w;
  return spec;
}

struct CappedMachine {
  explicit CappedMachine(double cap_w,
                         sched::MachineConfig cfg = small_config())
      : machine(cfg),
        controller(machine),
        arbiter(controller),
        driver(machine, arbiter, cap_spec(cap_w)),
        fleet(4) {
    fleet.deploy(machine);
  }

  const PowerCapGovernor& governor() const {
    return dynamic_cast<const PowerCapGovernor&>(driver.governor());
  }

  sched::Machine machine;
  core::DimetrodonController controller;
  InjectionArbiter arbiter;
  GovernorDriver driver;
  workload::CpuBurnFleet fleet;
};

double run_with_cap(double cap_w, double* held_power = nullptr,
                    double* final_p = nullptr) {
  CappedMachine cm(cap_w);
  cm.machine.run_for(sim::from_sec(30));  // let the loop converge
  const double e0 = cm.machine.energy().total_joules();
  const double w0 = cm.fleet.progress(cm.machine);
  cm.machine.run_for(sim::from_sec(20));
  if (held_power != nullptr) {
    *held_power = (cm.machine.energy().total_joules() - e0) / 20.0;
  }
  if (final_p != nullptr) *final_p = cm.driver.last_duty();
  return (cm.fleet.progress(cm.machine) - w0) / 20.0;
}

TEST(PowerCapTest, HoldsPowerNearBudget) {
  double held = 0.0;
  run_with_cap(50.0, &held);
  EXPECT_NEAR(held, 50.0, 3.0);
}

TEST(PowerCapTest, TighterCapMeansLessThroughput) {
  const double thr60 = run_with_cap(60.0);
  const double thr45 = run_with_cap(45.0);
  EXPECT_LT(thr45, thr60 - 0.3);
}

TEST(PowerCapTest, GenerousCapLeavesWorkloadAlone) {
  double held = 0.0;
  double p = 0.0;
  const double thr = run_with_cap(120.0, &held, &p);
  EXPECT_NEAR(thr, 4.0, 0.1);        // unconstrained throughput
  EXPECT_LT(p, 0.02);                // no injection needed
  EXPECT_LT(held, 80.0);             // natural power, far below cap
}

TEST(PowerCapTest, StopFreezesController) {
  CappedMachine cm(45.0);
  cm.machine.run_for(sim::from_sec(5));
  cm.driver.stop();
  const auto samples = cm.driver.stats().samples;
  cm.machine.run_for(sim::from_sec(5));
  EXPECT_EQ(cm.driver.stats().samples, samples);
}

TEST(PowerCapTest, ReportsObservedPower) {
  CappedMachine cm(55.0);
  cm.machine.run_for(sim::from_sec(10));
  EXPECT_GT(cm.governor().last_power_w(), 20.0);
  EXPECT_LT(cm.governor().last_power_w(), 90.0);
  EXPECT_GT(cm.driver.stats().samples, 30u);
}

// The frame's package power is the energy-account delta over the span since
// the previous frame — on an idle machine that is exactly the idle power.
TEST(PowerCapTest, PackagePowerIsTheEnergyDeltaPerFrame) {
  sched::Machine m(small_config());
  core::DimetrodonController ctl(m);
  InjectionArbiter arb(ctl);
  GovernorDriver driver(m, arb, cap_spec(50.0));
  m.run_for(sim::from_ms(250));
  const double e0 = m.energy().total_joules();
  m.run_for(sim::from_ms(250));
  ASSERT_EQ(driver.stats().samples, 2u);
  const auto& gov = dynamic_cast<const PowerCapGovernor&>(driver.governor());
  EXPECT_NEAR(gov.last_power_w(), (m.energy().total_joules() - e0) / 0.25,
              1e-9);
  EXPECT_GT(gov.last_power_w(), 0.0);
}

// A power loop regulates watts, not temperature: it claims the kPowerCap
// channel, labels its duty changes with that channel, and records no
// temperature stability series (there is no setpoint in degrees to measure
// overshoot or settling against).
TEST(PowerCapTest, ClaimsThePowerCapChannelAndRecordsNoTemperatureSeries) {
  auto sink = std::make_shared<obs::RingBufferSink>();
  sched::MachineConfig cfg = small_config();
  cfg.trace_sink_factory = [sink] { return sink; };
  CappedMachine cm(45.0, cfg);
  cm.machine.run_for(sim::from_sec(10));

  EXPECT_TRUE(cm.arbiter.claimed(InjectionArbiter::Channel::kPowerCap));
  EXPECT_FALSE(cm.arbiter.claimed(InjectionArbiter::Channel::kGovernor));
  EXPECT_EQ(cm.arbiter.owner(InjectionArbiter::Channel::kPowerCap),
            "power-cap[cap=45W,kp=0.01,ki=0.02]");
  EXPECT_EQ(cm.arbiter.winner(), InjectionArbiter::Channel::kPowerCap);
  EXPECT_GT(cm.arbiter.resolved_probability(), 0.0);

  std::size_t duty_events = 0;
  for (const auto& e : sink->snapshot()) {
    if (e.kind != obs::EventKind::kDutyChange) continue;
    ++duty_events;
    EXPECT_EQ(e.arg, static_cast<std::uint32_t>(
                         InjectionArbiter::Channel::kPowerCap));
  }
  EXPECT_GT(duty_events, 0u);
  EXPECT_EQ(duty_events, cm.driver.stats().duty_changes);

  const StabilityMetrics m = cm.driver.stability_metrics();
  EXPECT_EQ(cm.driver.stability().sample_count(), 0u);
  EXPECT_EQ(m.samples, 0u);
  EXPECT_EQ(m.overshoot_c, 0.0);
  EXPECT_EQ(m.settling_time_s, -1.0);
}

}  // namespace
}  // namespace dimetrodon::control
