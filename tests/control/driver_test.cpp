// GovernorDriver integration: sampling cadence, actuation through the
// arbiter, quantized-sensor enforcement, thermal-clock parity, determinism,
// and coexistence of a thermal governor with a power-cap governor.
#include "control/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "control/arbiter.hpp"
#include "core/controller.hpp"
#include "obs/trace_sink.hpp"
#include "workload/cpuburn.hpp"

namespace dimetrodon::control {
namespace {

sched::MachineConfig base_config() {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  return cfg;
}

// cpuburn x4 crosses 46 C (quantized) after ~2 s on the default floorplan,
// so a mid-40s trip point exercises trip and release within a short run.
GovernorSpec hysteresis_spec(double trip_c = 46.0, double release_c = 44.0) {
  GovernorSpec spec;
  spec.kind = GovernorKind::kHysteresis;
  spec.hysteresis.trip_c = trip_c;
  spec.hysteresis.release_c = release_c;
  spec.hysteresis.hot_probability = 0.6;
  return spec;
}

GovernorSpec pid_spec(double setpoint_c = 47.0) {
  GovernorSpec spec;
  spec.kind = GovernorKind::kPid;
  spec.pid.setpoint_c = setpoint_c;
  spec.pid.kp = 0.05;
  spec.pid.ki = 0.02;
  return spec;
}

struct GovernedMachine {
  explicit GovernedMachine(GovernorSpec spec,
                           sched::MachineConfig cfg = base_config())
      : machine(cfg),
        controller(machine),
        arbiter(controller),
        driver(machine, arbiter, spec),
        fleet(4) {
    fleet.deploy(machine);
  }

  sched::Machine machine;
  core::DimetrodonController controller;
  InjectionArbiter arbiter;
  GovernorDriver driver;
  workload::CpuBurnFleet fleet;
};

std::vector<double> die_temps(const sched::Machine& m) {
  std::vector<double> t;
  for (std::size_t i = 0; i < m.num_physical_cores(); ++i) {
    t.push_back(m.die_temperature(static_cast<sched::CoreId>(i)));
  }
  return t;
}

TEST(GovernorDriverTest, RejectsDisabledSpecAndBadPeriod) {
  sched::Machine m(base_config());
  core::DimetrodonController ctl(m);
  InjectionArbiter arb(ctl);
  EXPECT_THROW(GovernorDriver(m, arb, GovernorSpec{}), std::invalid_argument);
  GovernorSpec bad = hysteresis_spec();
  bad.sample_period = 0;
  EXPECT_THROW(GovernorDriver(m, arb, bad), std::invalid_argument);
  // A failed construction must not leak the channel claim: a valid driver
  // can still be built on the same arbiter afterwards.
  EXPECT_FALSE(arb.claimed(InjectionArbiter::Channel::kGovernor));
  GovernorDriver ok(m, arb, hysteresis_spec());
  EXPECT_TRUE(arb.claimed(InjectionArbiter::Channel::kGovernor));
}

TEST(GovernorDriverTest, SamplesAtTheConfiguredPeriod) {
  GovernorSpec spec = hysteresis_spec();
  spec.sample_period = sim::from_ms(50);
  GovernedMachine gm(spec);
  gm.machine.run_for(sim::from_sec(5));
  // One sample per 50 ms period; the sample at exactly t=5 s may or may not
  // run depending on horizon handling, so allow one off.
  EXPECT_GE(gm.driver.stats().samples, 99u);
  EXPECT_LE(gm.driver.stats().samples, 101u);
  // Probes flow into the machine counter registry.
  const obs::CounterTotals t = gm.machine.counters().totals();
  EXPECT_EQ(t.governor_samples, gm.driver.stats().samples);
  EXPECT_EQ(t.governor_trips, gm.driver.stats().trips);
  EXPECT_EQ(t.governor_releases, gm.driver.stats().releases);
  EXPECT_EQ(t.duty_changes, gm.driver.stats().duty_changes);
  EXPECT_EQ(t.duty_reversals, gm.driver.stats().duty_reversals);
}

TEST(GovernorDriverTest, TripActuatesTheControllerThroughTheArbiter) {
  GovernedMachine gm(hysteresis_spec());
  gm.machine.run_for(sim::from_sec(5));
  // cpuburn reaches the 46 C trip: injection engaged at the governor's duty.
  EXPECT_GE(gm.driver.stats().trips, 1u);
  EXPECT_TRUE(gm.driver.governor().tripped());
  EXPECT_EQ(gm.driver.last_duty(), 0.6);
  EXPECT_EQ(gm.arbiter.resolved_probability(), 0.6);
  EXPECT_EQ(gm.controller.table().global().probability, 0.6);
  EXPECT_EQ(gm.arbiter.winner(), InjectionArbiter::Channel::kGovernor);
}

TEST(GovernorDriverTest, StopHaltsSampling) {
  GovernedMachine gm(hysteresis_spec());
  gm.machine.run_for(sim::from_sec(1));
  gm.driver.stop();
  const auto samples = gm.driver.stats().samples;
  gm.machine.run_for(sim::from_sec(1));
  EXPECT_EQ(gm.driver.stats().samples, samples);
}

// The sensor-isolation invariant: a governor only ever sees quantized
// (whole-degree) readings. Every kGovernorSample trace event carries the
// temperature the governor was fed; the continuous model state is fractional
// essentially always, so integer-valued samples throughout a warm run are
// evidence the driver read through CoreTempSensor::read(), not read_exact().
TEST(GovernorDriverTest, GovernorsSeeOnlyQuantizedTemperatures) {
  auto sink = std::make_shared<obs::RingBufferSink>();
  sched::MachineConfig cfg = base_config();
  cfg.trace_sink_factory = [sink] { return sink; };
  GovernedMachine gm(pid_spec(), cfg);
  gm.machine.run_for(sim::from_sec(4));

  std::size_t sample_events = 0;
  for (const auto& e : sink->snapshot()) {
    if (e.kind != obs::EventKind::kGovernorSample) continue;
    ++sample_events;
    EXPECT_EQ(e.value, std::floor(e.value))
        << "governor saw a fractional temperature at t=" << e.at;
  }
  EXPECT_GT(sample_events, 0u);
  // Non-degenerate check: the underlying model temperature is fractional, so
  // the whole-degree samples above really are the quantizer at work.
  EXPECT_NE(gm.machine.sensor(0).read_exact(),
            std::floor(gm.machine.sensor(0).read_exact()));
}

// A governor sample is an interaction point of the lazy thermal clock, not a
// new periodic substep: with the clock's refresh cadence pinned to the
// substep period the governed fast path advances at exactly the reference
// stepper's instants and the whole governed simulation is bit-identical.
// Both machines sample PROCHOT at that period, so they differ only in the
// stepper.
TEST(GovernorDriverTest, ReferenceStepperParityUnderGovernedRun) {
  GovernorSpec spec = hysteresis_spec();
  spec.sample_period = sim::from_ms(50);

  sched::MachineConfig ref_cfg = base_config();
  ref_cfg.thermal_reference_stepper = true;
  ref_cfg.thermal_monitor_period = ref_cfg.thermal_substep;
  sched::MachineConfig fast_cfg = base_config();
  fast_cfg.thermal_monitor_period = fast_cfg.thermal_substep;

  GovernedMachine ref(spec, ref_cfg);
  GovernedMachine fast(spec, fast_cfg);
  ref.machine.run_for(sim::from_sec(3));
  fast.machine.run_for(sim::from_sec(3));

  EXPECT_EQ(die_temps(ref.machine), die_temps(fast.machine));
  EXPECT_EQ(ref.machine.energy().total_joules(),
            fast.machine.energy().total_joules());
  EXPECT_EQ(ref.driver.stats().samples, fast.driver.stats().samples);
  EXPECT_EQ(ref.driver.stats().trips, fast.driver.stats().trips);
  EXPECT_EQ(ref.driver.last_duty(), fast.driver.last_duty());
}

TEST(GovernorDriverTest, GovernedRunsAreDeterministic) {
  auto run = [] {
    GovernedMachine gm(pid_spec());
    gm.machine.run_for(sim::from_sec(4));
    return std::make_pair(die_temps(gm.machine),
                          gm.driver.stability_metrics());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.samples, b.second.samples);
  EXPECT_EQ(a.second.duty_reversals, b.second.duty_reversals);
  EXPECT_EQ(a.second.duty_mean, b.second.duty_mean);
  EXPECT_EQ(a.second.osc_amplitude_duty, b.second.osc_amplitude_duty);
  EXPECT_EQ(a.second.osc_amplitude_temp_c, b.second.osc_amplitude_temp_c);
  EXPECT_EQ(a.second.overshoot_c, b.second.overshoot_c);
  EXPECT_EQ(a.second.settling_time_s, b.second.settling_time_s);
}

TEST(GovernorDriverTest, StabilityMetricsAreSane) {
  GovernedMachine gm(pid_spec());
  gm.machine.run_for(sim::from_sec(6));
  const StabilityMetrics m = gm.driver.stability_metrics();
  EXPECT_EQ(m.samples, gm.driver.stats().samples);
  EXPECT_GE(m.duty_mean, 0.0);
  EXPECT_LE(m.duty_mean, 1.0);
  EXPECT_GE(m.osc_amplitude_duty, 0.0);
  EXPECT_GE(m.osc_amplitude_temp_c, 0.0);
  EXPECT_GE(m.overshoot_c, 0.0);
  // Settling time is either the -1 "never settled" sentinel or a time within
  // the run.
  EXPECT_GE(m.settling_time_s, -1.0);
  EXPECT_LE(m.settling_time_s, 6.0);
  EXPECT_EQ(m.duty_reversals, gm.driver.stats().duty_reversals);
}

// A power cap engaged while a PID governor ramps: two drivers, one per
// arbiter channel, so neither clobbers the other's sys_set_global writes,
// and the combined loop must not ring: the PID's duty reversals stay
// bounded well below the sample count.
TEST(GovernorDriverTest, PowerCapAndPidComposeWithoutRinging) {
  sched::Machine machine(base_config());
  core::DimetrodonController controller(machine);
  InjectionArbiter arbiter(controller);
  GovernorDriver driver(machine, arbiter, pid_spec(47.0));

  GovernorSpec cap_spec;
  cap_spec.kind = GovernorKind::kPowerCap;
  cap_spec.sample_period = sim::from_ms(250);
  cap_spec.quantum = sim::from_ms(5);
  cap_spec.power_cap.cap_w = 50.0;  // bites on cpuburn x4
  GovernorDriver capper(machine, arbiter, cap_spec);
  EXPECT_EQ(arbiter.owner(InjectionArbiter::Channel::kGovernor),
            "pid[set=47,kp=0.05,ki=0.02]");
  EXPECT_EQ(arbiter.owner(InjectionArbiter::Channel::kPowerCap),
            "power-cap[cap=50W,kp=0.01,ki=0.02]");

  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  machine.run_for(sim::from_sec(30));

  // Both writers ran.
  EXPECT_GT(capper.stats().samples, 0u);
  EXPECT_GT(driver.stats().samples, 0u);
  // The resolved duty is the conservative max of the two requests.
  EXPECT_GE(arbiter.resolved_probability(),
            std::max(driver.last_duty(), capper.last_duty()) - 1e-12);
  // Ringing bound: the PID under an engaged cap converges instead of
  // oscillating — direction flips stay a small fraction of its samples.
  const StabilityMetrics m = driver.stability_metrics();
  EXPECT_LT(m.duty_reversals * 2, m.samples);
  EXPECT_LT(m.osc_amplitude_duty, 0.5);
}

// The adaptive temperature cap of the paper's §2 ("adjusted online
// according to the thermal profile") is a PID spec on the driver: it holds
// the sensors near the setpoint.
TEST(GovernorDriverTest, ConvergesBelowTargetTemperature) {
  GovernorSpec spec;
  spec.kind = GovernorKind::kPid;
  spec.sample_period = sim::from_ms(500);
  spec.quantum = sim::from_ms(10);  // duty ceiling ~66%: target reachable
  spec.pid = {.setpoint_c = 52.0, .kp = 0.03, .ki = 0.01, .kd = 0.0,
              .min_probability = 0.0, .max_probability = 0.95};
  GovernedMachine gm(spec);
  // Accelerated settling toward the controlled equilibrium.
  for (int i = 0; i < 4; ++i) {
    gm.machine.mark_power_window();
    gm.machine.run_for(sim::from_sec(10));
    gm.machine.jump_to_average_power_steady_state();
  }
  // The loop limit-cycles a couple of degrees around the setpoint (Bernoulli
  // injection noise); judge the window average, as the paper's methodology
  // does, not an instantaneous reading.
  double sum = 0.0;
  const int samples = 40;
  for (int s = 0; s < samples; ++s) {
    gm.machine.run_for(sim::from_ms(500));
    sum += gm.machine.mean_sensor_temp();
  }
  const double avg = sum / samples;
  // Unconstrained cpuburn would sit near 64 C; the loop must hold ~target.
  EXPECT_LT(avg, spec.pid.setpoint_c + 2.5);
  EXPECT_GT(avg, spec.pid.setpoint_c - 4.0);
  EXPECT_GT(gm.driver.last_duty(), 0.05);
  EXPECT_GT(gm.driver.stats().samples, 10u);
}

TEST(GovernorDriverTest, ColdSystemGetsNoInjection) {
  sched::Machine m(base_config());
  core::DimetrodonController ctl(m);
  InjectionArbiter arb(ctl);
  GovernorSpec spec = pid_spec(70.0);  // far above the idle machine
  GovernorDriver driver(m, arb, spec);
  m.run_for(sim::from_sec(5));
  EXPECT_GT(driver.stats().samples, 0u);
  EXPECT_EQ(driver.last_duty(), 0.0);
  EXPECT_EQ(ctl.stats().injections, 0u);
}

TEST(GovernorDriverTest, RetuneSwapsTheGovernorMidRun) {
  GovernedMachine gm(hysteresis_spec());
  gm.machine.run_for(sim::from_sec(5));
  ASSERT_TRUE(gm.driver.governor().tripped());
  ASSERT_EQ(gm.driver.last_duty(), 0.6);

  // A rolling config update lands mid-run: lower trip point, gentler duty.
  GovernorSpec next = hysteresis_spec(/*trip_c=*/40.0, /*release_c=*/38.0);
  next.hysteresis.hot_probability = 0.3;
  gm.driver.retune(next);
  EXPECT_EQ(gm.driver.spec().hysteresis.hot_probability, 0.3);
  // The fresh controller starts from reset state, so the old duty stays
  // published until the new governor's first sample...
  EXPECT_EQ(gm.driver.last_duty(), 0.6);
  const std::uint64_t trips_before = gm.driver.stats().trips;
  gm.machine.run_for(sim::from_sec(2));
  // ...then the machine (still above the new 40 C trip) re-trips at the
  // retuned duty, through the same still-claimed arbiter channel.
  EXPECT_GT(gm.driver.stats().trips, trips_before);
  EXPECT_TRUE(gm.driver.governor().tripped());
  EXPECT_EQ(gm.driver.last_duty(), 0.3);
  EXPECT_EQ(gm.arbiter.resolved_probability(), 0.3);
  EXPECT_EQ(gm.arbiter.winner(), InjectionArbiter::Channel::kGovernor);
}

TEST(GovernorDriverTest, RetuneCanCrossGovernorKinds) {
  GovernedMachine gm(hysteresis_spec());
  gm.machine.run_for(sim::from_sec(3));
  gm.driver.retune(pid_spec());
  gm.machine.run_for(sim::from_sec(3));
  EXPECT_EQ(gm.driver.spec().kind, GovernorKind::kPid);
  // The stability tracker restarted against the PID setpoint: its window
  // describes only the post-retune loop.
  EXPECT_EQ(gm.driver.stability().reference_c(), 47.0);
  EXPECT_LE(gm.driver.stability().sample_count(), 61u);  // ~3 s at 50 ms
}

TEST(GovernorDriverTest, RetuneRejectsDisabledSpecAndBadPeriod) {
  GovernedMachine gm(hysteresis_spec());
  gm.machine.run_for(sim::from_sec(1));
  EXPECT_THROW(gm.driver.retune(GovernorSpec{}), std::invalid_argument);
  GovernorSpec bad = hysteresis_spec();
  bad.sample_period = 0;
  EXPECT_THROW(gm.driver.retune(bad), std::invalid_argument);
  // A power cap needs the other arbiter channel: it is a separate loop.
  GovernorSpec cap;
  cap.kind = GovernorKind::kPowerCap;
  EXPECT_THROW(gm.driver.retune(cap), std::invalid_argument);
  // A rejected retune changes nothing: the original loop keeps sampling.
  EXPECT_EQ(gm.driver.spec().hysteresis.trip_c, 46.0);
  const std::uint64_t samples = gm.driver.stats().samples;
  gm.machine.run_for(sim::from_sec(1));
  EXPECT_GT(gm.driver.stats().samples, samples);
}

}  // namespace
}  // namespace dimetrodon::control
