// The PROCHOT certificate: while a steady-state bound keeps every die below
// prochot_c, the machine parks its monitor tick in its event-queue place
// instead of running it. These tests pin that the parking is unobservable
// (elided ≡ armed, bit for bit), that losing the certificate brings the
// tick back in its exact place and trips, and that a cool default machine
// runs no tick past the one that issues the certificate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "machine_test_peer.hpp"
#include "sched/machine.hpp"
#include "sim/rng.hpp"
#include "workload/cpuburn.hpp"
#include "workload/web.hpp"

namespace dimetrodon::sched {
namespace {

MachineConfig base_config() {
  MachineConfig cfg;
  cfg.enable_meter = false;
  return cfg;
}

/// Everything a run produces, with the two counters that count the
/// tick-versus-refresh split set aside.
struct Outcome {
  std::vector<double> temps;  // every node, fixed ones included
  double energy = 0.0;
  std::vector<double> thread_work;
  obs::CounterTotals totals;
  std::uint64_t events = 0;
  std::uint64_t monitor_ticks = 0;
  std::uint64_t clock_refreshes = 0;
  std::uint64_t tm_events = 0;
  double peak_die = 0.0;

  void expect_same_physics(const Outcome& o) const {
    EXPECT_EQ(temps, o.temps);
    EXPECT_EQ(energy, o.energy);
    EXPECT_EQ(thread_work, o.thread_work);
    EXPECT_TRUE(totals == o.totals);
    EXPECT_EQ(tm_events, o.tm_events);
    // Every refresh point is a span boundary either way: a fired tick or a
    // refresh the clock took.
    EXPECT_EQ(events + clock_refreshes, o.events + o.clock_refreshes);
  }
};

Outcome outcome_of(Machine& m, double peak_die) {
  Outcome o;
  const thermal::RcNetwork& net = m.thermal_network();
  for (thermal::NodeId n = 0; n < net.node_count(); ++n) {
    o.temps.push_back(net.temperature(n));
  }
  o.energy = m.energy().total_joules();
  for (ThreadId id = 0; id < m.thread_count(); ++id) {
    o.thread_work.push_back(m.thread(id).cpu_seconds_consumed());
    o.thread_work.push_back(m.thread(id).work_completed());
  }
  o.totals = m.counters().totals();
  o.monitor_ticks = std::exchange(o.totals.monitor_ticks, 0);
  o.clock_refreshes = std::exchange(o.totals.clock_refreshes, 0);
  o.events = m.simulator().events_executed();
  o.tm_events = m.thermal_throttle_engagements();
  o.peak_die = peak_die;
  return o;
}

double max_die(const Machine& m) {
  double t = -1e300;
  for (std::size_t i = 0; i < m.num_physical_cores(); ++i) {
    t = std::max(t, m.die_temperature(static_cast<CoreId>(i)));
  }
  return t;
}

/// Seeded random open-loop serving: Poisson arrivals at a rate redrawn every
/// 200 ms, beside two cpuburn threads, with the injection probability and
/// quantum redrawn at the same moments.
Outcome run_random_serving(MachineConfig cfg, std::uint64_t seed,
                           sim::SimTime end) {
  Machine m(cfg);
  core::DimetrodonController ctl(m);
  workload::WebWorkload::Config wc;
  wc.connections = 0;
  workload::WebWorkload web(wc);
  web.deploy(m);
  workload::CpuBurnFleet burn(2);
  burn.deploy(m);
  sim::Rng rng(seed);
  const sim::SimTime quanta[] = {sim::from_ms(1), sim::from_ms(3),
                                 sim::from_ms(5), sim::from_ms(10),
                                 sim::from_ms(25)};
  double rps = 600.0;
  double peak = max_die(m);
  sim::SimTime next_knob = 0;
  sim::SimTime t = 0;
  for (std::uint32_t id = 0;; ++id) {
    t += sim::from_sec(rng.exponential(1.0 / rps));
    if (t >= end) break;
    m.run_until(t);
    peak = std::max(peak, max_die(m));
    web.inject_request(id);
    if (t >= next_knob) {
      rps = rng.uniform(200.0, 1200.0);
      ctl.sys_set_global(rng.uniform(0.0, 0.8),
                         quanta[rng.uniform_int(0, 4)]);
      next_knob = t + sim::from_ms(200);
    }
  }
  m.run_until(end);
  EXPECT_GT(web.completed_requests(), 1000u);
  return outcome_of(m, std::max(peak, max_die(m)));
}

// Knob-free oracle: two configurations that differ only in prochot_c. At 60
// °C the bound (61.7 °C: leakage at 60 °C is lower) fails, so that machine
// ticks at every refresh point; at the default 85 °C the bound is 81.1 °C,
// the certificate holds and the tick is parked. The runs stay below both
// thresholds, so neither trips, and they must agree bit for bit in
// everything but the tick count.
TEST(ProchotCertificateTest, ElidedTicksMatchArmedTicksBitForBit) {
  MachineConfig armed_cfg = base_config();
  armed_cfg.prochot_c = 60.0;
  armed_cfg.prochot_release_c = 55.0;
  MachineConfig elided_cfg = base_config();
  {
    Machine probe(armed_cfg);
    EXPECT_GE(MachineTestPeer::prochot_bound(probe), armed_cfg.prochot_c);
  }
  const sim::SimTime end = sim::from_sec(3);
  const auto points =
      static_cast<std::uint64_t>(end / elided_cfg.thermal_monitor_period);
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    SCOPED_TRACE(seed);
    const Outcome armed = run_random_serving(armed_cfg, seed, end);
    const Outcome elided = run_random_serving(elided_cfg, seed, end);
    EXPECT_LT(armed.peak_die, armed_cfg.prochot_c);
    EXPECT_EQ(armed.tm_events, 0u);
    EXPECT_EQ(armed.monitor_ticks, points);
    EXPECT_EQ(armed.clock_refreshes, 0u);
    EXPECT_EQ(elided.monitor_ticks, 1u);
    EXPECT_EQ(elided.clock_refreshes, points - 1);
    armed.expect_same_physics(elided);
  }
}

// The cost side of the certificate: the default machine under the paper's
// worst-case load (cpuburn×4) is certified by its first tick, and no tick
// fires after it. A certificate that silently never holds would show here.
TEST(ProchotCertificateTest, DefaultCpuBurnFiresNoTickPastTheFirst) {
  Machine m(base_config());
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  const sim::SimTime run = sim::from_sec(10);
  m.run_for(run);
  const obs::CounterTotals t = m.counters().totals();
  EXPECT_EQ(t.monitor_ticks, 1u);
  EXPECT_EQ(t.clock_refreshes + t.monitor_ticks,
            static_cast<std::uint64_t>(run / m.config().thermal_monitor_period));
  // What is left: timeslice ends and the once-a-second schedcpu.
  EXPECT_LT(static_cast<double>(m.simulator().events_executed()) / 10.0, 50.0);
  // The bound at the default 25 °C inlet leaves headroom under 85 °C.
  const double bound = MachineTestPeer::prochot_bound(m);
  EXPECT_LT(bound, m.config().prochot_c - 2.0);
  EXPECT_GT(bound, max_die(m));
}

/// A heat wave: cpuburn×4 under 30% injection in 5 ms quanta, while the
/// inlet climbs 2.5 °C per step from 25 °C. Each step runs 1 s and jumps to
/// the steady state of its average power, so minutes of heatsink time
/// constant pass in seconds. Past about 28 °C the certificate fails, and by
/// the top of the ramp the dies cross PROCHOT.
Outcome run_heat_wave(bool revoke) {
  Machine m(base_config());
  if (revoke) MachineTestPeer::revoke_prochot_certificate(m);
  core::DimetrodonController ctl(m);
  ctl.sys_set_global(0.3, sim::from_ms(5));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  double inlet = 25.0;
  double peak = max_die(m);
  for (int step = 0; step < 12; ++step) {
    m.mark_power_window();
    m.run_for(sim::from_sec(1));
    peak = std::max(peak, max_die(m));
    m.jump_to_average_power_steady_state();
    inlet += 2.5;
    m.set_inlet_temperature(inlet);
  }
  m.run_for(sim::from_sec(2));
  return outcome_of(m, std::max(peak, max_die(m)));
}

// Losing the certificate: the ramp costs it mid-run, the tick comes back in
// the place it would have held all along, and PROCHOT trips — exactly as on
// a machine whose certificate never held.
TEST(ProchotCertificateTest, HeatWaveLosesTheCertificateAndTripsInPlace) {
  const Outcome certified = run_heat_wave(false);
  const Outcome oracle = run_heat_wave(true);
  EXPECT_GT(certified.tm_events, 0u);
  EXPECT_GT(certified.clock_refreshes, 0u);  // elided until the ramp bites
  EXPECT_LT(certified.monitor_ticks, oracle.monitor_ticks);
  EXPECT_EQ(oracle.clock_refreshes, 0u);
  certified.expect_same_physics(oracle);
}

// A new conductance moves the topology revision, so a fan change rebuilds
// the steady rise: a crippled fan raises the bound past PROCHOT and the
// tick is re-armed; a repaired one parks it again.
TEST(ProchotCertificateTest, FanChangeRebuildsTheBound) {
  Machine m(base_config());
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_ms(20));
  const double healthy = MachineTestPeer::prochot_bound(m);
  m.set_fan_speed(0.3);
  const double crippled = MachineTestPeer::prochot_bound(m);
  EXPECT_GT(crippled, m.config().prochot_c);
  const std::uint64_t ticks = m.counters().totals().monitor_ticks;
  m.run_for(sim::from_ms(100));
  EXPECT_EQ(m.counters().totals().monitor_ticks, ticks + 20);
  m.set_fan_speed(1.0);
  EXPECT_NEAR(MachineTestPeer::prochot_bound(m), healthy, 0.5);
  m.run_for(sim::from_ms(100));
  EXPECT_EQ(m.counters().totals().monitor_ticks, ticks + 20);
}

TEST(ProchotCertificateTest, RejectsANonPositivePeriod) {
  MachineConfig cfg = base_config();
  cfg.thermal_monitor_period = 0;
  EXPECT_THROW(Machine m(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace dimetrodon::sched
