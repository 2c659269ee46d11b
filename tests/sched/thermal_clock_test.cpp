// The lazy, event-free thermal clock: thermal state advances only at machine
// interaction points, split at every refresh point (multiple of the monitor
// period) it crosses, fast-forwarded through the closed-form propagator.
// These tests pin the equivalence and the event-queue collapse that justify
// deleting the 250 µs substep event, and the in-clock refresh that stands in
// for a periodic tick.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "sched/machine.hpp"
#include "machine_test_peer.hpp"
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

std::uint64_t free_nodes(const Machine& m) {
  const thermal::RcNetwork& net = m.thermal_network();
  std::uint64_t n = 0;
  for (thermal::NodeId i = 0; i < net.node_count(); ++i) n += !net.is_fixed(i);
  return n;
}

std::vector<double> die_temps(const Machine& m) {
  std::vector<double> t;
  for (std::size_t i = 0; i < m.num_physical_cores(); ++i) {
    t.push_back(m.die_temperature(static_cast<CoreId>(i)));
  }
  return t;
}

// With the refresh cadence pinned to the substep period, the fast path
// advances at exactly the same instants as the periodic reference stepper,
// every span is a single substep, and both paths execute identical
// arithmetic — so the whole simulation must be bit-identical, not merely
// close.
TEST(ThermalClockTest, RefreshAtSubstepPeriodIsBitIdenticalToReference) {
  MachineConfig ref_cfg = base_config();
  ref_cfg.thermal_reference_stepper = true;
  ref_cfg.thermal_monitor_period = ref_cfg.thermal_substep;
  MachineConfig fast_cfg = base_config();
  fast_cfg.thermal_monitor_period = fast_cfg.thermal_substep;

  Machine ref(ref_cfg);
  Machine fast(fast_cfg);
  workload::CpuBurnFleet ref_fleet(4), fast_fleet(4);
  ref_fleet.deploy(ref);
  fast_fleet.deploy(fast);
  ref.run_for(sim::from_sec(3));
  fast.run_for(sim::from_sec(3));

  EXPECT_EQ(die_temps(ref), die_temps(fast));
  EXPECT_EQ(ref.energy().total_joules(), fast.energy().total_joules());
}

// At the default (coarse) 5 ms refresh cadence the trajectories may differ
// only by the leakage-refresh discretization: a small, bounded physics
// delta.
TEST(ThermalClockTest, CoarseWatchdogStaysCloseToReference) {
  MachineConfig ref_cfg = base_config();
  ref_cfg.thermal_reference_stepper = true;
  Machine ref(ref_cfg);
  Machine fast(base_config());
  workload::CpuBurnFleet ref_fleet(4), fast_fleet(4);
  ref_fleet.deploy(ref);
  fast_fleet.deploy(fast);
  ref.run_for(sim::from_sec(5));
  fast.run_for(sim::from_sec(5));
  const auto r = die_temps(ref);
  const auto f = die_temps(fast);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(f[i], r[i], 0.05) << "core " << i;
  }
}

TEST(ThermalClockTest, EventQueueTrafficCollapses) {
  MachineConfig ref_cfg = base_config();
  ref_cfg.thermal_reference_stepper = true;
  Machine ref(ref_cfg);
  Machine fast(base_config());
  workload::CpuBurnFleet ref_fleet(4), fast_fleet(4);
  ref_fleet.deploy(ref);
  fast_fleet.deploy(fast);
  ref.run_for(sim::from_sec(2));
  fast.run_for(sim::from_sec(2));
  // 250 µs substep events dominate the reference queue (~4000/s); the lazy
  // clock leaves only scheduler events (the 5 ms refresh happens inside the
  // clock, and the certified monitor tick is parked).
  EXPECT_LT(fast.simulator().events_executed() * 5,
            ref.simulator().events_executed());
}

TEST(ThermalClockTest, ThermalCountersFlowIntoTotals) {
  Machine m(base_config());
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(2));
  const obs::CounterTotals t = m.counters().totals();
  EXPECT_GT(t.thermal_substeps, 0u);
  EXPECT_GT(t.thermal_fast_forward_steps, 0u);
  EXPECT_LE(t.thermal_fast_forward_steps, t.thermal_substeps);
  EXPECT_GT(t.thermal_matvecs, 0u);
  // Thermal time lives on the substep grid, so the network only ever steps
  // with one dt: one factorization for the whole run, nothing to evict.
  EXPECT_EQ(t.thermal_factorizations, 1u);
  EXPECT_EQ(t.thermal_evictions, 0u);
  // The only solves are the operator build's unit solves: none per substep.
  EXPECT_EQ(t.thermal_solves, free_nodes(m) * t.thermal_factorizations);
  // Fast-forward replaces per-substep solves: far fewer matvecs than the
  // substeps they cover.
  EXPECT_LT(t.thermal_matvecs, t.thermal_fast_forward_steps);
}

struct OpenLoopRun {
  std::vector<double> die;
  obs::CounterTotals totals;
  std::uint64_t free_nodes = 0;
};

// Open-loop web serving as a cluster node sees it: Poisson arrivals at
// 600 rps for 2 s pushed through WebWorkload::inject_request. Every span
// ends at an arbitrary nanosecond, so a clock that stepped with span-length
// dts would factor once per span. The arrival stream depends only on its own
// seed, so two configs see identical arrivals.
OpenLoopRun run_open_loop_web(const MachineConfig& cfg) {
  Machine m(cfg);
  workload::WebWorkload::Config wc;
  wc.connections = 0;
  workload::WebWorkload web(wc);
  web.deploy(m);
  sim::Rng arrivals(42);
  const sim::SimTime end = sim::from_sec(2);
  sim::SimTime t = 0;
  for (std::uint32_t id = 0;; ++id) {
    t += sim::from_sec(arrivals.exponential(1.0 / 600.0));
    if (t >= end) break;
    m.run_until(t);
    web.inject_request(id);
  }
  m.run_until(end);
  EXPECT_GT(web.completed_requests(), 1000u);
  return {die_temps(m), m.counters().totals(), free_nodes(m)};
}

TEST(ThermalClockTest, OpenLoopArrivalsFactorOnceAndTrackFineReference) {
  const OpenLoopRun grid = run_open_loop_web(base_config());
  // Cost: the grid is the only dt, however irregular the spans.
  EXPECT_EQ(grid.totals.thermal_factorizations, 1u);
  EXPECT_EQ(grid.totals.thermal_evictions, 0u);
  EXPECT_EQ(grid.totals.thermal_solves,
            grid.free_nodes * grid.totals.thermal_factorizations);
  // Value: a sequential 10 µs reference (40x finer grid, leakage refreshed
  // at every grid point) stays within 0.05 °C of the 250 µs grid.
  MachineConfig fine = base_config();
  fine.thermal_reference_stepper = true;
  fine.thermal_substep = sim::from_us(10);
  const OpenLoopRun ref = run_open_loop_web(fine);
  ASSERT_EQ(grid.die.size(), ref.die.size());
  for (std::size_t i = 0; i < ref.die.size(); ++i) {
    EXPECT_NEAR(grid.die[i], ref.die[i], 0.05) << "core " << i;
  }
}

TEST(ThermalClockTest, FastPathIsDeterministic) {
  auto run = [] {
    Machine m(base_config());
    core::DimetrodonController ctl(m);
    ctl.sys_set_global(0.5, sim::from_ms(10));
    workload::CpuBurnFleet fleet(4);
    fleet.deploy(m);
    m.run_for(sim::from_sec(3));
    return die_temps(m);
  };
  EXPECT_EQ(run(), run());
}

// Injection quanta (the paper's mechanism) land on irregular boundaries;
// the lazy clock must keep the thermal picture coherent under them.
TEST(ThermalClockTest, InjectionCoolsUnderLazyClock) {
  Machine hot(base_config());
  workload::CpuBurnFleet hot_fleet(4);
  hot_fleet.deploy(hot);
  hot.run_for(sim::from_sec(8));

  Machine cool(base_config());
  core::DimetrodonController ctl(cool);
  ctl.sys_set_global(0.5, sim::from_ms(100));
  workload::CpuBurnFleet cool_fleet(4);
  cool_fleet.deploy(cool);
  cool.run_for(sim::from_sec(8));

  EXPECT_LT(cool.die_temperature(0), hot.die_temperature(0) - 0.5);
}

TEST(ThermalClockTest, RefreshGridBoundsThermalStaleness) {
  // A machine with nothing runnable still refreshes its thermal state at
  // every refresh point: after a long quiet run the integrated substep
  // count covers the whole span, and each refresh point is one span
  // boundary the clock took itself. With the monitor on, the first tick
  // issues the PROCHOT certificate and every later point is in-clock.
  const sim::SimTime run = sim::from_sec(10);
  for (const bool monitor : {false, true}) {
    MachineConfig cfg = base_config();
    cfg.hw_thermal_throttle = monitor;
    Machine m(cfg);
    m.run_for(run);
    const obs::CounterTotals t = m.counters().totals();
    EXPECT_GE(t.thermal_substeps,
              static_cast<std::uint64_t>(run / cfg.thermal_substep));
    const auto points =
        static_cast<std::uint64_t>(run / cfg.thermal_monitor_period);
    EXPECT_EQ(t.monitor_ticks, monitor ? 1u : 0u);
    EXPECT_EQ(t.clock_refreshes + t.monitor_ticks, points);
  }
}

// The clock's refresh stands in for a periodic tick bit for bit. Three
// machines: PROCHOT off (refreshes only), PROCHOT on but out of reach (the
// certificate parks the tick after the first), and PROCHOT on with the
// certificate revoked (a tick at every refresh point). They must follow the
// exact same trajectory, and the ticking machine's event count must equal
// the others' events plus the refresh points their clock took.
TEST(ThermalClockTest, ClockRefreshStandsInForTheMonitorTick) {
  MachineConfig off_cfg = base_config();
  off_cfg.hw_thermal_throttle = false;
  MachineConfig out_of_reach = base_config();
  out_of_reach.prochot_c = 1e6;
  out_of_reach.prochot_release_c = 1e6 - 5.0;

  Machine a(off_cfg);
  Machine b(out_of_reach);
  Machine c(out_of_reach);
  MachineTestPeer::revoke_prochot_certificate(c);
  std::vector<Machine*> ms = {&a, &b, &c};
  std::vector<std::unique_ptr<core::DimetrodonController>> ctl;
  std::vector<std::unique_ptr<workload::CpuBurnFleet>> fleets;
  for (Machine* m : ms) {
    // Injected idle quanta end spans at irregular instants between the
    // refresh points.
    ctl.push_back(std::make_unique<core::DimetrodonController>(*m));
    ctl.back()->sys_set_global(0.5, sim::from_ms(3));
    fleets.push_back(std::make_unique<workload::CpuBurnFleet>(4));
    fleets.back()->deploy(*m);
    m->run_for(sim::from_sec(3));
  }

  for (std::size_t i = 1; i < ms.size(); ++i) {
    EXPECT_EQ(die_temps(a), die_temps(*ms[i])) << i;
    EXPECT_EQ(a.energy().total_joules(), ms[i]->energy().total_joules()) << i;
    EXPECT_EQ(fleets[0]->progress(a), fleets[i]->progress(*ms[i])) << i;
    EXPECT_EQ(a.counters().totals().thermal_substeps,
              ms[i]->counters().totals().thermal_substeps)
        << i;
  }
  const auto spans = [](Machine& m) {
    return m.simulator().events_executed() +
           m.counters().totals().clock_refreshes;
  };
  const obs::CounterTotals tc = c.counters().totals();
  EXPECT_EQ(tc.clock_refreshes, 0u);
  EXPECT_EQ(tc.monitor_ticks, static_cast<std::uint64_t>(
                                  sim::from_sec(3) /
                                  out_of_reach.thermal_monitor_period));
  EXPECT_EQ(b.counters().totals().monitor_ticks, 1u);
  EXPECT_EQ(a.simulator().events_executed() + tc.monitor_ticks,
            c.simulator().events_executed());
  EXPECT_EQ(spans(a), spans(c));
  EXPECT_EQ(spans(b), spans(c));
}

TEST(ThermalClockTest, MonitorTickIsParkedOnlyWhileCertified) {
  const auto stamps = [](const MachineConfig& cfg) {
    Machine m(cfg);
    workload::CpuBurnFleet fleet(4);
    fleet.deploy(m);
    m.run_for(sim::from_ms(12));
    return m.snapshot();
  };
  // Default: the 5 ms tick issues the certificate and parks the next tick;
  // delivery passes its place at 10 ms, so it waits at 15 ms.
  const MachineSnapshot def = stamps(base_config());
  EXPECT_TRUE(def.monitor.armed);
  EXPECT_TRUE(def.monitor_parked);
  EXPECT_EQ(def.monitor.at, sim::from_ms(15));

  // A PROCHOT threshold under the bound keeps the tick armed.
  MachineConfig low = base_config();
  low.prochot_c = 60.0;
  low.prochot_release_c = 55.0;
  const MachineSnapshot armed = stamps(low);
  EXPECT_TRUE(armed.monitor.armed);
  EXPECT_FALSE(armed.monitor_parked);
  EXPECT_EQ(armed.monitor.at, sim::from_ms(15));

  MachineConfig no_monitor = base_config();
  no_monitor.hw_thermal_throttle = false;
  const MachineSnapshot off = stamps(no_monitor);
  EXPECT_FALSE(off.monitor.armed);
  EXPECT_FALSE(off.monitor_parked);
}

}  // namespace
}  // namespace dimetrodon::sched
