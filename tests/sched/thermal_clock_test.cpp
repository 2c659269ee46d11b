// The lazy, event-free thermal clock: thermal state advances only at machine
// interaction points plus a coarse watchdog, fast-forwarded through the
// closed-form propagator. These tests pin the equivalence and the event-queue
// collapse that justify deleting the 250 µs substep event.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/controller.hpp"
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

std::vector<double> die_temps(const Machine& m) {
  std::vector<double> t;
  for (std::size_t i = 0; i < m.num_physical_cores(); ++i) {
    t.push_back(m.die_temperature(static_cast<CoreId>(i)));
  }
  return t;
}

// With the watchdog pinned to the substep period, the fast path advances at
// exactly the same instants as the pre-PR periodic stepper, every span is a
// single substep, and both paths execute identical arithmetic — so the whole
// simulation must be bit-identical, not merely close.
TEST(ThermalClockTest, WatchdogAtSubstepPeriodIsBitIdenticalToReference) {
  MachineConfig ref_cfg = base_config();
  ref_cfg.thermal_reference_stepper = true;
  MachineConfig fast_cfg = base_config();
  fast_cfg.thermal_watchdog = fast_cfg.thermal_substep;

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

// At the default (coarse) watchdog the trajectories may differ only by the
// leakage-refresh discretization: a small, bounded physics delta.
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
  // clock leaves only scheduler events, the 5 ms monitor and the watchdog.
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
  // Fast-forward replaces per-substep solves: far fewer matvecs than the
  // substeps they cover.
  EXPECT_LT(t.thermal_matvecs, t.thermal_fast_forward_steps);
}

struct OpenLoopRun {
  std::vector<double> die;
  obs::CounterTotals totals;
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
  return {die_temps(m), m.counters().totals()};
}

TEST(ThermalClockTest, OpenLoopArrivalsFactorOnceAndTrackFineReference) {
  const OpenLoopRun grid = run_open_loop_web(base_config());
  // Cost: the grid is the only dt, however irregular the spans.
  EXPECT_EQ(grid.totals.thermal_factorizations, 1u);
  EXPECT_EQ(grid.totals.thermal_evictions, 0u);
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

TEST(ThermalClockTest, WatchdogBoundsThermalStaleness) {
  // A machine with nothing runnable still advances its thermal state at
  // least every watchdog period: after a long quiet run the integrated
  // substep count must cover the whole span.
  MachineConfig cfg = base_config();
  cfg.hw_thermal_throttle = false;  // remove the 5 ms monitor interactions
  Machine m(cfg);
  m.run_for(sim::from_sec(10));
  const obs::CounterTotals t = m.counters().totals();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(sim::from_sec(10) / cfg.thermal_substep);
  EXPECT_GE(t.thermal_substeps, expected);
}

}  // namespace
}  // namespace dimetrodon::sched
