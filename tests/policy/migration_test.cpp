#include "policy/migration.hpp"

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "workload/cpuburn.hpp"
#include "workload/spec.hpp"

namespace dimetrodon::policy {
namespace {

sched::MachineConfig small_config() {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  return cfg;
}

TEST(MigrationPrimitiveTest, AffinityMovesRunningThread) {
  sched::Machine m(small_config());
  workload::CpuBurnFleet fleet(1);
  fleet.deploy(m);
  m.run_for(sim::from_ms(50));
  const auto tid = fleet.threads()[0];
  const auto old_core = m.thread(tid).last_core();
  const sched::CoreId target = old_core == 3 ? 0 : 3;
  m.set_thread_affinity(tid, target);
  m.run_for(sim::from_ms(50));
  EXPECT_EQ(m.thread(tid).last_core(), target);
  EXPECT_EQ(m.thread(tid).state(), sched::ThreadState::kRunning);
}

TEST(MigrationPrimitiveTest, InvalidTargetThrows) {
  sched::Machine m(small_config());
  workload::CpuBurnFleet fleet(1);
  fleet.deploy(m);
  EXPECT_THROW(m.set_thread_affinity(fleet.threads()[0], 99),
               std::out_of_range);
}

TEST(MigrationPrimitiveTest, WorkContinuesAcrossMigrations) {
  sched::Machine m(small_config());
  workload::CpuBurnFleet fleet(1);
  fleet.deploy(m);
  for (int i = 0; i < 16; ++i) {
    m.run_for(sim::from_ms(100));
    m.set_thread_affinity(fleet.threads()[0],
                          static_cast<sched::CoreId>(i % 4));
  }
  m.run_for(sim::from_ms(100));
  // ~1.7 s of wall time, minus context-switch slivers.
  EXPECT_NEAR(fleet.progress(m), 1.7, 0.05);
}

TEST(MigrationPolicyTest, RotatesSingleHotThreadAcrossDies) {
  // One cpuburn instance on a 4-core machine: migration spreads the heat
  // over the dies. With a die time constant of ~12 ms no policy can cap the
  // instantaneous peak (the hosting die heats fully within ~40 ms), but the
  // per-die TIME-AVERAGED temperature — the quantity behind the MTTF/aging
  // argument — drops by the rotation duty factor.
  auto hottest_mean_die = [](bool migrate) {
    sched::Machine m(small_config());
    std::unique_ptr<ThermalMigrationPolicy> policy;
    if (migrate) {
      ThermalMigrationPolicy::Config cfg;
      cfg.period = sim::from_ms(100);
      cfg.spread_threshold_c = 1.0;
      policy = std::make_unique<ThermalMigrationPolicy>(m, cfg);
    }
    workload::CpuBurnFleet fleet(1);
    fleet.deploy(m);
    for (int i = 0; i < 3; ++i) {
      m.mark_power_window();
      m.run_for(sim::from_sec(8));
      m.jump_to_average_power_steady_state();
    }
    double sums[4] = {0, 0, 0, 0};
    const int samples = 200;
    for (int s = 0; s < samples; ++s) {
      m.run_for(sim::from_ms(50));
      for (std::size_t i = 0; i < m.num_cores(); ++i) {
        sums[i] += m.die_temperature(static_cast<sched::CoreId>(i));
      }
    }
    if (policy) {
      EXPECT_GT(policy->migrations(), 10u);
    }
    double hottest = 0.0;
    for (const double s : sums) hottest = std::max(hottest, s / samples);
    return hottest;
  };
  EXPECT_LT(hottest_mean_die(true), hottest_mean_die(false) - 4.0);
}

TEST(MigrationPolicyTest, IneffectiveOnFullyBurdenedMachine) {
  // The paper: migration "may be ineffective on fully-burdened machines" —
  // with every core hot there is nowhere cool to go.
  sched::Machine m(small_config());
  ThermalMigrationPolicy policy(m);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(10));
  EXPECT_EQ(policy.migrations(), 0u);
  EXPECT_GT(policy.ticks(), 10u);
}

TEST(MigrationPolicyTest, ComposesWithDimetrodon) {
  sched::Machine m(small_config());
  core::DimetrodonController ctl(m);
  ctl.sys_set_global(0.25, sim::from_ms(10));
  ThermalMigrationPolicy policy(m);
  workload::SpecFleet fleet(*workload::find_spec_profile("gcc"), 2);
  fleet.deploy(m);
  m.run_for(sim::from_sec(15));
  EXPECT_GT(ctl.stats().injections, 50u);
  EXPECT_GT(fleet.progress(m), 20.0);
}

TEST(MigrationPolicyTest, StopHaltsTicks) {
  sched::Machine m(small_config());
  ThermalMigrationPolicy policy(m);
  m.run_for(sim::from_sec(2));
  policy.stop();
  const auto ticks = policy.ticks();
  m.run_for(sim::from_sec(2));
  EXPECT_EQ(policy.ticks(), ticks);
}

}  // namespace
}  // namespace dimetrodon::policy
