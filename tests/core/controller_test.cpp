#include "core/controller.hpp"

#include <gtest/gtest.h>

#include "workload/cpuburn.hpp"

namespace dimetrodon::core {
namespace {

sched::MachineConfig small_config() {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  return cfg;
}

TEST(ControllerTest, AttachesAndDetachesRaii) {
  sched::Machine m(small_config());
  {
    DimetrodonController ctl(m);
    EXPECT_EQ(m.injection_hook(), &ctl);
  }
  EXPECT_EQ(m.injection_hook(), nullptr);
}

TEST(ControllerTest, DisabledByDefault) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(1));
  EXPECT_EQ(ctl.stats().injections, 0u);
  EXPECT_EQ(ctl.stats().decisions, 0u);
}

TEST(ControllerTest, GlobalPolicyInjectsAtConfiguredRate) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m);
  ctl.sys_set_global(0.5, sim::from_ms(10));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(30));
  EXPECT_GT(ctl.stats().decisions, 500u);
  EXPECT_NEAR(ctl.observed_injection_rate(), 0.5, 0.06);
}

TEST(ControllerTest, InjectedIdleTimeTracksQuanta) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m);
  ctl.sys_set_global(0.5, sim::from_ms(10));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(10));
  EXPECT_EQ(ctl.stats().injected_idle,
            static_cast<sim::SimTime>(ctl.stats().injections) *
                sim::from_ms(10));
}

TEST(ControllerTest, PerThreadShieldExcludesThread) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m);
  ctl.sys_set_global(0.75, sim::from_ms(50));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  const sched::ThreadId shielded = fleet.threads()[0];
  ctl.sys_shield_thread(shielded);
  m.run_for(sim::from_sec(20));
  EXPECT_EQ(m.thread(shielded).injections_suffered(), 0u);
  // Others are throttled.
  EXPECT_GT(m.thread(fleet.threads()[1]).injections_suffered(), 10u);
  // The shielded thread got far more work done.
  EXPECT_GT(m.thread(shielded).work_completed(),
            1.5 * m.thread(fleet.threads()[1]).work_completed());
}

TEST(ControllerTest, PerThreadTargetOnlyHitsTarget) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m);
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  const sched::ThreadId hot = fleet.threads()[0];
  ctl.sys_set_thread(hot, 0.5, sim::from_ms(25));
  m.run_for(sim::from_sec(10));
  EXPECT_GT(m.thread(hot).injections_suffered(), 5u);
  EXPECT_EQ(m.thread(fleet.threads()[1]).injections_suffered(), 0u);
}

TEST(ControllerTest, SysDisableStopsInjection) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m);
  ctl.sys_set_global(0.75, sim::from_ms(50));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(5));
  const auto injections_before = ctl.stats().injections;
  EXPECT_GT(injections_before, 0u);
  ctl.sys_disable();
  m.run_for(sim::from_sec(5));
  EXPECT_EQ(ctl.stats().injections, injections_before);
}

TEST(ControllerTest, PerThreadStatsTracked) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m);
  ctl.sys_set_global(0.5, sim::from_ms(10));
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.run_for(sim::from_sec(10));
  const auto& s0 = ctl.thread_stats(fleet.threads()[0]);
  EXPECT_GT(s0.decisions, 0u);
  EXPECT_GT(s0.injections, 0u);
  // Unknown threads report empty stats.
  EXPECT_EQ(ctl.thread_stats(9999).decisions, 0u);
}

TEST(ControllerTest, ResetStatsClearsCounters) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m);
  ctl.sys_set_global(0.5, sim::from_ms(10));
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.run_for(sim::from_sec(5));
  EXPECT_GT(ctl.thread_stats(fleet.threads()[0]).decisions, 0u);
  ctl.reset_stats();
  EXPECT_EQ(ctl.stats().decisions, 0u);
  EXPECT_EQ(ctl.stats().injections, 0u);
  EXPECT_EQ(ctl.stats().injected_idle, 0);
  for (const sched::ThreadId tid : fleet.threads()) {
    EXPECT_EQ(ctl.thread_stats(tid).decisions, 0u);
    EXPECT_EQ(ctl.thread_stats(tid).injected_idle, 0);
  }
}

TEST(ControllerTest, StratifiedPolicyInjectsExactProportion) {
  sched::Machine m(small_config());
  DimetrodonController ctl(m, std::make_unique<StratifiedInjection>());
  ctl.sys_set_global(0.25, sim::from_ms(10));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(30));
  EXPECT_NEAR(ctl.observed_injection_rate(), 0.25, 0.01);
}

TEST(ControllerTest, StratifiedSmootherThanBernoulli) {
  // The deterministic variant's injection-count variance across equal time
  // slices must be far below Bernoulli's (the paper's "smoother curves").
  auto slice_variance = [](bool stratified) {
    sched::MachineConfig cfg = small_config();
    sched::Machine m(cfg);
    std::unique_ptr<InjectionPolicy> policy;
    if (stratified) policy = std::make_unique<StratifiedInjection>();
    DimetrodonController ctl(m, std::move(policy));
    ctl.sys_set_global(0.5, sim::from_ms(50));
    workload::CpuBurnFleet fleet(4);
    fleet.deploy(m);
    double mean = 0.0;
    std::vector<double> counts;
    std::uint64_t prev = 0;
    for (int i = 0; i < 20; ++i) {
      m.run_for(sim::from_sec(2));
      counts.push_back(
          static_cast<double>(ctl.stats().injections - prev));
      prev = ctl.stats().injections;
      mean += counts.back();
    }
    mean /= counts.size();
    double var = 0.0;
    for (const double c : counts) var += (c - mean) * (c - mean);
    return var / counts.size();
  };
  EXPECT_LT(slice_variance(true), slice_variance(false));
}

}  // namespace
}  // namespace dimetrodon::core
