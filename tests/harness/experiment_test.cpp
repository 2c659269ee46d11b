#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include "workload/cpuburn.hpp"

namespace dimetrodon::harness {
namespace {

ExperimentRunner make_runner() {
  sched::MachineConfig cfg;
  MeasurementConfig mc;
  mc.measure_window = sim::from_sec(10);  // shorter for unit tests
  return ExperimentRunner(cfg, mc);
}

ExperimentRunner::WorkloadFactory cpuburn4() {
  return [] { return std::make_unique<workload::CpuBurnFleet>(4); };
}

TEST(ExperimentTest, BaselineRunIsHotAndFast) {
  auto runner = make_runner();
  const RunResult r = runner.measure(cpuburn4(), ActuationSpec::none());
  EXPECT_GT(r.avg_sensor_temp_c, r.idle_sensor_temp_c + 20.0);
  EXPECT_NEAR(r.throughput, 4.0, 0.05);
  EXPECT_GT(r.avg_power_w, 60.0);
  EXPECT_DOUBLE_EQ(r.injected_idle_fraction, 0.0);
  EXPECT_FALSE(r.qos.has_value());
  EXPECT_EQ(r.counters.injections, 0u);
  EXPECT_GT(r.counters.dispatches, 0u);
  EXPECT_EQ(r.counters.sensor_samples, 0u);  // no sink, no trace sampler
}

TEST(ExperimentTest, DimetrodonRunCoolerAndSlower) {
  auto runner = make_runner();
  const RunResult base = runner.measure(cpuburn4(), ActuationSpec::none());
  const RunResult dim =
      runner.measure(cpuburn4(), ActuationSpec::global(0.5, sim::from_ms(25)));
  EXPECT_LT(dim.avg_sensor_temp_c, base.avg_sensor_temp_c - 3.0);
  EXPECT_LT(dim.throughput, base.throughput * 0.9);
  EXPECT_GT(dim.injected_idle_fraction, 0.1);

  const Tradeoff t = compute_tradeoff(base, dim);
  EXPECT_GT(t.temp_reduction, 0.1);
  EXPECT_GT(t.throughput_reduction, 0.1);
  EXPECT_GT(t.efficiency, 1.0);
}

TEST(ExperimentTest, TradeoffOfBaselineAgainstItselfIsZero) {
  auto runner = make_runner();
  const RunResult base = runner.measure(cpuburn4(), ActuationSpec::none());
  const Tradeoff t = compute_tradeoff(base, base);
  EXPECT_DOUBLE_EQ(t.temp_reduction, 0.0);
  EXPECT_DOUBLE_EQ(t.throughput_reduction, 0.0);
}

TEST(ExperimentTest, VfsActuationSlowsByFrequencyRatio) {
  auto runner = make_runner();
  const RunResult base = runner.measure(cpuburn4(), ActuationSpec::none());
  const RunResult vfs = runner.measure(cpuburn4(), ActuationSpec::vfs(5));
  const Tradeoff t = compute_tradeoff(base, vfs);
  EXPECT_NEAR(t.throughput_retained, 1.596 / 2.261, 0.01);
}

TEST(ExperimentTest, RunsAreReproducible) {
  auto runner = make_runner();
  const RunResult a =
      runner.measure(cpuburn4(), ActuationSpec::global(0.25, sim::from_ms(10)));
  const RunResult b =
      runner.measure(cpuburn4(), ActuationSpec::global(0.25, sim::from_ms(10)));
  EXPECT_DOUBLE_EQ(a.avg_sensor_temp_c, b.avg_sensor_temp_c);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(ExperimentTest, PostDeployHookSeesThreads) {
  auto runner = make_runner();
  bool called = false;
  runner.measure(
      cpuburn4(), ActuationSpec::global(0.5, sim::from_ms(10)),
      [&](sched::Machine& m, workload::Workload& wl,
          core::DimetrodonController* ctl) {
        called = true;
        EXPECT_EQ(wl.threads().size(), 4u);
        ASSERT_NE(ctl, nullptr);
        ctl->sys_shield_thread(wl.threads()[0]);
        (void)m;
      });
  EXPECT_TRUE(called);
}

TEST(ExperimentTest, RunToCompletionReportsTime) {
  auto runner = make_runner();
  const auto burn = [] {
    return std::make_unique<workload::CpuBurnFleet>(4, 2.0);
  };
  const WindowResult r =
      runner.run_to_completion(burn, ActuationSpec::none(), sim::from_sec(30));
  EXPECT_NEAR(r.completion_seconds, 2.0, 0.05);
  EXPECT_GT(r.meter_energy_j, 0.0);
  EXPECT_NEAR(r.meter_energy_j, r.true_energy_j, 0.12 * r.true_energy_j);
}

TEST(ExperimentTest, RunToCompletionDeadlineMiss) {
  auto runner = make_runner();
  const auto burn = [] {
    return std::make_unique<workload::CpuBurnFleet>(4, 50.0);
  };
  const WindowResult r =
      runner.run_to_completion(burn, ActuationSpec::none(), sim::from_sec(1));
  EXPECT_LT(r.completion_seconds, 0.0);
  EXPECT_NEAR(r.wall_seconds, 1.0, 1e-9);
}

TEST(ExperimentTest, RunWindowTracksCompletionInsideWindow) {
  auto runner = make_runner();
  const auto burn = [] {
    return std::make_unique<workload::CpuBurnFleet>(4, 1.0);
  };
  const WindowResult r =
      runner.run_window(burn, ActuationSpec::none(), sim::from_sec(5));
  EXPECT_NEAR(r.completion_seconds, 1.0, 0.05);
  EXPECT_NEAR(r.wall_seconds, 5.0, 1e-9);
}

TEST(ExperimentTest, WithConfigAppliesMutation) {
  auto runner = make_runner();
  runner.with_config([](sched::MachineConfig& c) { c.num_cores = 2; })
      .with_config([](sched::MachineConfig& c) { c.seed = 99; });
  EXPECT_EQ(runner.base_config().num_cores, 2u);
  EXPECT_EQ(runner.base_config().seed, 99u);
}

TEST(ExperimentTest, CountersCrossCheckInjectedIdleFraction) {
  auto runner = make_runner();
  const RunResult dim =
      runner.measure(cpuburn4(), ActuationSpec::global(0.5, sim::from_ms(25)));
  EXPECT_GT(dim.counters.injections, 0u);
  // The registry accrues the same per-quantum durations the harness sums into
  // injected_idle_fraction, sampled at the same window boundaries.
  const double frac_from_counters =
      static_cast<double>(dim.counters.injected_idle_ns) / 1e9 /
      (sim::to_sec(runner.measurement_config().measure_window) * 4.0);
  EXPECT_NEAR(frac_from_counters, dim.injected_idle_fraction, 1e-9);
}

// Fast measurement schedule for the warm-start tests: one run is a few tens
// of milliseconds of wall time.
ExperimentRunner warm_runner() {
  sched::MachineConfig cfg;
  MeasurementConfig mc;
  mc.max_settle_iterations = 2;
  mc.settle_chunk = sim::from_sec(3);
  mc.post_settle_run = sim::from_sec(1);
  mc.measure_window = sim::from_sec(5);
  return ExperimentRunner(cfg, mc);
}

void expect_results_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.avg_sensor_temp_c, b.avg_sensor_temp_c);
  EXPECT_EQ(a.avg_exact_temp_c, b.avg_exact_temp_c);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.injected_idle_fraction, b.injected_idle_fraction);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(ExperimentTest, WarmForkMatchesInlineWarmupBitIdentical) {
  // The warm-start contract: forking from a cached warmup snapshot produces
  // the SAME bits as re-simulating the warmup inline — across different
  // actuations sharing the one prefix.
  auto runner = warm_runner();
  const auto warmup = sim::from_sec(90);
  const sched::MachineSnapshot snap =
      runner.build_warmup_snapshot(cpuburn4(), warmup);
  for (const double p : {0.2, 0.6}) {
    const auto act = ActuationSpec::global(p, sim::from_ms(100));
    const RunResult warm = runner.measure_warm(cpuburn4(), act, snap);
    const RunResult replay = runner.measure_after_warmup(cpuburn4(), act,
                                                         warmup);
    expect_results_bit_identical(warm, replay);
  }
}

TEST(ExperimentTest, WarmupChangesTheMeasuredOperatingPoint) {
  // Sanity that warmup is not a no-op: a warmed machine starts its settle
  // loop hot, so the measured run differs from the cold methodology (which
  // starts at idle equilibrium but settles first — throughput should agree
  // closely, temperatures may differ slightly, but the runs are distinct
  // simulations).
  auto runner = warm_runner();
  const RunResult cold = runner.measure(cpuburn4(), ActuationSpec::none());
  const RunResult warm = runner.measure_after_warmup(
      cpuburn4(), ActuationSpec::none(), sim::from_sec(60));
  EXPECT_GT(warm.avg_exact_temp_c, cold.idle_exact_temp_c);
  EXPECT_NEAR(warm.throughput, cold.throughput, 0.1 * cold.throughput);
}

// Labels are CSV identifiers: every catalogue kind's string is pinned.
TEST(ExperimentTest, LabelsPropagate) {
  EXPECT_EQ(ActuationSpec::none().label(), "race-to-idle");
  EXPECT_EQ(ActuationSpec::global(0.25, sim::from_ms(50)).label(),
            "dimetrodon[p=0.25,L=50ms]");
  EXPECT_EQ(ActuationSpec::global_stratified(0.5, sim::from_ms(25)).label(),
            "dimetrodon-det[p=0.50,L=25ms]");
  EXPECT_EQ(ActuationSpec::vfs(2).label(), "vfs[level=2]");
  EXPECT_EQ(ActuationSpec::tcc(4).label(), "p4tcc[step=4]");

  control::GovernorSpec pid;
  pid.kind = control::GovernorKind::kPid;
  EXPECT_EQ(ActuationSpec::governed(pid).label(),
            "pid[set=68,kp=0.10,ki=0.04]");
  control::GovernorSpec hys;
  hys.kind = control::GovernorKind::kHysteresis;
  EXPECT_EQ(ActuationSpec::governed(hys, 0.25).label(),
            "hysteresis[72/68,p=0.60]+base=0.25");
  control::GovernorSpec cap;
  cap.kind = control::GovernorKind::kPowerCap;
  cap.power_cap.cap_w = 48.0;
  EXPECT_EQ(ActuationSpec::governed(cap).label(),
            "power-cap[cap=48W,kp=0.01,ki=0.02]");

  auto runner = make_runner();
  EXPECT_EQ(runner.measure(cpuburn4(), ActuationSpec::tcc(4)).label,
            "p4tcc[step=4]");
}

TEST(ThermalPolicyTest, RaceToIdleChangesNothing) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  sched::Machine m(cfg);
  EXPECT_EQ(ActuationSpec::none().apply(m), nullptr);
  EXPECT_EQ(m.core(0).dvfs_level, 0u);
  EXPECT_DOUBLE_EQ(m.core(0).op.clock_duty, 1.0);
}

TEST(ThermalPolicyTest, VfsSetsAllCores) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  sched::Machine m(cfg);
  EXPECT_EQ(ActuationSpec::vfs(3).apply(m), nullptr);
  for (std::size_t i = 0; i < m.num_cores(); ++i) {
    const auto& core = m.core(static_cast<sched::CoreId>(i));
    EXPECT_EQ(core.dvfs_level, 3u);
    EXPECT_DOUBLE_EQ(core.op.freq_ghz, m.config().dvfs.level(3).freq_ghz);
    EXPECT_DOUBLE_EQ(core.op.voltage_v, m.config().dvfs.level(3).voltage_v);
  }
}

TEST(ThermalPolicyTest, TccSetsDutyOnAllCores) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  sched::Machine m(cfg);
  EXPECT_EQ(ActuationSpec::tcc(4).apply(m), nullptr);
  for (std::size_t i = 0; i < m.num_cores(); ++i) {
    EXPECT_DOUBLE_EQ(m.core(static_cast<sched::CoreId>(i)).op.clock_duty,
                     0.5);
  }
}

TEST(ActuationSpecTest, ApplySetsEachKindsKnob) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  for (const auto& act : {ActuationSpec::global(0.3, sim::from_ms(20)),
                          ActuationSpec::global_stratified(0.3,
                                                           sim::from_ms(20))}) {
    sched::Machine m(cfg);
    const auto ctl = act.apply(m);
    ASSERT_NE(ctl, nullptr);
    EXPECT_EQ(ctl->table().global().probability, 0.3);
    EXPECT_EQ(ctl->table().global().quantum, sim::from_ms(20));
  }
  {
    // A preventive floor is in force before the governor's first sample.
    sched::Machine m(cfg);
    control::GovernorSpec pid;
    pid.kind = control::GovernorKind::kPid;
    const auto ctl =
        ActuationSpec::governed(pid, 0.2, sim::from_ms(40)).apply(m);
    ASSERT_NE(ctl, nullptr);
    EXPECT_EQ(ctl->table().global().probability, 0.2);
    EXPECT_EQ(ctl->table().global().quantum, sim::from_ms(40));
  }
}

TEST(ActuationSpecTest, VfsCoolsLoadedMachine) {
  auto settled = [](const ActuationSpec& act) {
    sched::MachineConfig cfg;
    cfg.enable_meter = false;
    sched::Machine m(cfg);
    act.apply(m);
    workload::CpuBurnFleet fleet(4);
    fleet.deploy(m);
    for (int i = 0; i < 4; ++i) {
      m.mark_power_window();
      m.run_for(sim::from_sec(8));
      m.jump_to_average_power_steady_state();
    }
    m.run_for(sim::from_sec(3));
    return m.mean_sensor_temp();
  };
  const double unconstrained = settled(ActuationSpec::none());
  EXPECT_LT(settled(ActuationSpec::vfs(5)), unconstrained - 8.0);
  EXPECT_LT(settled(ActuationSpec::tcc(2)), unconstrained - 10.0);
}

}  // namespace
}  // namespace dimetrodon::harness
