#include "sched/machine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/cpuburn.hpp"

namespace dimetrodon::sched {
namespace {

MachineConfig small_config() {
  MachineConfig cfg;
  cfg.enable_meter = false;
  return cfg;
}

/// Runs `work` seconds then exits.
class FixedWork final : public ThreadBehavior {
 public:
  explicit FixedWork(double work, double activity = 1.0)
      : work_(work), activity_(activity) {}
  Burst next_burst(sim::SimTime, sim::Rng&) override {
    return {work_, activity_};
  }
  BurstOutcome on_burst_complete(sim::SimTime, sim::Rng&) override {
    return BurstOutcome::Exit();
  }

 private:
  double work_;
  double activity_;
};

/// Alternates `work` seconds of CPU and `sleep` of blocking.
class WorkSleepLoop final : public ThreadBehavior {
 public:
  WorkSleepLoop(double work, sim::SimTime sleep) : work_(work), sleep_(sleep) {}
  Burst next_burst(sim::SimTime, sim::Rng&) override { return {work_, 1.0}; }
  BurstOutcome on_burst_complete(sim::SimTime, sim::Rng&) override {
    return BurstOutcome::SleepFor(sleep_);
  }

 private:
  double work_;
  sim::SimTime sleep_;
};

TEST(MachineTest, StartsAtIdleEquilibrium) {
  Machine m(small_config());
  // Idle temperatures must sit between ambient and a hot die, and the stack
  // must be ordered die > package > heatsink > ambient.
  const auto& nodes = m.thermal_nodes();
  const double die = m.thermal_network().temperature(nodes.die[0]);
  const double pkg = m.thermal_network().temperature(nodes.package);
  const double hs = m.thermal_network().temperature(nodes.heatsink);
  EXPECT_GT(die, 28.0);
  EXPECT_LT(die, 45.0);
  EXPECT_GE(die, pkg);
  EXPECT_GT(pkg, hs);
  EXPECT_GT(hs, m.config().floorplan.ambient_c);
}

TEST(MachineTest, IdleEquilibriumStopsAtItsBitwiseFixedPoint) {
  // The construction loop stops at the first pass that leaves every node
  // temperature unchanged; running all 32 passes gives these same bits.
  const Machine m{MachineConfig{}};
  const std::vector<double> want = {0x1.fda72c06b9f5dp+4, 0x1.fda72c06b9f5dp+4,
                                    0x1.fda72c06b9f5dp+4, 0x1.fda72c06b9f5cp+4};
  ASSERT_EQ(m.num_physical_cores(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(m.die_temperature(static_cast<CoreId>(i)), want[i]) << i;
  }
  // The powers left on the network are the ones the fixed point implies:
  // one more steady-state solve moves no node.
  thermal::RcNetwork again = m.thermal_network();
  again.solve_steady_state();
  for (thermal::NodeId n = 0; n < again.node_count(); ++n) {
    EXPECT_EQ(again.temperature(n), m.thermal_network().temperature(n)) << n;
  }
}

TEST(MachineTest, IdleEquilibriumIsStationary) {
  Machine m(small_config());
  const double before = m.die_temperature(0);
  m.run_for(sim::from_sec(5));
  EXPECT_NEAR(m.die_temperature(0), before, 0.2);
}

TEST(MachineTest, FiniteThreadCompletesInExpectedTime) {
  Machine m(small_config());
  const ThreadId tid = m.create_thread("w", ThreadClass::kUser, 0,
                                       std::make_unique<FixedWork>(2.0));
  m.run_for(sim::from_sec(3));
  const Thread& t = m.thread(tid);
  EXPECT_EQ(t.state(), ThreadState::kDone);
  // Alone on a core at nominal frequency: ~2 s plus microsecond overheads.
  EXPECT_NEAR(sim::to_sec(t.finished_at() - t.created_at()), 2.0, 0.01);
  EXPECT_NEAR(t.work_completed(), 2.0, 1e-6);
}

TEST(MachineTest, WorkConservedUnderTimeslicing) {
  // Two threads forced onto one core via affinity: each still completes its
  // work, in ~double the wall time.
  Machine m(small_config());
  const ThreadId a = m.create_thread("a", ThreadClass::kUser, 0,
                                     std::make_unique<FixedWork>(1.0), 0);
  const ThreadId b = m.create_thread("b", ThreadClass::kUser, 0,
                                     std::make_unique<FixedWork>(1.0), 0);
  m.run_for(sim::from_sec(3));
  EXPECT_EQ(m.thread(a).state(), ThreadState::kDone);
  EXPECT_EQ(m.thread(b).state(), ThreadState::kDone);
  EXPECT_NEAR(sim::to_sec(m.thread(b).finished_at()), 2.0, 0.05);
  EXPECT_NEAR(m.thread(a).work_completed(), 1.0, 1e-6);
  EXPECT_NEAR(m.thread(b).work_completed(), 1.0, 1e-6);
}

TEST(MachineTest, ThreadsSpreadAcrossCores) {
  Machine m(small_config());
  for (int i = 0; i < 4; ++i) {
    m.create_thread(std::string("w") + std::to_string(i), ThreadClass::kUser,
                    0, std::make_unique<FixedWork>(1.0));
  }
  m.run_for(sim::from_sec(2));
  // With one thread per core everyone finishes in ~1 s, not 4 s.
  for (ThreadId id = 0; id < 4; ++id) {
    EXPECT_EQ(m.thread(id).state(), ThreadState::kDone);
    EXPECT_LT(sim::to_sec(m.thread(id).finished_at()), 1.2);
  }
}

TEST(MachineTest, SleepWakeCycleWorks) {
  Machine m(small_config());
  const ThreadId tid = m.create_thread(
      "loop", ThreadClass::kUser, 0,
      std::make_unique<WorkSleepLoop>(0.01, sim::from_ms(90)));
  m.run_for(sim::from_sec(1));
  const Thread& t = m.thread(tid);
  // ~10 cycles of (10 ms work + 90 ms sleep).
  EXPECT_GE(t.bursts_completed(), 8u);
  EXPECT_LE(t.bursts_completed(), 12u);
  EXPECT_NEAR(t.work_completed(), 0.01 * t.bursts_completed(), 1e-6);
}

TEST(MachineTest, ExternalWakeUnblocksThread) {
  Machine m(small_config());
  class SleepImmediately final : public ThreadBehavior {
   public:
    Burst next_burst(sim::SimTime, sim::Rng&) override { return {0.001, 1.0}; }
    BurstOutcome on_burst_complete(sim::SimTime, sim::Rng&) override {
      ++completions;
      return BurstOutcome::SleepUntilWoken();
    }
    int completions = 0;
  };
  auto behavior = std::make_unique<SleepImmediately>();
  auto* raw = behavior.get();
  const ThreadId tid =
      m.create_thread("s", ThreadClass::kUser, 0, std::move(behavior));
  m.run_for(sim::from_ms(500));
  EXPECT_EQ(raw->completions, 1);
  EXPECT_EQ(m.thread(tid).state(), ThreadState::kSleeping);
  m.wake_thread(tid);
  m.run_for(sim::from_ms(500));
  EXPECT_EQ(raw->completions, 2);
}

TEST(MachineTest, DvfsSlowsExecutionProportionally) {
  Machine m(small_config());
  m.set_all_dvfs_levels(5);  // 1.596 GHz = 70.6% of nominal
  const ThreadId tid = m.create_thread("w", ThreadClass::kUser, 0,
                                       std::make_unique<FixedWork>(1.0));
  m.run_for(sim::from_sec(2));
  const double ratio = m.config().dvfs.level(5).freq_ghz /
                       m.config().dvfs.nominal().freq_ghz;
  EXPECT_NEAR(sim::to_sec(m.thread(tid).finished_at()), 1.0 / ratio, 0.02);
}

TEST(MachineTest, ClockDutySlowsExecution) {
  Machine m(small_config());
  m.set_all_clock_duty_steps(4);  // 50% duty
  const ThreadId tid = m.create_thread("w", ThreadClass::kUser, 0,
                                       std::make_unique<FixedWork>(1.0));
  m.run_for(sim::from_sec(4));
  // 50% duty plus pipeline drain/refill overhead: strictly slower than 2x.
  const double wall = sim::to_sec(m.thread(tid).finished_at());
  EXPECT_GT(wall, 2.0);
  EXPECT_LT(wall, 2.4);
}

TEST(MachineTest, LoadedMachineHeatsUp) {
  Machine m(small_config());
  const double idle_temp = m.die_temperature(0);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(20));
  EXPECT_GT(m.die_temperature(0), idle_temp + 10.0);
}

TEST(MachineTest, PowerRisesUnderLoad) {
  Machine m(small_config());
  const double idle_power = m.current_total_power();
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(2));
  EXPECT_GT(m.current_total_power(), idle_power + 25.0);
}

TEST(MachineTest, EnergyMatchesMeanPowerTimesTime) {
  Machine m(small_config());
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(1));
  const double e0 = m.energy().total_joules();
  const double p0 = m.current_total_power();
  m.run_for(sim::from_sec(1));
  const double de = m.energy().total_joules() - e0;
  // Power drifts slowly with temperature; 1 s of integration stays close.
  EXPECT_NEAR(de, p0, 0.1 * p0);
}

TEST(MachineTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Machine m(small_config());
    workload::CpuBurnFleet fleet(4, 1.5);
    fleet.deploy(m);
    m.run_for(sim::from_sec(3));
    return std::make_pair(m.die_temperature(2), m.energy().total_joules());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(MachineTest, DifferentSeedsDifferentMeterNoise) {
  MachineConfig cfg;
  cfg.enable_meter = true;
  Machine a(cfg);
  cfg.seed = 0xfeed;
  Machine b(cfg);
  a.run_for(sim::from_ms(10));
  b.run_for(sim::from_ms(10));
  ASSERT_GE(a.meter()->sample_count(), 2u);
  EXPECT_NE(a.meter()->samples()[1].watts, b.meter()->samples()[1].watts);
}

TEST(MachineTest, ContextSwitchesCountedOnMultiplexedCore) {
  Machine m(small_config());
  m.create_thread("a", ThreadClass::kUser, 0,
                  std::make_unique<FixedWork>(0.5), 0);
  m.create_thread("b", ThreadClass::kUser, 0,
                  std::make_unique<FixedWork>(0.5), 0);
  m.run_for(sim::from_sec(2));
  // 1 s of joint work in 100 ms slices: ~10 switches.
  EXPECT_GE(m.core(0).context_switches, 8u);
}

TEST(MachineTest, BusyAndIdleSecondsAccount) {
  Machine m(small_config());
  const ThreadId tid = m.create_thread("w", ThreadClass::kUser, 0,
                                       std::make_unique<FixedWork>(1.0), 0);
  m.run_for(sim::from_sec(4));
  (void)tid;
  const Core& c = m.core(0);
  EXPECT_NEAR(c.busy_seconds, 1.0, 0.02);
  // Idle seconds only accumulate at idle-exit; at minimum the core spent the
  // pre-thread and post-thread time idle or entering idle.
  EXPECT_GE(c.dispatches, 1u);
}

TEST(MachineTest, RunUntilConditionStopsEarly) {
  Machine m(small_config());
  const ThreadId tid = m.create_thread("w", ThreadClass::kUser, 0,
                                       std::make_unique<FixedWork>(0.5));
  const bool hit = m.run_until_condition(
      [&] { return m.thread(tid).state() == ThreadState::kDone; },
      sim::from_sec(10));
  EXPECT_TRUE(hit);
  EXPECT_LT(sim::to_sec(m.now()), 1.0);
}

TEST(MachineTest, RunUntilConditionHonorsDeadline) {
  Machine m(small_config());
  const bool hit =
      m.run_until_condition([] { return false; }, sim::from_ms(50));
  EXPECT_FALSE(hit);
  EXPECT_EQ(m.now(), sim::from_ms(50));
}

TEST(MachineTest, SteadyStateJumpApproximatesLongRun) {
  // The accelerated-settling machinery must land near the true steady state.
  auto settled_temp = [](bool accelerate) {
    Machine m(small_config());
    workload::CpuBurnFleet fleet(4);
    fleet.deploy(m);
    if (accelerate) {
      for (int i = 0; i < 5; ++i) {
        m.mark_power_window();
        m.run_for(sim::from_sec(8));
        m.jump_to_average_power_steady_state();
      }
      m.run_for(sim::from_sec(4));
    } else {
      m.run_for(sim::from_sec(300));
    }
    return m.die_temperature(0);
  };
  EXPECT_NEAR(settled_temp(true), settled_temp(false), 1.0);
}

TEST(MachineTest, InvalidDvfsLevelThrows) {
  Machine m(small_config());
  EXPECT_THROW(m.set_dvfs_level(0, 6), std::out_of_range);
}

TEST(MachineTest, InvalidDutyStepThrows) {
  Machine m(small_config());
  EXPECT_THROW(m.set_clock_duty_step(0, 0), std::out_of_range);
  EXPECT_THROW(m.set_clock_duty_step(0, 9), std::out_of_range);
}

}  // namespace
}  // namespace dimetrodon::sched
