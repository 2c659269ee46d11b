// The machine's per-physical-core power memo: a pure cache keyed on every
// hardware context's operating point and activity (plus the die
// temperature's bits for the leakage factor). Its answers must equal a fresh
// power-model evaluation bit for bit, forks must not see it, and the misses
// it lets through (core_power_evals) stay within a budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "power/cstate.hpp"
#include "sched/machine.hpp"
#include "sim/rng.hpp"
#include "workload/cpuburn.hpp"
#include "workload/web.hpp"

namespace dimetrodon::sched {

/// Reaches the machine's private power path and core state.
class MachineTestPeer {
 public:
  static double physical_core_power(Machine& m, std::size_t phys) {
    return m.physical_core_power(phys);
  }
  static Core& core(Machine& m, CoreId id) { return m.cores_.at(id); }
};

namespace {

// One physical core's power computed afresh, the way the machine computed it
// before the memo: a fresh core_dynamic_power per context and a fresh
// core_leakage_power at the die temperature, on every call.
double fresh_physical_core_power(const Machine& m, std::size_t phys) {
  const power::CpuPowerModel& model = m.power_model();
  const std::size_t contexts = m.config().smt_enabled ? 2 : 1;
  double dynamic = 0.0;
  bool all_deep_idle = true;
  double voltage = 0.0;
  std::size_t executing = 0;
  for (std::size_t k = 0; k < contexts; ++k) {
    const Core& c = m.core(static_cast<CoreId>(phys * contexts + k));
    dynamic += model.core_dynamic_power(c.op);
    if (c.activity == CoreActivity::kExecuting) ++executing;
    if (c.activity != CoreActivity::kIdle || c.op.in_transition ||
        c.op.cstate != power::CState::kC1E) {
      all_deep_idle = false;
    }
    voltage = std::max(voltage, c.op.voltage_v);
  }
  if (executing == 2) dynamic *= m.config().smt_throughput_factor;
  power::CoreOperatingPoint leak_op;
  leak_op.cstate = all_deep_idle ? power::CState::kC1E : power::CState::kC0;
  leak_op.in_transition = false;
  leak_op.voltage_v = voltage;
  const double t =
      m.die_temperature(static_cast<CoreId>(phys * contexts));
  return dynamic + model.core_leakage_power(leak_op, t);
}

std::uint64_t power_evals(const Machine& m) {
  return m.counters().totals().core_power_evals;
}

// Random walks over every input of the memo key: C-state entry and exit
// (with transitions), DVFS levels, clock-duty steps, workload activity,
// the context's activity, and the die temperature. Each mutation touches
// one field of one context, so a key that ignored any field would answer a
// stale value on the next evaluation of that core.
void expect_memo_matches_fresh_evaluation(bool smt, std::uint64_t seed) {
  MachineConfig cfg;
  cfg.enable_meter = false;
  cfg.smt_enabled = smt;
  Machine m(cfg);
  sim::Rng rng(seed);
  const std::size_t levels = cfg.dvfs.num_levels();
  constexpr power::CState kStates[] = {power::CState::kC0, power::CState::kC1,
                                       power::CState::kC1E};
  constexpr CoreActivity kActivities[] = {
      CoreActivity::kExecuting, CoreActivity::kIdleEntering,
      CoreActivity::kIdle, CoreActivity::kIdleExiting};
  const auto last = [](std::size_t n) {
    return static_cast<std::int64_t>(n) - 1;
  };
  for (int step = 0; step < 20000 && !::testing::Test::HasFailure(); ++step) {
    const auto id =
        static_cast<CoreId>(rng.uniform_int(0, last(m.num_cores())));
    Core& c = MachineTestPeer::core(m, id);
    switch (rng.uniform_int(0, 7)) {
      case 0:  // C-state entry or exit
        c.op.cstate = kStates[rng.uniform_int(0, 2)];
        c.activity = c.op.cstate == power::CState::kC0
                         ? CoreActivity::kExecuting
                         : CoreActivity::kIdle;
        break;
      case 1:
        c.op.in_transition = !c.op.in_transition;
        break;
      case 2: {
        const auto& level = cfg.dvfs.level(
            static_cast<std::size_t>(rng.uniform_int(0, last(levels))));
        c.op.freq_ghz = level.freq_ghz;
        c.op.voltage_v = level.voltage_v;
        break;
      }
      case 3:
        c.op.clock_duty = static_cast<double>(rng.uniform_int(1, 8)) / 8.0;
        break;
      case 4:
        c.op.activity = rng.uniform_int(0, 3) == 0 ? 1.0 : rng.uniform();
        break;
      case 5:
        c.activity = kActivities[rng.uniform_int(0, 3)];
        break;
      case 6: {
        const std::size_t phys = m.physical_of(id);
        m.thermal_network().set_temperature(m.thermal_nodes().die[phys],
                                            rng.uniform(30.0, 110.0));
        break;
      }
      default:
        break;  // no change: the next evaluation must hit
    }
    const std::size_t phys = m.physical_of(id);
    const std::uint64_t before = power_evals(m);
    ASSERT_EQ(MachineTestPeer::physical_core_power(m, phys),
              fresh_physical_core_power(m, phys))
        << "step " << step << ", core " << id;
    // Asking again with nothing changed is a hit.
    const std::uint64_t after = power_evals(m);
    EXPECT_LE(after, before + 1);
    EXPECT_EQ(MachineTestPeer::physical_core_power(m, phys),
              fresh_physical_core_power(m, phys));
    EXPECT_EQ(power_evals(m), after);
    const auto other = static_cast<std::size_t>(
        rng.uniform_int(0, last(m.num_physical_cores())));
    EXPECT_EQ(MachineTestPeer::physical_core_power(m, other),
              fresh_physical_core_power(m, other));
  }
}

TEST(PowerMemoTest, MatchesFreshEvaluationWithoutSmt) {
  expect_memo_matches_fresh_evaluation(false, 0x3e3a);
}

TEST(PowerMemoTest, MatchesFreshEvaluationWithSmt) {
  expect_memo_matches_fresh_evaluation(true, 0x5eed);
}

TEST(PowerMemoTest, MatchesFreshEvaluationThroughKnobChangesInARun) {
  // The same oracle on the machine's own transitions: DVFS and duty steps
  // through the public knobs while cpuburn threads dispatch and idle.
  MachineConfig cfg;
  cfg.enable_meter = false;
  cfg.smt_enabled = true;
  Machine m(cfg);
  workload::CpuBurnFleet fleet(3);
  fleet.deploy(m);
  sim::Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    m.run_for(sim::from_ms(rng.uniform_int(1, 40)));
    const auto id = static_cast<CoreId>(
        rng.uniform_int(0, static_cast<std::int64_t>(m.num_cores()) - 1));
    if (i % 3 == 0) {
      m.set_dvfs_level(id, static_cast<std::size_t>(rng.uniform_int(0, 5)));
    } else if (i % 3 == 1) {
      m.set_clock_duty_step(id, static_cast<std::size_t>(rng.uniform_int(1, 8)));
    }
    for (std::size_t p = 0; p < m.num_physical_cores(); ++p) {
      ASSERT_EQ(MachineTestPeer::physical_core_power(m, p),
                fresh_physical_core_power(m, p))
          << "iteration " << i << ", core " << p;
    }
  }
}

// Miss budgets. At most one thermal span runs per event, and each span
// evaluates every physical core once, so cores × events bounds the power
// calls; the budget is 1.5× the miss share measured on the same runs:
// cpuburn misses 12 of 25,248 calls over 30 s (after the start-up
// dispatches its operating points never change), and open-loop web at
// 600 rps misses 23.4% over 10 s.
constexpr double kCpuBurnMissShare = 4.8e-4;
constexpr double kWebMissShare = 0.235;

double eval_budget(Machine& m, double miss_share) {
  return 1.5 * miss_share * static_cast<double>(m.num_physical_cores()) *
         static_cast<double>(m.simulator().events_executed());
}

TEST(PowerMemoTest, CpuBurnEvaluationsStayWithinBudget) {
  MachineConfig cfg;
  cfg.enable_meter = false;
  Machine m(cfg);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(30));
  const std::uint64_t evals = power_evals(m);
  EXPECT_GT(evals, 0u);
  EXPECT_LE(static_cast<double>(evals), eval_budget(m, kCpuBurnMissShare))
      << evals << " evaluations over " << m.simulator().events_executed()
      << " events";
}

TEST(PowerMemoTest, OpenLoopWebEvaluationsStayWithinBudget) {
  MachineConfig cfg;
  cfg.enable_meter = false;
  Machine m(cfg);
  workload::WebWorkload::Config web_cfg;
  web_cfg.connections = 0;  // open loop only
  workload::WebWorkload web(web_cfg);
  web.deploy(m);
  sim::Rng arrivals(42);
  const sim::SimTime end = sim::from_sec(10);
  std::uint32_t id = 0;
  for (sim::SimTime t = sim::from_sec(arrivals.exponential(1.0 / 600.0));
       t < end; t += sim::from_sec(arrivals.exponential(1.0 / 600.0))) {
    m.run_until(t);
    web.inject_request(id++);
  }
  m.run_until(end);
  const std::uint64_t evals = power_evals(m);
  EXPECT_GT(evals, 0u);
  EXPECT_LE(static_cast<double>(evals), eval_budget(m, kWebMissShare))
      << evals << " evaluations over " << m.simulator().events_executed()
      << " events";
}

TEST(PowerMemoTest, ForkWithWarmMemoMatchesReplay) {
  // The origin's memo is warm at the snapshot point; the restored machine's
  // starts cold. The memo is a pure cache, so the fork still evolves
  // bit-identically, and its evaluation count exceeds the replay's by at
  // most one per physical core (the first evaluation after restore).
  MachineConfig cfg;
  cfg.enable_meter = false;
  const auto run = [&](Machine& m, workload::CpuBurnFleet& fleet) {
    fleet.deploy(m);
    m.run_for(sim::from_sec(4));
    m.set_all_dvfs_levels(2);
    m.run_for(sim::from_ms(1500));
  };
  Machine replay(cfg);
  workload::CpuBurnFleet replay_fleet(3);
  run(replay, replay_fleet);
  Machine origin(cfg);
  workload::CpuBurnFleet origin_fleet(3);
  run(origin, origin_fleet);
  ASSERT_GT(power_evals(origin), 0u);
  const MachineSnapshot snap = origin.snapshot();

  Machine fork(cfg);
  workload::CpuBurnFleet fork_fleet(3);
  fork_fleet.deploy(fork);
  fork.restore(snap);
  for (Machine* m : {&replay, &fork}) {
    m->set_clock_duty_step(1, 5);
    m->run_for(sim::from_sec(3));
  }
  const auto replay_state = replay.thermal_network().save_state();
  const auto fork_state = fork.thermal_network().save_state();
  for (std::size_t n = 0; n < replay_state.temps.size(); ++n) {
    EXPECT_EQ(fork_state.temps[n], replay_state.temps[n]) << "node " << n;
    EXPECT_EQ(fork_state.powers[n], replay_state.powers[n]) << "node " << n;
  }
  EXPECT_EQ(fork.energy().total_joules(), replay.energy().total_joules());
  for (std::size_t p = 0; p < fork.num_physical_cores(); ++p) {
    EXPECT_EQ(MachineTestPeer::physical_core_power(fork, p),
              MachineTestPeer::physical_core_power(replay, p));
  }
  EXPECT_GE(power_evals(fork), power_evals(replay));
  EXPECT_LE(power_evals(fork),
            power_evals(replay) + fork.num_physical_cores());
}

}  // namespace
}  // namespace dimetrodon::sched
