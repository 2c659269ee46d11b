// Machine snapshot/restore contract: a run forked from a snapshot is
// bit-identical to replaying the same prefix inline (fork ≡ replay), and
// every unsupported configuration is refused loudly instead of silently
// diverging.
#include "sched/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "workload/cpuburn.hpp"

namespace dimetrodon::sched {
namespace {

/// Open-loop request server with snapshot support, shaped like a web worker
/// fed by a cluster balancer: requests are pushed from outside, each costs
/// an exponential service demand drawn from the thread's RNG, and the
/// server sleeps when its queue is empty. (WebWorkload keeps its queues
/// outside the threads, so it cannot be snapshotted.)
class QueueServer final : public ThreadBehavior {
 public:
  void push() { ++queued_; }

  Burst next_burst(sim::SimTime, sim::Rng& rng) override {
    serving_ = queued_ > 0;
    if (!serving_) return Burst{1e-6, 0.1};  // woke to an empty queue
    return Burst{rng.exponential(0.004), 0.8};
  }
  BurstOutcome on_burst_complete(sim::SimTime, sim::Rng&) override {
    if (serving_) --queued_;
    serving_ = false;
    return queued_ > 0 ? BurstOutcome::Continue()
                       : BurstOutcome::SleepUntilWoken();
  }
  bool save_state(std::vector<double>& out) const override {
    out.push_back(static_cast<double>(queued_));
    out.push_back(serving_ ? 1.0 : 0.0);
    return true;
  }
  void load_state(const std::vector<double>& in) override {
    queued_ = static_cast<std::uint64_t>(in.at(0));
    serving_ = in.at(1) != 0.0;
  }

 private:
  std::uint64_t queued_ = 0;
  bool serving_ = false;
};

/// Four QueueServers receiving a Poisson arrival stream round-robin.
struct OpenLoopServers {
  std::vector<ThreadId> tids;

  void deploy(Machine& m) {
    for (int i = 0; i < 4; ++i) {
      tids.push_back(m.create_thread("srv" + std::to_string(i),
                                     ThreadClass::kUser, 0,
                                     std::make_unique<QueueServer>()));
    }
  }
  /// Run [from, to) of the arrival stream: advance to each arrival, push it.
  void drive(Machine& m, const std::vector<sim::SimTime>& arrivals,
             sim::SimTime from, sim::SimTime to) {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i] < from || arrivals[i] >= to) continue;
      m.run_until(arrivals[i]);
      const ThreadId tid = tids[i % tids.size()];
      static_cast<QueueServer&>(m.thread(tid).behavior()).push();
      m.wake_thread(tid);
    }
    m.run_until(to);
  }
};

std::vector<sim::SimTime> poisson_arrivals(double rps, sim::SimTime end) {
  sim::Rng rng(7);
  std::vector<sim::SimTime> out;
  for (sim::SimTime t = 0;;) {
    t += sim::from_sec(rng.exponential(1.0 / rps));
    if (t >= end) return out;
    out.push_back(t);
  }
}

MachineConfig snap_config() {
  MachineConfig cfg;
  cfg.enable_meter = false;  // meters sample wall-clock state; not snapshotable
  return cfg;
}

void expect_machines_bit_identical(Machine& a, Machine& b) {
  ASSERT_EQ(a.now(), b.now());
  const auto sa = a.thermal_network().save_state();
  const auto sb = b.thermal_network().save_state();
  ASSERT_EQ(sa.temps.size(), sb.temps.size());
  for (std::size_t i = 0; i < sa.temps.size(); ++i) {
    EXPECT_EQ(sa.temps[i], sb.temps[i]) << "thermal node " << i;
    EXPECT_EQ(sa.powers[i], sb.powers[i]) << "thermal node " << i;
  }
  EXPECT_EQ(a.energy().total_joules(), b.energy().total_joules());
  EXPECT_EQ(a.mean_sensor_temp(), b.mean_sensor_temp());
  ASSERT_EQ(a.thread_count(), b.thread_count());
  for (ThreadId id = 0; id < a.thread_count(); ++id) {
    EXPECT_EQ(a.thread(id).cpu_seconds_consumed(),
              b.thread(id).cpu_seconds_consumed())
        << "thread " << id;
    EXPECT_EQ(a.thread(id).bursts_completed(), b.thread(id).bursts_completed())
        << "thread " << id;
    EXPECT_EQ(a.thread(id).state(), b.thread(id).state()) << "thread " << id;
  }
  const auto& ca = a.counters();
  const auto& cb = b.counters();
  for (std::size_t i = 0; i < ca.num_cores(); ++i) {
    EXPECT_EQ(ca.core(i).dispatches, cb.core(i).dispatches) << i;
    EXPECT_EQ(ca.core(i).context_switches, cb.core(i).context_switches) << i;
    EXPECT_EQ(ca.core(i).injections, cb.core(i).injections) << i;
    EXPECT_EQ(ca.core(i).idle_ns, cb.core(i).idle_ns) << i;
  }
}

TEST(MachineSnapshotTest, ForkMatchesReplayBitIdentical) {
  // Reference: one uninterrupted run to 25 s.
  Machine replay(snap_config());
  workload::CpuBurnFleet replay_fleet(4, 1.5);
  replay_fleet.deploy(replay);
  replay.run_for(sim::from_sec(25));

  // Fork: snapshot a twin at 10 s, restore into a fresh machine, continue.
  Machine builder(snap_config());
  workload::CpuBurnFleet builder_fleet(4, 1.5);
  builder_fleet.deploy(builder);
  builder.run_for(sim::from_sec(10));
  const MachineSnapshot snap = builder.snapshot();

  Machine forked(snap_config());
  workload::CpuBurnFleet forked_fleet(4, 1.5);
  forked_fleet.deploy(forked);
  forked.restore(snap);
  EXPECT_EQ(forked.now(), sim::from_sec(10));
  forked.run_for(sim::from_sec(15));

  expect_machines_bit_identical(replay, forked);
}

TEST(MachineSnapshotTest, ForkMidSubstepUnderOpenLoopArrivalsMatchesReplay) {
  // Open-loop arrivals end spans at arbitrary nanoseconds, so the capture
  // point falls inside a thermal substep with carried energy pending. The
  // replay pauses at the same instant (pausing is an interaction point).
  const std::vector<sim::SimTime> arrivals =
      poisson_arrivals(600.0, sim::from_sec(4));
  const sim::SimTime cut = sim::from_sec(2) + 123'457;
  const sim::SimTime end = sim::from_sec(4);

  Machine replay(snap_config());
  OpenLoopServers replay_srv;
  replay_srv.deploy(replay);
  replay_srv.drive(replay, arrivals, 0, cut);
  replay_srv.drive(replay, arrivals, cut, end);

  Machine builder(snap_config());
  OpenLoopServers builder_srv;
  builder_srv.deploy(builder);
  builder_srv.drive(builder, arrivals, 0, cut);
  const MachineSnapshot snap = builder.snapshot();
  EXPECT_LT(snap.thermal_grid, snap.last_thermal_update);
  EXPECT_TRUE(std::any_of(snap.thermal_carry.begin(), snap.thermal_carry.end(),
                          [](double j) { return j != 0.0; }));

  const auto fork = [&](const MachineSnapshot& s) {
    auto m = std::make_unique<Machine>(snap_config());
    OpenLoopServers srv;
    srv.deploy(*m);
    m->restore(s);
    srv.drive(*m, arrivals, cut, end);
    return m;
  };
  const auto forked = fork(snap);
  expect_machines_bit_identical(replay, *forked);

  // The carry is load-bearing: a fork that drops it closes the open
  // substep at the wrong mean power and diverges.
  MachineSnapshot no_carry = snap;
  std::fill(no_carry.thermal_carry.begin(), no_carry.thermal_carry.end(),
            0.0);
  const auto dropped = fork(no_carry);
  EXPECT_NE(dropped->die_temperature(0), replay.die_temperature(0));
}

TEST(MachineSnapshotTest, SnapshotDoesNotPerturbTheRunningMachine) {
  // Taking a snapshot is observation only: a machine that snapshots mid-run
  // finishes bit-identically to one that never did. Both runs pause at 8 s
  // (pausing itself splits partial-burst accounting, so the pause points
  // must match); only the snapshot call differs.
  Machine plain(snap_config());
  workload::CpuBurnFleet plain_fleet(4);
  plain_fleet.deploy(plain);
  plain.run_for(sim::from_sec(8));
  plain.run_for(sim::from_sec(12));

  Machine observed(snap_config());
  workload::CpuBurnFleet observed_fleet(4);
  observed_fleet.deploy(observed);
  observed.run_for(sim::from_sec(8));
  (void)observed.snapshot();
  observed.run_for(sim::from_sec(12));

  expect_machines_bit_identical(plain, observed);
}

TEST(MachineSnapshotTest, RestoredMachineKeepsRngStreams) {
  // The master RNG and every per-thread stream are part of the snapshot;
  // post-restore stochastic decisions (burst durations, injection draws)
  // must replay exactly. Covered implicitly by the fork ≡ replay test, but
  // this isolates the RNG: fork twice from one snapshot and compare forks.
  Machine builder(snap_config());
  workload::CpuBurnFleet fleet(2, 2.0);
  fleet.deploy(builder);
  builder.run_for(sim::from_sec(5));
  const MachineSnapshot snap = builder.snapshot();

  auto run_fork = [&](sim::SimTime extra) {
    Machine m(snap_config());
    workload::CpuBurnFleet f(2, 2.0);
    f.deploy(m);
    m.restore(snap);
    m.run_for(extra);
    return m.thermal_network().save_state();
  };
  const auto a = run_fork(sim::from_sec(7));
  const auto b = run_fork(sim::from_sec(7));
  for (std::size_t i = 0; i < a.temps.size(); ++i) {
    EXPECT_EQ(a.temps[i], b.temps[i]);
  }
}

TEST(MachineSnapshotTest, MeterAttachedRefusesSnapshot) {
  MachineConfig cfg;
  cfg.enable_meter = true;
  Machine m(cfg);
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.run_for(sim::from_sec(1));
  EXPECT_THROW((void)m.snapshot(), std::runtime_error);
}

TEST(MachineSnapshotTest, UleSchedulerRefusesSnapshot) {
  MachineConfig cfg = snap_config();
  cfg.scheduler_kind = SchedulerKind::kUle;
  Machine m(cfg);
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.run_for(sim::from_sec(1));
  EXPECT_THROW((void)m.snapshot(), std::runtime_error);
}

TEST(MachineSnapshotTest, UntrackedCallAtEventRefusesSnapshot) {
  // Workload driver timers scheduled via call_at are not in the machine's
  // event inventory; snapshotting with one pending must throw rather than
  // silently dropping it from the fork.
  Machine m(snap_config());
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.call_at(sim::from_sec(60), [](sim::SimTime) {});
  m.run_for(sim::from_sec(1));
  EXPECT_THROW((void)m.snapshot(), std::runtime_error);
}

TEST(MachineSnapshotTest, RestoreRejectsMismatchedThreadCount) {
  Machine builder(snap_config());
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(builder);
  builder.run_for(sim::from_sec(2));
  const MachineSnapshot snap = builder.snapshot();

  Machine wrong(snap_config());
  workload::CpuBurnFleet two(2);
  two.deploy(wrong);
  EXPECT_THROW(wrong.restore(snap), std::invalid_argument);
}

}  // namespace
}  // namespace dimetrodon::sched
