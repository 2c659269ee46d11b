// Parallel fleet advancement (DESIGN.md section 11): fanning per-machine
// advances across a pool is an execution detail, never a semantic one. These
// tests pin the contract — bit-identical results at every fleet_threads
// setting, a byte-equal cluster trace, no double-counted observability —
// on the full stack (CRAC coupling, diurnal + flash traffic, a governed
// group, thermal-aware routing).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "cluster/fleet_spec.hpp"
#include "obs/trace_sink.hpp"

namespace dimetrodon::cluster {
namespace {

sched::MachineConfig lean_machine() {
  sched::MachineConfig m;
  m.enable_meter = false;
  return m;
}

/// The fig9 small cell in miniature: every cross-node coupling the cluster
/// layer has, so a determinism bug anywhere in the parallel phase shows up
/// as a diff here.
FleetSpec whole_stack_fleet() {
  control::GovernorSpec governor;
  governor.kind = control::GovernorKind::kHysteresis;
  governor.hysteresis.trip_c = 45.0;
  governor.hysteresis.release_c = 43.0;
  governor.hysteresis.hot_probability = 0.4;

  return FleetSpec::racks(10)
      .nodes_per_rack(10)
      .with_machine(lean_machine())
      .with_cooling(1.0, 0.55)
      .with_crac(RackParams{})
      .with_load(1500.0)
      .with_traffic(TrafficShape::diurnal(sim::from_sec(1), 0.6)
                        .with_flash(sim::from_ms(300), sim::from_ms(200), 2.0))
      .with_telemetry(sim::from_ms(50))
      .with_policy(PolicyKind::kCoolestNode)
      .group(8, 2, {.governor = governor});
}

void expect_bit_identical(const ClusterResult& a, const ClusterResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.qos.total, b.qos.total);
  EXPECT_EQ(a.qos.good, b.qos.good);
  EXPECT_EQ(a.qos.fail, b.qos.fail);
  EXPECT_EQ(a.qos.mean_latency_s, b.qos.mean_latency_s);
  EXPECT_EQ(a.qos.p99_latency_s, b.qos.p99_latency_s);
  EXPECT_EQ(a.qos.max_latency_s, b.qos.max_latency_s);
  EXPECT_EQ(a.fleet_peak_sensor_c, b.fleet_peak_sensor_c);
  EXPECT_EQ(a.fleet_peak_exact_c, b.fleet_peak_exact_c);
  EXPECT_EQ(a.fleet_mean_sensor_c, b.fleet_mean_sensor_c);
  EXPECT_EQ(a.fleet_peak_inlet_c, b.fleet_peak_inlet_c);
  EXPECT_EQ(a.drains, b.drains);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_TRUE(a.counters == b.counters);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].routed, b.nodes[i].routed) << "node " << i;
    EXPECT_EQ(a.nodes[i].completed, b.nodes[i].completed) << "node " << i;
    EXPECT_EQ(a.nodes[i].peak_sensor_c, b.nodes[i].peak_sensor_c)
        << "node " << i;
    EXPECT_EQ(a.nodes[i].mean_sensor_c, b.nodes[i].mean_sensor_c)
        << "node " << i;
    EXPECT_EQ(a.nodes[i].drains, b.nodes[i].drains) << "node " << i;
    EXPECT_EQ(a.nodes[i].governor_trips, b.nodes[i].governor_trips)
        << "node " << i;
  }
  EXPECT_EQ(a.stability.osc_amplitude_temp_c, b.stability.osc_amplitude_temp_c);
  EXPECT_EQ(a.stability.settling_time_s, b.stability.settling_time_s);
}

TEST(FleetParallelTest, BitIdenticalAcrossFleetThreadCounts) {
  auto serial = whole_stack_fleet().with_fleet_threads(1).make_cluster();
  ASSERT_EQ(serial->fleet_lanes(), 1u);
  const ClusterResult rs = serial->run(sim::from_sec(1));

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    auto parallel =
        whole_stack_fleet().with_fleet_threads(threads).make_cluster();
    EXPECT_EQ(parallel->fleet_lanes(), threads);
    const ClusterResult rp = parallel->run(sim::from_sec(1));
    expect_bit_identical(rs, rp);
    EXPECT_EQ(serial->machine_advances(), parallel->machine_advances());
  }
}

TEST(FleetParallelTest, ClusterTraceIsIdenticalSerialVsParallel) {
  // Event-for-event equality of the cluster-scope trace: the post-barrier
  // reduction must emit completions, drains and fleet samples in the exact
  // order the serial path does, not merely the same totals.
  const auto trace = [](std::size_t threads) {
    auto sink = std::make_shared<obs::RingBufferSink>();
    auto fleet = whole_stack_fleet()
                     .with_fleet_threads(threads)
                     .with_trace_sink([sink] { return sink; })
                     .make_cluster();
    fleet->run(sim::from_sec(1));
    EXPECT_EQ(sink->dropped(), 0u);
    return sink->snapshot();
  };

  const auto a = trace(1);
  const auto b = trace(8);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << "event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].core, b[i].core) << "event " << i;
    EXPECT_EQ(a[i].tid, b[i].tid) << "event " << i;
    EXPECT_EQ(a[i].arg, b[i].arg) << "event " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "event " << i;
  }
}

TEST(FleetParallelTest, CountersNeverDoubleCountUnderParallelAdvancement) {
  auto fleet = whole_stack_fleet().with_fleet_threads(8).make_cluster();
  const ClusterResult r = fleet->run(sim::from_sec(1));

  // Cluster-scope counters come from the cluster tracer alone; machine
  // counters are summed per node. A lane that fed either twice (or raced an
  // increment away) breaks these identities.
  EXPECT_EQ(r.counters.requests_routed, r.offered);
  EXPECT_EQ(r.qos.total, r.completed);
  // The cluster tracer also counts completions; the fold must leave the
  // machines' count alone.
  EXPECT_EQ(r.counters.requests_completed, r.completed);
  const auto sum = [&](auto field) {
    return std::accumulate(r.nodes.begin(), r.nodes.end(), std::uint64_t{0},
                           [&](std::uint64_t acc, const NodeStats& n) {
                             return acc + field(n);
                           });
  };
  EXPECT_EQ(sum([](const NodeStats& n) { return n.routed; }), r.offered);
  EXPECT_EQ(sum([](const NodeStats& n) { return n.completed; }), r.completed);
  EXPECT_EQ(r.counters.node_drains, r.drains);

  // Lazy-advancement accounting is exact at any lane count: one advance per
  // backlogged arrival plus one per node per post-construction sweep.
  const std::uint64_t sweeps = r.counters.fleet_samples;
  ASSERT_GE(sweeps, 2u);
  EXPECT_EQ(fleet->machine_advances(),
            r.offered + fleet->num_nodes() * (sweeps - 1));
}

TEST(FleetParallelTest, EnvVariableAndConfigPrecedence) {
  ASSERT_EQ(setenv("DIMETRODON_FLEET_THREADS", "2", 1), 0);
  // Env applies when the config leaves the knob on auto...
  auto from_env = whole_stack_fleet().make_cluster();
  EXPECT_EQ(from_env->fleet_lanes(), 2u);
  // ...but an explicit config wins over the environment.
  auto explicit_serial = whole_stack_fleet().with_fleet_threads(1).make_cluster();
  EXPECT_EQ(explicit_serial->fleet_lanes(), 1u);
  ASSERT_EQ(unsetenv("DIMETRODON_FLEET_THREADS"), 0);

  // And the env-parallel run is still bit-identical to serial.
  const ClusterResult re = from_env->run(sim::from_ms(500));
  const ClusterResult rs =
      whole_stack_fleet().with_fleet_threads(1).make_cluster()->run(
          sim::from_ms(500));
  expect_bit_identical(rs, re);
}

TEST(FleetParallelTest, MachineScopeSinkForcesSerialPath) {
  // A machine.trace_sink_factory may hand every node one shared sink;
  // parallel advancement would race it, so the knob is overridden.
  sched::MachineConfig m = lean_machine();
  auto sink = std::make_shared<obs::RingBufferSink>(1024);
  m.trace_sink_factory = [sink] { return sink; };
  auto fleet = whole_stack_fleet()
                   .with_machine(m)
                   .with_fleet_threads(8)
                   .make_cluster();
  EXPECT_EQ(fleet->fleet_lanes(), 1u);
}

// --- the fleet-wide arrival arena -------------------------------------------

/// 3 racks x 4 nodes pushed past saturation, so queues build from the start
/// and a removed node always holds queued requests to re-home.
FleetSpec churn_fleet(std::size_t threads) {
  workload::WebWorkload::Config web = ClusterConfig::open_loop_web();
  web.demand_mean_s = 0.005;
  return FleetSpec::racks(3)
      .nodes_per_rack(4)
      .with_machine(lean_machine())
      .with_web(web)
      .with_cooling(1.0, 0.6)
      .with_crac(RackParams{})
      .with_load(12 * 1100.0)
      .with_telemetry(sim::from_ms(20))
      .with_policy(PolicyKind::kCoolestNode)
      .with_fleet_threads(threads);
}

TEST(FleetParallelTest, ChurnScriptIsBitIdenticalAndLeavesTheArenaEmpty) {
  // Drain, remove with re-homing, warm join and undrain: every admin call
  // flushes the arena, and only admin_remove refills it (with exactly the
  // requests it re-homed) before the next run() replays them.
  const auto churn = [](std::size_t threads) {
    auto c = churn_fleet(threads).make_cluster();
    EXPECT_EQ(c->deferred_arrivals(), 0u);
    const auto run = [&c](sim::SimTime d) {
      ClusterResult r = c->run(d);
      EXPECT_EQ(c->deferred_arrivals(), 0u) << "after run() to " << c->now();
      return r;
    };
    run(sim::from_ms(150));
    c->admin_drain(2);
    EXPECT_EQ(c->deferred_arrivals(), 0u);
    run(sim::from_ms(100));
    const std::uint64_t rehomed_before = c->tracer().counters().requests_rehomed;
    c->admin_remove(5);
    const std::uint64_t rehomed =
        c->tracer().counters().requests_rehomed - rehomed_before;
    EXPECT_GT(rehomed, 0u);
    EXPECT_EQ(c->deferred_arrivals(), rehomed);
    run(sim::from_ms(100));
    NodeSpec joiner;
    joiner.fan_speed_fraction = 0.8;
    c->admin_join(joiner, sim::from_ms(100));
    EXPECT_EQ(c->deferred_arrivals(), 0u);
    run(sim::from_ms(100));
    c->admin_undrain(2);
    EXPECT_EQ(c->deferred_arrivals(), 0u);
    c->admin_set_fan(7, 0.7);
    EXPECT_EQ(c->deferred_arrivals(), 0u);
    return run(sim::from_ms(150));
  };
  const ClusterResult serial = churn(1);
  const ClusterResult parallel = churn(4);
  EXPECT_GT(serial.counters.requests_rehomed, 0u);
  EXPECT_EQ(serial.counters.node_joins, 1u);
  EXPECT_EQ(serial.nodes.size(), 13u);
  EXPECT_GT(serial.nodes[12].routed, 0u);
  expect_bit_identical(serial, parallel);
}

TEST(FleetParallelTest, NodesReplayTheirArrivalsInRouteOrder) {
  // With one worker per node, a node serves its requests strictly FIFO, so
  // its completions (cluster trace, post-barrier) must be a prefix of the
  // requests routed to it, in routing order. A chain that skipped, reordered
  // or crossed into another node's arrivals breaks the prefix.
  workload::WebWorkload::Config web = ClusterConfig::open_loop_web();
  web.workers = 1;
  web.demand_mean_s = 0.002;
  auto sink = std::make_shared<obs::RingBufferSink>();
  auto c = FleetSpec::racks(2)
               .nodes_per_rack(3)
               .with_machine(lean_machine())
               .with_web(web)
               .with_load(6 * 350.0)
               .with_telemetry(sim::from_ms(20))
               .with_policy(PolicyKind::kCoolestNode)
               .with_fleet_threads(4)
               .with_trace_sink([sink] { return sink; })
               .make_cluster();
  c->run(sim::from_ms(600));
  ASSERT_EQ(sink->dropped(), 0u);

  std::map<std::uint32_t, std::uint32_t> node_of;  // request id -> node
  std::vector<std::vector<std::uint32_t>> routed(c->num_nodes());
  std::vector<std::vector<std::uint32_t>> completed(c->num_nodes());
  for (const obs::TraceEvent& e : sink->snapshot()) {
    if (e.kind == obs::EventKind::kRequestRouted) {
      node_of[e.tid] = e.core;
      routed[e.core].push_back(e.tid);
    } else if (e.kind == obs::EventKind::kRequestComplete) {
      ASSERT_TRUE(node_of.count(e.tid)) << "completion before routing";
      completed[node_of[e.tid]].push_back(e.tid);
    }
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < c->num_nodes(); ++i) {
    ASSERT_LE(completed[i].size(), routed[i].size()) << "node " << i;
    EXPECT_GT(completed[i].size(), 50u) << "node " << i;
    for (std::size_t k = 0; k < completed[i].size(); ++k) {
      ASSERT_EQ(completed[i][k], routed[i][k])
          << "node " << i << ", completion " << k;
    }
    total += completed[i].size();
  }
  EXPECT_GT(total, 1000u);
}

}  // namespace
}  // namespace dimetrodon::cluster
