#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fleet_spec.hpp"
#include "obs/trace_sink.hpp"
#include "runner/sweep_engine.hpp"

namespace dimetrodon::cluster {
namespace {

/// Owning test double for the SoA FleetView: chain node() calls, then hand
/// view() to a policy. Nodes marked unroutable stay in the arrays (the view
/// indexes by node id) but drop out of the routable list, exactly like a
/// draining node in the real cluster.
class TestFleet {
 public:
  TestFleet& node(double temp_c, std::uint32_t outstanding, double p = 0.0,
                  bool routable = true) {
    const auto id = static_cast<std::uint32_t>(temp_.size());
    if (routable) routable_.push_back(id);
    temp_.push_back(temp_c);
    out_.push_back(outstanding);
    p_.push_back(p);
    drain_.push_back(routable ? 0 : 1);
    return *this;
  }

  FleetView view() const {
    FleetView v;
    v.num_nodes = temp_.size();
    v.sensor_temp_c = temp_.data();
    v.outstanding = out_.data();
    v.injection_probability = p_.data();
    v.draining = drain_.data();
    v.routable = routable_.data();
    v.routable_count = routable_.size();
    return v;
  }

 private:
  std::vector<double> temp_;
  std::vector<std::uint32_t> out_;
  std::vector<double> p_;
  std::vector<std::uint8_t> drain_;
  std::vector<std::uint32_t> routable_;
};

// --- policy unit tests ------------------------------------------------------

TEST(LoadBalancerTest, RoundRobinCycles) {
  auto lb = make_policy(PolicyKind::kRoundRobin);
  TestFleet f;
  f.node(40, 0).node(40, 0).node(40, 0);
  EXPECT_EQ(lb->pick(f.view()), 0u);
  EXPECT_EQ(lb->pick(f.view()), 1u);
  EXPECT_EQ(lb->pick(f.view()), 2u);
  EXPECT_EQ(lb->pick(f.view()), 0u);  // wraps
}

TEST(LoadBalancerTest, RoundRobinSkipsDrainedWithoutResetting) {
  auto lb = make_policy(PolicyKind::kRoundRobin);
  TestFleet all;
  all.node(40, 0).node(40, 0).node(40, 0);
  EXPECT_EQ(lb->pick(all.view()), 0u);
  // Node 1 drained out of the routable set: the rotation continues past it.
  TestFleet without1;
  without1.node(40, 0).node(40, 0, 0.0, false).node(40, 0);
  EXPECT_EQ(lb->pick(without1.view()), 2u);
  EXPECT_EQ(lb->pick(all.view()), 0u);
}

TEST(LoadBalancerTest, LeastOutstandingPicksEmptiestQueue) {
  auto lb = make_policy(PolicyKind::kLeastOutstanding);
  TestFleet a;
  a.node(40, 5).node(40, 2).node(40, 9);
  EXPECT_EQ(lb->pick(a.view()), 1u);
  // Ties break toward the cooler node, then the lower id.
  TestFleet b;
  b.node(44, 3).node(41, 3).node(44, 3);
  EXPECT_EQ(lb->pick(b.view()), 1u);
  TestFleet c;
  c.node(40, 3).node(40, 3);
  EXPECT_EQ(lb->pick(c.view()), 0u);
}

TEST(LoadBalancerTest, CoolestNodeRoutesOnQuantizedTelemetry) {
  auto lb = make_policy(PolicyKind::kCoolestNode);
  TestFleet a;
  a.node(45, 0).node(41, 7).node(43, 0);
  EXPECT_EQ(lb->pick(a.view()), 1u);
  // Equal quantized readings fall through to the queue-depth tie-break.
  TestFleet b;
  b.node(42, 6).node(42, 1).node(42, 6);
  EXPECT_EQ(lb->pick(b.view()), 1u);
}

TEST(LoadBalancerTest, InjectionAwareDeprioritizesAboveThreshold) {
  auto lb = make_policy(PolicyKind::kInjectionAware, 0.25);
  // Idle fleet: the un-injected tier wins even when a taxed node is cooler.
  TestFleet a;
  a.node(45, 0, 0.0).node(40, 0, 0.6);
  EXPECT_EQ(lb->pick(a.view()), 0u);
  // Below-threshold injection is not deprioritized.
  TestFleet b;
  b.node(45, 0, 0.2).node(40, 0, 0.1);
  EXPECT_EQ(lb->pick(b.view()), 1u);
  // Under load the taxed node still takes its capacity-weighted share:
  // 8 outstanding at full capacity scores worse than 2 at (1 - 0.6).
  TestFleet c;
  c.node(40, 8, 0.0).node(44, 2, 0.6);
  EXPECT_EQ(lb->pick(c.view()), 1u);
  // All above threshold: degrade to capacity-weighted, never refuse.
  TestFleet d;
  d.node(40, 4, 0.5).node(40, 1, 0.5);
  EXPECT_EQ(lb->pick(d.view()), 1u);
}

TEST(LoadBalancerTest, PoliciesScanOnlyTheRoutableList) {
  // A scorching, empty, but draining node must never be picked even though
  // its SoA entries look ideal — policies only walk the routable ids.
  for (const auto kind :
       {PolicyKind::kLeastOutstanding, PolicyKind::kCoolestNode,
        PolicyKind::kInjectionAware}) {
    auto lb = make_policy(kind);
    TestFleet f;
    f.node(30, 0, 0.0, false).node(50, 9).node(52, 9);
    EXPECT_EQ(lb->pick(f.view()), 1u) << policy_name(kind);
  }
}

TEST(LoadBalancerTest, PolicyNamesStable) {
  EXPECT_STREQ(policy_name(PolicyKind::kRoundRobin), "round-robin");
  EXPECT_STREQ(policy_name(PolicyKind::kLeastOutstanding),
               "least-outstanding");
  EXPECT_STREQ(policy_name(PolicyKind::kCoolestNode), "coolest-node");
  EXPECT_STREQ(policy_name(PolicyKind::kInjectionAware), "injection-aware");
  for (const auto kind :
       {PolicyKind::kRoundRobin, PolicyKind::kLeastOutstanding,
        PolicyKind::kCoolestNode, PolicyKind::kInjectionAware}) {
    EXPECT_STREQ(make_policy(kind)->name(), policy_name(kind));
  }
}

// --- cluster integration ----------------------------------------------------

FleetSpec small_fleet(double load_rps = 400.0) {
  sched::MachineConfig machine;
  machine.enable_meter = false;
  // Fans 1.0 / 0.8 / 0.6 via the cooling gradient; node 2 runs p=0.3.
  return FleetSpec::racks(1)
      .nodes_per_rack(3)
      .with_machine(machine)
      .with_cooling(1.0, 0.6)
      .with_load(load_rps)
      .override_position(2, {.injection_probability = 0.3});
}

void expect_same_result(const ClusterResult& a, const ClusterResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.qos.total, b.qos.total);
  EXPECT_EQ(a.qos.mean_latency_s, b.qos.mean_latency_s);
  EXPECT_EQ(a.qos.p50_latency_s, b.qos.p50_latency_s);
  EXPECT_EQ(a.qos.p95_latency_s, b.qos.p95_latency_s);
  EXPECT_EQ(a.qos.p99_latency_s, b.qos.p99_latency_s);
  EXPECT_EQ(a.qos.max_latency_s, b.qos.max_latency_s);
  EXPECT_EQ(a.fleet_peak_sensor_c, b.fleet_peak_sensor_c);
  EXPECT_EQ(a.fleet_peak_exact_c, b.fleet_peak_exact_c);
  EXPECT_EQ(a.fleet_mean_sensor_c, b.fleet_mean_sensor_c);
  EXPECT_EQ(a.fleet_peak_inlet_c, b.fleet_peak_inlet_c);
  EXPECT_EQ(a.drains, b.drains);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].routed, b.nodes[i].routed);
    EXPECT_EQ(a.nodes[i].completed, b.nodes[i].completed);
    EXPECT_EQ(a.nodes[i].peak_sensor_c, b.nodes[i].peak_sensor_c);
  }
  EXPECT_TRUE(a.counters == b.counters);
}

TEST(ClusterTest, RunIsBitReproducible) {
  const auto run_once = [] {
    auto fleet = small_fleet().with_policy(PolicyKind::kCoolestNode)
                     .make_cluster();
    return fleet->run(sim::from_sec(4));
  };
  expect_same_result(run_once(), run_once());
}

TEST(ClusterTest, SeedChangesTheRun) {
  const std::uint64_t base_seed = small_fleet().config().seed;
  auto fa = small_fleet().make_cluster();
  auto fb = small_fleet().with_seed(base_seed + 1).make_cluster();
  const auto ra = fa->run(sim::from_sec(4));
  const auto rb = fb->run(sim::from_sec(4));
  EXPECT_NE(ra.qos.mean_latency_s, rb.qos.mean_latency_s);
}

TEST(ClusterTest, NodesGetIndependentMachineSeeds) {
  auto fleet = small_fleet().make_cluster();
  ASSERT_EQ(fleet->num_nodes(), 3u);
  EXPECT_NE(fleet->machine(0).config().seed, fleet->machine(1).config().seed);
  EXPECT_NE(fleet->machine(1).config().seed, fleet->machine(2).config().seed);
}

TEST(ClusterTest, RoundRobinSpreadsLoadEvenly) {
  auto fleet = small_fleet().make_cluster();
  const auto r = fleet->run(sim::from_sec(4));
  ASSERT_EQ(r.nodes.size(), 3u);
  EXPECT_GT(r.offered, 1000u);
  std::uint64_t lo = r.nodes[0].routed, hi = r.nodes[0].routed;
  for (const auto& n : r.nodes) {
    lo = std::min(lo, n.routed);
    hi = std::max(hi, n.routed);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ClusterTest, AllRoutedRequestsEventuallyComplete) {
  auto fleet = small_fleet(200.0)
                   .with_policy(PolicyKind::kLeastOutstanding)
                   .make_cluster();
  const auto r = fleet->run(sim::from_sec(4));
  // Light load: everything routed before the tail should finish; allow the
  // few requests still in flight at the horizon.
  EXPECT_GT(r.completed, 0u);
  EXPECT_GE(r.offered, r.completed);
  EXPECT_LE(r.offered - r.completed, 32u);
  EXPECT_EQ(r.qos.total, r.completed);
  EXPECT_EQ(r.counters.requests_routed, r.offered);
  // Percentiles populated and ordered.
  EXPECT_GT(r.qos.p50_latency_s, 0.0);
  EXPECT_LE(r.qos.p50_latency_s, r.qos.p95_latency_s);
  EXPECT_LE(r.qos.p95_latency_s, r.qos.p99_latency_s);
  EXPECT_LE(r.qos.p99_latency_s, r.qos.max_latency_s);
}

TEST(ClusterTest, BatchedTelemetryEmitsOneFleetSamplePerSweep) {
  auto sink = std::make_shared<obs::RingBufferSink>();
  auto fleet = small_fleet()
                   .with_telemetry(sim::from_ms(50))
                   .with_trace_sink([sink] { return sink; })
                   .make_cluster();
  const auto r = fleet->run(sim::from_sec(2));
  // One batched fleet_sample per sweep: construction + 40 ticks + final.
  EXPECT_EQ(r.counters.fleet_samples, 42u);
  std::uint64_t events = 0;
  for (const auto& e : sink->snapshot()) {
    if (e.kind == obs::EventKind::kFleetSample) {
      ++events;
      EXPECT_EQ(e.arg, 3u);       // fleet size rides in arg
      EXPECT_GT(e.value, 20.0);   // hottest quantized sensor
    }
  }
  EXPECT_EQ(events, r.counters.fleet_samples);
}

TEST(ClusterTest, LazyAdvancementTouchesOnlyTheRoutedNode) {
  // machine_advances counts run_until interactions: lazy advancement makes
  // it arrivals + nodes * sweeps, NOT arrivals * nodes (the old design).
  auto fleet = small_fleet(400.0).make_cluster();
  const auto r = fleet->run(sim::from_sec(4));
  const std::uint64_t sweeps = r.counters.fleet_samples - 1;  // minus t=0
  EXPECT_EQ(fleet->machine_advances(), r.offered + 3 * sweeps);
  EXPECT_LT(fleet->machine_advances(), 3 * r.offered);
  // The coordination timeline itself is O(1) in fleet size.
  EXPECT_EQ(fleet->timeline_entries(), 2u);
}

TEST(ClusterTest, InjectionAwareShiftsLoadOffInjectedNode) {
  auto fleet = small_fleet(600.0)
                   .with_policy(PolicyKind::kInjectionAware, 0.25)
                   .make_cluster();
  const auto r = fleet->run(sim::from_sec(4));
  // Node 2 runs p=0.3 injection (> threshold): it must receive strictly
  // less traffic than each un-injected node.
  EXPECT_LT(r.nodes[2].routed, r.nodes[0].routed);
  EXPECT_LT(r.nodes[2].routed, r.nodes[1].routed);
  EXPECT_GT(r.nodes[2].routed, 0u);  // deprioritized, not starved
}

TEST(ClusterTest, ProchotFailoverDrainsTrippedNode) {
  sched::MachineConfig machine;
  machine.enable_meter = false;
  // Thermal monitor tuned to trip just above the loaded temperature so the
  // badly cooled node PROCHOTs quickly under traffic.
  machine.prochot_c = 42.0;
  machine.prochot_release_c = 41.0;
  auto sink = std::make_shared<obs::RingBufferSink>();
  auto fleet = FleetSpec::racks(1)
                   .nodes_per_rack(2)
                   .with_machine(machine)
                   .with_cooling(1.0, 0.4)
                   .with_load(1200.0)
                   .with_trace_sink([sink] { return sink; })
                   .make_cluster();
  const auto r = fleet->run(sim::from_sec(8));

  EXPECT_GE(r.drains, 1u);
  EXPECT_EQ(r.counters.node_drains, r.drains);
  EXPECT_GT(r.nodes[1].drains, 0u);
  // Failover: the drained node ends up with less traffic than round-robin's
  // even split.
  EXPECT_LT(r.nodes[1].routed, r.nodes[0].routed);

  // The cluster tracer recorded the drain transitions and every routing
  // decision.
  std::uint64_t drain_events = 0;
  std::uint64_t routed_events = 0;
  for (const auto& e : sink->snapshot()) {
    if (e.kind == obs::EventKind::kNodeDrain && e.arg == 1) ++drain_events;
    if (e.kind == obs::EventKind::kRequestRouted) ++routed_events;
  }
  EXPECT_EQ(drain_events, r.drains);
  EXPECT_EQ(sink->dropped(), 0u);  // well under default ring capacity
  EXPECT_EQ(routed_events, r.offered);
}

TEST(ClusterTest, WholeFleetDrainingStillRoutes) {
  sched::MachineConfig machine;
  machine.enable_meter = false;
  machine.prochot_c = 40.0;  // below loaded temps: both nodes trip
  machine.prochot_release_c = 39.5;
  auto fleet = FleetSpec::racks(1)
                   .nodes_per_rack(2)
                   .with_machine(machine)
                   .with_cooling(0.5, 0.5)
                   .with_load(800.0)
                   .with_policy(PolicyKind::kLeastOutstanding)
                   .make_cluster();
  const auto r = fleet->run(sim::from_sec(6));
  // Even with every node tripped, requests keep flowing (degraded service
  // beats dropped requests).
  EXPECT_EQ(r.counters.requests_routed, r.offered);
  EXPECT_GT(r.completed, 0u);
}

TEST(ClusterTest, EmptyFleetIsRejected) {
  ClusterConfig cfg;  // nodes default-empty: fleets must be built explicitly
  EXPECT_THROW(Cluster(cfg, make_policy(PolicyKind::kRoundRobin)),
               std::invalid_argument);
}

// --- sweep-engine bridge ----------------------------------------------------

ClusterRunSpec bridge_spec(PolicyKind policy) {
  return small_fleet().with_policy(policy).for_duration(sim::from_sec(3))
      .build();
}

runner::SweepEngineConfig quiet(std::size_t threads, std::string cache_dir) {
  runner::SweepEngineConfig cfg;
  cfg.threads = threads;
  cfg.use_cache = !cache_dir.empty();
  cfg.cache_dir = std::move(cache_dir);
  cfg.progress = false;
  return cfg;
}

std::vector<runner::RunSpec> bridge_grid() {
  return {to_run_spec(bridge_spec(PolicyKind::kRoundRobin)),
          to_run_spec(bridge_spec(PolicyKind::kCoolestNode)),
          to_run_spec(bridge_spec(PolicyKind::kInjectionAware))};
}

void expect_same_record(const runner::RunRecord& a,
                        const runner::RunRecord& b) {
  EXPECT_EQ(a.result.label, b.result.label);
  EXPECT_EQ(a.result.throughput, b.result.throughput);
  EXPECT_EQ(a.result.sim_seconds, b.result.sim_seconds);
  ASSERT_TRUE(a.result.qos.has_value());
  ASSERT_TRUE(b.result.qos.has_value());
  EXPECT_EQ(a.result.qos->total, b.result.qos->total);
  EXPECT_EQ(a.result.qos->mean_latency_s, b.result.qos->mean_latency_s);
  EXPECT_EQ(a.result.qos->p50_latency_s, b.result.qos->p50_latency_s);
  EXPECT_EQ(a.result.qos->p95_latency_s, b.result.qos->p95_latency_s);
  EXPECT_EQ(a.result.qos->p99_latency_s, b.result.qos->p99_latency_s);
  EXPECT_TRUE(a.result.counters == b.result.counters);
  EXPECT_EQ(a.extra, b.extra);
}

TEST(ClusterSweepTest, ThreadCountDoesNotChangeResults) {
  // The cluster determinism invariant end-to-end: a sweep of cluster runs is
  // bit-identical on 1 and 4 threads.
  runner::SweepEngine serial(sched::MachineConfig{}, quiet(1, ""));
  runner::SweepEngine parallel(sched::MachineConfig{}, quiet(4, ""));
  const auto grid = bridge_grid();
  const auto rs = serial.run(grid);
  const auto rp = parallel.run(grid);
  ASSERT_EQ(rs.records.size(), grid.size());
  ASSERT_EQ(rp.records.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_record(rs.records[i], rp.records[i]);
  }
}

TEST(ClusterSweepTest, ClusterRunsRoundTripThroughCache) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "dimetrodon_cluster_cache_test";
  std::filesystem::remove_all(dir);
  runner::SweepEngine engine(sched::MachineConfig{}, quiet(2, dir.string()));
  const auto grid = bridge_grid();

  const auto cold = engine.run(grid);
  EXPECT_EQ(engine.last_metrics().executed, grid.size());
  const auto warm = engine.run(grid);
  EXPECT_EQ(engine.last_metrics().executed, 0u);
  EXPECT_EQ(engine.last_metrics().cache_hits, grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_record(cold.records[i], warm.records[i]);
    // RunResult.qos is populated for cluster runs, straight from the cache.
    EXPECT_GT(warm.records[i].result.qos->total, 0u);
    EXPECT_GT(warm.records[i].metric("fleet_peak_sensor_c"), 0.0);
  }
  std::filesystem::remove_all(dir);
}

TEST(ClusterSweepTest, CanonicalTagDistinguishesClusterParameters) {
  const auto base = bridge_spec(PolicyKind::kRoundRobin);
  auto policy = base;
  policy.policy = PolicyKind::kCoolestNode;
  auto load = base;
  load.cluster.offered_load_rps += 1.0;
  auto fans = base;
  fans.cluster.nodes[1].fan_speed_fraction = 0.79;
  auto inj = base;
  inj.cluster.nodes[2].injection_probability = 0.31;
  auto traffic = base;
  traffic.cluster.traffic =
      TrafficShape::diurnal(sim::from_sec(4), 0.5);
  auto rack = base;
  rack.cluster.rack.nodes_per_rack = 3;
  const std::string tag = canonical_cluster_tag(base);
  EXPECT_NE(tag, canonical_cluster_tag(policy));
  EXPECT_NE(tag, canonical_cluster_tag(load));
  EXPECT_NE(tag, canonical_cluster_tag(fans));
  EXPECT_NE(tag, canonical_cluster_tag(inj));
  EXPECT_NE(tag, canonical_cluster_tag(traffic));
  EXPECT_NE(tag, canonical_cluster_tag(rack));
}

// --- admin churn surface (scenario directives) ------------------------------

TEST(ClusterAdminTest, DrainUndrainMovesTrafficAndRestoresIt) {
  auto fleet = small_fleet(600.0).make_cluster();
  fleet->run(sim::from_sec(1));
  fleet->admin_drain(0);
  EXPECT_EQ(fleet->admin_state(0), Cluster::AdminState::kDrained);
  EXPECT_THROW(fleet->admin_drain(0), std::invalid_argument);  // not kActive
  const auto mid = fleet->run(sim::from_sec(2));
  const auto frozen = mid.nodes[0].routed;
  fleet->admin_undrain(0);
  const auto after = fleet->run(sim::from_sec(2));
  EXPECT_EQ(mid.nodes[0].routed, frozen);   // no traffic while drained
  EXPECT_GT(after.nodes[0].routed, frozen); // traffic resumes after undrain
  EXPECT_EQ(after.counters.requests_shed, 0u);
}

// Regression: a node PROCHOT-tripping while another node is under operator
// drain used to re-admit the drained node through the whole-fleet-tripped
// routing fallback. The admin drain must hold: the PROCHOT node (still
// administratively active) absorbs the traffic instead.
TEST(ClusterAdminTest, ProchotDuringAdminDrainNeverReadmitsTheDrainedNode) {
  sched::MachineConfig machine;
  machine.enable_meter = false;
  machine.prochot_c = 40.0;  // below loaded temps: the survivor trips
  machine.prochot_release_c = 39.5;
  auto fleet = FleetSpec::racks(1)
                   .nodes_per_rack(2)
                   .with_machine(machine)
                   .with_cooling(0.5, 0.5)
                   .with_load(800.0)
                   .make_cluster();
  fleet->run(sim::from_ms(500));
  fleet->admin_drain(0);
  const auto mid = fleet->run(sim::from_ms(100));
  const auto frozen = mid.nodes[0].routed;
  const auto r = fleet->run(sim::from_sec(5));
  // The surviving node tripped PROCHOT while node 0 sat in operator drain...
  EXPECT_GT(r.nodes[1].drains, 0u);
  // ...yet the drained node never saw another request, nothing was shed,
  // and the throttling active node kept serving.
  EXPECT_EQ(r.nodes[0].routed, frozen);
  EXPECT_EQ(r.counters.requests_shed, 0u);
  EXPECT_GT(r.nodes[1].routed, frozen);
}

TEST(ClusterAdminTest, DrainingTheWholeFleetShedsLoudly) {
  auto fleet = small_fleet(600.0).make_cluster();
  fleet->run(sim::from_ms(500));
  for (std::size_t i = 0; i < fleet->num_nodes(); ++i) fleet->admin_drain(i);
  const auto r = fleet->run(sim::from_sec(1));
  // No active node anywhere: arrivals are shed and counted, not lost.
  EXPECT_GT(r.counters.requests_shed, 0u);
  for (std::size_t i = 0; i < fleet->num_nodes(); ++i) {
    EXPECT_EQ(fleet->admin_state(i), Cluster::AdminState::kDrained);
  }
}

TEST(ClusterAdminTest, RemoveDetachesOnceQueueDrainsAndJoinReplaces) {
  auto fleet = small_fleet(600.0).make_cluster();
  fleet->run(sim::from_sec(1));
  fleet->admin_remove(1);
  fleet->run(sim::from_sec(1));
  EXPECT_EQ(fleet->admin_state(1), Cluster::AdminState::kDetached);
  const std::size_t id = fleet->admin_join({.fan_speed_fraction = 0.9},
                                           /*warmup=*/sim::from_ms(500));
  EXPECT_EQ(id, 3u);  // node ids are append-only
  const auto r = fleet->run(sim::from_sec(2));
  EXPECT_EQ(r.counters.node_joins, 1u);
  EXPECT_EQ(r.counters.node_removals, 1u);
  EXPECT_GT(r.nodes[3].routed, 0u);       // the joiner serves traffic
  // The detached machine stays frozen: no further work lands on it.
  EXPECT_EQ(fleet->admin_state(1), Cluster::AdminState::kDetached);
}

/// The kNodeJoin event of a fig10-shaped churn join: 2x2 racks on the CRAC
/// loop with fig10's compressed thermal constants, open-loop web, an
/// injecting or governed fleet, and a fan-0.85 joiner warmed for 500 ms.
obs::TraceEvent fig10_shaped_join(bool meter, bool governed) {
  sched::MachineConfig machine;
  machine.enable_meter = meter;
  machine.floorplan.hs_capacitance = 15.0;
  machine.prochot_c = 62.0;
  machine.prochot_release_c = 55.0;
  workload::WebWorkload::Config web = ClusterConfig::open_loop_web();
  web.demand_mean_s = 0.005;
  control::GovernorSpec governor;
  governor.kind = control::GovernorKind::kHysteresis;
  auto sink = std::make_shared<obs::RingBufferSink>();
  FleetSpec spec = FleetSpec::racks(2)
                       .nodes_per_rack(2)
                       .with_machine(machine)
                       .with_web(web)
                       .with_cooling(0.9, 0.55)
                       .with_crac(RackParams{})
                       .with_load(600.0)
                       .with_telemetry(sim::from_ms(20))
                       .with_trace_sink([sink] { return sink; });
  NodeSpec joiner;
  joiner.fan_speed_fraction = 0.85;
  if (governed) {
    spec.with_governor(governor);
    joiner.governor = governor;
  } else {
    spec.with_injection_gradient(0.5);
    joiner.injection_probability = 0.3;
  }
  auto fleet = spec.make_cluster();
  fleet->run(sim::from_sec(1));
  fleet->admin_join(joiner, sim::from_ms(500));
  for (const obs::TraceEvent& e : sink->snapshot()) {
    if (e.kind == obs::EventKind::kNodeJoin) return e;
  }
  ADD_FAILURE() << "no kNodeJoin event";
  return {};
}

TEST(ClusterAdminTest, Fig10ShapedJoinFallsBackColdOnlyOnASnapshotRefusal) {
  // A refused snapshot is the one way to a cold join; any other error would
  // propagate out of admin_join. Two refusals reach a fig10-shaped join:
  // the power meter (a precondition) and, with the meter off, the web
  // workload, whose threads keep their queues in the workload object and so
  // have no snapshot support. Every Cluster node runs that workload, so its
  // joins are cold until WebWorkload can be snapshotted; this test then
  // flips to expect arg == 1 with the meter off.
  sched::MachineConfig mc;
  mc.enable_meter = false;
  sched::Machine web_node(mc);
  workload::WebWorkload web(ClusterConfig::open_loop_web());
  web.deploy(web_node);
  web_node.run_until(sim::from_ms(500));
  EXPECT_THROW(web_node.snapshot(), sched::SnapshotUnsupported);
  mc.enable_meter = true;
  sched::Machine metered(mc);
  EXPECT_THROW(metered.snapshot(), sched::SnapshotUnsupported);

  for (const bool governed : {false, true}) {
    for (const bool meter : {false, true}) {
      const obs::TraceEvent join = fig10_shaped_join(meter, governed);
      EXPECT_EQ(join.arg, 0u) << "governed " << governed << " meter " << meter;
      EXPECT_EQ(join.core, 4u);
      EXPECT_DOUBLE_EQ(join.value, 0.5);  // the warmup span asked for
    }
  }
}

}  // namespace
}  // namespace dimetrodon::cluster
