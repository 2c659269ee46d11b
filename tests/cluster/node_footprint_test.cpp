// Costs checked like values: the heap a fleet node holds. A fig9-shaped
// fleet (racks of ten, CRAC coupling, diurnal day with a flash crowd,
// hysteresis governors, coolest-node routing, one lane) is built and run
// while glibc's mallinfo2() reports the bytes in use; the per-node growth
// after construction and after the day must stay inside budgets set at
// about 1.25x the measured footprint. A regression that brings back per-node
// deque buckets, per-node arrival backlogs or an always-open QoS window
// fails here long before it shows up as fleet peak RSS.
#include <malloc.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "cluster/fleet_spec.hpp"
#include "sched/runqueue.hpp"

namespace dimetrodon::cluster {
namespace {

// 64 bucket headers plus the occupancy word: an idle queue owns no heap, and
// ULE keeps one per CPU.
static_assert(sizeof(sched::RunQueue) <= 2048);

constexpr std::size_t kRacks = 10;
constexpr std::size_t kPerRack = 10;
constexpr std::size_t kNodes = kRacks * kPerRack;

std::size_t heap_in_use() {
  return static_cast<std::size_t>(mallinfo2().uordblks);
}

FleetSpec fig9_shaped_fleet() {
  sched::MachineConfig base;
  base.enable_meter = false;
  workload::WebWorkload::Config web = ClusterConfig::open_loop_web();
  web.demand_mean_s = 0.0050;
  const sim::SimTime day = sim::from_ms(400);
  control::GovernorSpec governor;
  governor.kind = control::GovernorKind::kHysteresis;
  governor.hysteresis.trip_c = 46.0;
  governor.hysteresis.release_c = 43.0;
  governor.hysteresis.hot_probability = 0.5;
  return FleetSpec::racks(kRacks)
      .nodes_per_rack(kPerRack)
      .with_machine(base)
      .with_web(web)
      .with_cooling(0.9, 0.5)
      .with_crac(RackParams{})
      .with_load(600.0 * static_cast<double>(kNodes))
      .with_traffic(TrafficShape::diurnal(day, 0.6)
                        .with_flash(day * 5 / 8, day / 8, 1.8))
      .with_telemetry(sim::from_ms(20))
      .with_policy(PolicyKind::kCoolestNode, 0.25)
      .with_governor(governor)
      .with_fleet_threads(1)
      .for_duration(day);
}

// Per-node budgets, KB of heap in use per node (mallinfo2 uordblks delta
// over the fleet, divided by its node count). Measured on this fleet with
// glibc 2.36 / libstdc++ 12, x86-64: 13.1 KB built and 22.9 KB after the
// day. Before the bitmap run queue, the fleet-wide arrival arena and the
// closed node QoS window the same fleet held 73.2 and 90.6 KB.
constexpr double kBuiltBudgetKb = 16.5;
constexpr double kDayBudgetKb = 29.0;

TEST(NodeFootprintTest, FleetNodeHeapStaysWithinBudget) {
  const FleetSpec spec = fig9_shaped_fleet();
  const std::size_t before = heap_in_use();
  std::unique_ptr<Cluster> c = spec.make_cluster();
  const std::size_t built = heap_in_use();
  if (built <= before) {
    GTEST_SKIP() << "mallinfo2 does not see this allocator (sanitizer build)";
  }
  const ClusterResult r = c->run(sim::from_ms(400));
  const std::size_t after_day = heap_in_use();
  ASSERT_GT(r.completed, 10000u);  // the day really ran

  const auto per_node_kb = [](std::size_t bytes) {
    return static_cast<double>(bytes) / 1024.0 / static_cast<double>(kNodes);
  };
  const double built_kb = per_node_kb(built - before);
  const double day_kb = per_node_kb(after_day > before ? after_day - before : 0);
  EXPECT_LE(built_kb, kBuiltBudgetKb) << "heap per node after construction";
  EXPECT_LE(day_kb, kDayBudgetKb) << "heap per node after the day";

  // The cluster never opens a node's QoS window, so no node pays for the
  // window's latency histogram; the fleet histogram is the only one.
  for (std::size_t i = 0; i < c->num_nodes(); ++i) {
    EXPECT_FALSE(c->web(i).window_histogram().has_buckets()) << "node " << i;
    EXPECT_EQ(c->web(i).stats_since_mark().total, 0u) << "node " << i;
  }
}

}  // namespace
}  // namespace dimetrodon::cluster
