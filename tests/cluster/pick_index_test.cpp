// Differential and cost tests for the ordered policies' tournament-tree
// index: every pick must equal a linear scan of the routable set, and a
// tracked view must rebuild the index once per revision, not once per pick.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fleet_spec.hpp"
#include "cluster/load_balancer.hpp"
#include "sim/rng.hpp"

namespace dimetrodon::cluster {
namespace {

constexpr double kThreshold = 0.25;

constexpr std::array<PolicyKind, 3> kIndexedKinds = {
    PolicyKind::kLeastOutstanding, PolicyKind::kCoolestNode,
    PolicyKind::kInjectionAware};

// --- scan oracle --------------------------------------------------------------
// The policies' reference semantics: walk the routable ids in ascending
// order and displace the incumbent only on a strictly better key.

bool less_loaded(const FleetView& f, std::uint32_t a, std::uint32_t b) {
  if (f.outstanding[a] != f.outstanding[b]) {
    return f.outstanding[a] < f.outstanding[b];
  }
  return f.sensor_temp_c[a] < f.sensor_temp_c[b];
}

bool cooler(const FleetView& f, std::uint32_t a, std::uint32_t b) {
  if (f.sensor_temp_c[a] != f.sensor_temp_c[b]) {
    return f.sensor_temp_c[a] < f.sensor_temp_c[b];
  }
  return f.outstanding[a] < f.outstanding[b];
}

double injection_score(const FleetView& f, std::uint32_t id, double threshold) {
  const double p = f.injection_probability[id];
  const double capacity = p <= threshold ? 1.0 : std::max(0.05, 1.0 - p);
  return static_cast<double>(f.outstanding[id]) / capacity;
}

bool injection_prefer(const FleetView& f, std::uint32_t a, std::uint32_t b,
                      double threshold) {
  const bool a_light = f.injection_probability[a] <= threshold;
  const bool b_light = f.injection_probability[b] <= threshold;
  if (a_light != b_light) return a_light;
  return cooler(f, a, b);
}

std::size_t scan_pick(PolicyKind kind, const FleetView& f, double threshold) {
  std::uint32_t best = f.routable[0];
  for (std::size_t i = 1; i < f.routable_count; ++i) {
    const std::uint32_t id = f.routable[i];
    bool better = false;
    switch (kind) {
      case PolicyKind::kLeastOutstanding:
        better = less_loaded(f, id, best);
        break;
      case PolicyKind::kCoolestNode:
        better = cooler(f, id, best);
        break;
      case PolicyKind::kInjectionAware: {
        const double s = injection_score(f, id, threshold);
        const double b = injection_score(f, best, threshold);
        better = s < b || (s == b && injection_prefer(f, id, best, threshold));
        break;
      }
      case PolicyKind::kRoundRobin:
        ADD_FAILURE() << "round-robin has no scan oracle";
        break;
    }
    if (better) best = id;
  }
  return best;
}

/// Mirrors the policy's documented rebuild rule from the outside: a pick
/// rebuilds when its view is untracked or carries a revision other than the
/// previous pick's.
class RebuildCounter {
 public:
  void on_pick(std::uint64_t revision) {
    if (revision == 0 || revision != last_) ++expected_;
    last_ = revision;
  }
  std::uint64_t expected() const { return expected_; }

 private:
  std::uint64_t last_ = 0;
  std::uint64_t expected_ = 0;
};

// --- randomized differential test ---------------------------------------------

/// A mutable SoA fleet with the Cluster's bookkeeping rules: outstanding
/// changes are either logged in `touched` or followed by a revision bump;
/// every other change bumps. Whole-degree temperatures, small queues and
/// injection probabilities around the threshold make key ties common.
class RandomFleet {
 public:
  RandomFleet(std::size_t n, sim::Rng& rng) : rng_(rng) {
    for (std::size_t i = 0; i < n; ++i) add_node();
    reroute();
  }

  FleetView view(bool tracked) const {
    FleetView v;
    v.num_nodes = temp_.size();
    v.sensor_temp_c = temp_.data();
    v.outstanding = out_.data();
    v.injection_probability = p_.data();
    v.draining = drain_.data();
    v.routable = routable_.data();
    v.routable_count = routable_.size();
    if (tracked) {
      v.revision = revision_;
      v.touched = touched_.data();
      v.touched_count = touched_.size();
    }
    return v;
  }

  std::size_t size() const { return temp_.size(); }
  std::uint32_t random_node() {
    return static_cast<std::uint32_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(size()) - 1));
  }
  std::uint32_t random_routable() {
    return routable_[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(routable_.size()) - 1))];
  }

  /// A routed request: the count is current and logged.
  void increment(std::uint32_t id) {
    ++out_[id];
    touched_.push_back(id);
  }
  /// A logged decrement (a re-homed request leaving its node).
  void logged_decrement(std::uint32_t id) {
    if (out_[id] > 0) --out_[id];
    touched_.push_back(id);
  }
  /// Completions drained at a sweep: unlogged, then the sweep's bump.
  void complete_some() {
    const int k = static_cast<int>(rng_.uniform_int(1, 8));
    for (int j = 0; j < k; ++j) {
      const std::uint32_t id = random_node();
      if (out_[id] > 0) --out_[id];
    }
    bump();
  }
  void retemp_some() {
    for (std::size_t j = 0; j <= size() / 10; ++j) {
      temp_[random_node()] = random_temp();
    }
    bump();
  }
  void toggle_drains() {
    const int k = static_cast<int>(rng_.uniform_int(1, 3));
    for (int j = 0; j < k; ++j) {
      const std::uint32_t id = random_node();
      drain_[id] = drain_[id] != 0 ? 0 : 1;
    }
    reroute();
  }
  void set_injection() {
    p_[random_node()] = random_p();
    bump();
  }
  void join() {
    add_node();
    reroute();
  }

 private:
  double random_temp() { return static_cast<double>(rng_.uniform_int(40, 46)); }
  double random_p() {
    static constexpr std::array<double, 7> kP = {0.0,  0.1, kThreshold, 0.26,
                                                 0.45, 0.6, 0.97};
    return kP[static_cast<std::size_t>(rng_.uniform_int(0, kP.size() - 1))];
  }
  void add_node() {
    temp_.push_back(random_temp());
    out_.push_back(static_cast<std::uint32_t>(rng_.uniform_int(0, 3)));
    p_.push_back(random_p());
    drain_.push_back(rng_.bernoulli(0.1) ? 1 : 0);
  }
  /// Routable = not draining; everything when the whole fleet drains.
  void reroute() {
    routable_.clear();
    for (std::uint32_t i = 0; i < size(); ++i) {
      if (drain_[i] == 0) routable_.push_back(i);
    }
    if (routable_.empty()) {
      for (std::uint32_t i = 0; i < size(); ++i) routable_.push_back(i);
    }
    bump();
  }
  void bump() {
    ++revision_;
    touched_.clear();
  }

  sim::Rng& rng_;
  std::vector<double> temp_;
  std::vector<std::uint32_t> out_;
  std::vector<double> p_;
  std::vector<std::uint8_t> drain_;
  std::vector<std::uint32_t> routable_;
  std::uint64_t revision_ = 0;
  std::vector<std::uint32_t> touched_;
};

void run_differential(PolicyKind kind, std::size_t n, std::uint64_t seed,
                      int steps) {
  sim::Rng rng(seed);
  RandomFleet fleet(n, rng);
  auto policy = make_policy(kind, kThreshold);
  RebuildCounter rebuilds;
  std::uint64_t picks = 0;
  const auto checked_pick = [&](bool tracked) {
    const FleetView v = fleet.view(tracked);
    rebuilds.on_pick(v.revision);
    ++picks;
    const std::size_t got = policy->pick(v);
    const std::size_t want = scan_pick(kind, v, kThreshold);
    EXPECT_EQ(got, want) << policy_name(kind) << " n=" << n
                         << " seed=" << seed << " pick #" << picks;
    return static_cast<std::uint32_t>(got);
  };

  for (int step = 0; step < steps && !testing::Test::HasFailure(); ++step) {
    const double op = rng.uniform();
    if (op < 0.50) {
      fleet.increment(checked_pick(true));
    } else if (op < 0.60) {
      fleet.increment(fleet.random_routable());  // affinity: no pick
    } else if (op < 0.65) {
      fleet.logged_decrement(fleet.random_node());
    } else if (op < 0.70) {
      fleet.complete_some();
    } else if (op < 0.76) {
      fleet.retemp_some();
    } else if (op < 0.81) {
      fleet.toggle_drains();
    } else if (op < 0.86) {
      fleet.set_injection();
    } else if (op < 0.95) {
      fleet.increment(checked_pick(false));  // untracked view
    } else if (op < 0.96) {
      fleet.join();
    } else {
      checked_pick(true);  // back-to-back pick with nothing to replay
    }
  }
  EXPECT_EQ(policy->index_rebuilds(), rebuilds.expected())
      << policy_name(kind) << " n=" << n << " seed=" << seed;
  // The run must exercise the incremental path, not only rebuilds.
  EXPECT_LT(rebuilds.expected(), picks);
}

TEST(PickIndexTest, MatchesScanOnRandomFleets) {
  std::vector<std::size_t> sizes = {1, 2, 3, 5, 8, 31, 64, 100, 513, 1024,
                                    1100};
  sim::Rng size_rng(0x9e1d);
  for (int i = 0; i < 6; ++i) {
    sizes.push_back(static_cast<std::size_t>(size_rng.uniform_int(1, 1100)));
  }
  for (const PolicyKind kind : kIndexedKinds) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      run_differential(kind, sizes[i], 1000 + i, 1500);
      if (HasFailure()) return;
    }
  }
}

TEST(PickIndexTest, UntrackedViewsRebuildEveryPick) {
  sim::Rng rng(7);
  RandomFleet fleet(50, rng);
  for (const PolicyKind kind : kIndexedKinds) {
    auto policy = make_policy(kind, kThreshold);
    for (int i = 0; i < 20; ++i) {
      const FleetView v = fleet.view(false);
      EXPECT_EQ(policy->pick(v), scan_pick(kind, v, kThreshold));
    }
    EXPECT_EQ(policy->index_rebuilds(), 20u) << policy_name(kind);
  }
  EXPECT_EQ(make_policy(PolicyKind::kRoundRobin)->index_rebuilds(), 0u);
}

TEST(PickIndexTest, TrackedPicksReplayWithoutRebuilding) {
  sim::Rng rng(11);
  RandomFleet fleet(1000, rng);
  for (const PolicyKind kind : kIndexedKinds) {
    auto policy = make_policy(kind, kThreshold);
    for (int i = 0; i < 500; ++i) {
      const FleetView v = fleet.view(true);
      const std::size_t id = policy->pick(v);
      ASSERT_EQ(id, scan_pick(kind, v, kThreshold)) << policy_name(kind);
      fleet.increment(static_cast<std::uint32_t>(id));
    }
    EXPECT_EQ(policy->index_rebuilds(), 1u) << policy_name(kind);
    fleet.set_injection();  // one bump: exactly one more rebuild
    policy->pick(fleet.view(true));
    policy->pick(fleet.view(true));
    EXPECT_EQ(policy->index_rebuilds(), 2u) << policy_name(kind);
  }
}

// --- the Cluster's bookkeeping ------------------------------------------------

/// Wraps a real policy inside a Cluster: checks every pick against the scan
/// oracle on the very view the cluster passed, and tracks the rebuilds the
/// revision sequence allows. A missing touched entry or revision bump in the
/// cluster shows up as a stale pick here.
class CheckedBalancer final : public LoadBalancer {
 public:
  CheckedBalancer(PolicyKind kind, std::uint64_t* mismatches,
                  std::uint64_t* picks, RebuildCounter* rebuilds,
                  std::uint64_t* actual_rebuilds)
      : kind_(kind),
        inner_(make_policy(kind, kThreshold)),
        mismatches_(mismatches),
        picks_(picks),
        rebuilds_(rebuilds),
        actual_rebuilds_(actual_rebuilds) {}

  const char* name() const override { return inner_->name(); }
  std::size_t pick(const FleetView& fleet) override {
    EXPECT_NE(fleet.revision, 0u) << "the cluster always tracks its view";
    rebuilds_->on_pick(fleet.revision);
    ++*picks_;
    const std::size_t id = inner_->pick(fleet);
    if (id != scan_pick(kind_, fleet, kThreshold)) ++*mismatches_;
    *actual_rebuilds_ = inner_->index_rebuilds();
    return id;
  }

 private:
  PolicyKind kind_;
  std::unique_ptr<LoadBalancer> inner_;
  std::uint64_t* mismatches_;
  std::uint64_t* picks_;
  RebuildCounter* rebuilds_;
  std::uint64_t* actual_rebuilds_;
};

TEST(PickIndexTest, ClusterViewsStayConsistentThroughChurn) {
  sched::MachineConfig machine;
  machine.enable_meter = false;
  // Every 4th arrival carries an affinity key: it increments a node's count
  // without a pick, so the next pick must replay it.
  auto trace = std::make_shared<ArrivalTrace>();
  for (int k = 1; k <= 20000; ++k) {
    ArrivalRecord r;
    r.at = sim::from_us(200) * k;
    r.affinity = k % 4 == 0 ? static_cast<std::uint32_t>(k) : 0;
    trace->records.push_back(r);
  }
  for (const PolicyKind kind : kIndexedKinds) {
    ClusterConfig config = FleetSpec::racks(2)
                               .nodes_per_rack(4)
                               .with_machine(machine)
                               .with_cooling(1.0, 0.5)
                               .with_injection_gradient(0.6)
                               .config();
    config.arrival_trace = trace;
    std::uint64_t mismatches = 0;
    std::uint64_t picks = 0;
    std::uint64_t rebuilds = 0;
    RebuildCounter expected;
    Cluster fleet(config, std::make_unique<CheckedBalancer>(
                              kind, &mismatches, &picks, &expected, &rebuilds));

    fleet.run(sim::from_sec(1));
    fleet.admin_set_injection(0, 0.9, sim::from_ms(10));  // crosses threshold
    fleet.run(sim::from_ms(500));
    fleet.admin_drain(2);
    fleet.run(sim::from_ms(500));
    // Remove the busiest node: it has a queue to re-home through picks.
    std::size_t busiest = 0;
    for (std::size_t i = 1; i < fleet.num_nodes(); ++i) {
      if (fleet.outstanding(i) > fleet.outstanding(busiest)) busiest = i;
    }
    fleet.admin_remove(busiest);
    fleet.run(sim::from_ms(500));
    fleet.admin_undrain(2);
    fleet.admin_join({.fan_speed_fraction = 0.7}, sim::from_ms(200));
    fleet.admin_set_injection(3, 0.0, sim::from_ms(10));
    const ClusterResult r = fleet.run(sim::from_sec(1));

    EXPECT_EQ(mismatches, 0u) << policy_name(kind);
    EXPECT_GT(r.counters.requests_rehomed, 0u) << policy_name(kind);
    EXPECT_EQ(rebuilds, expected.expected()) << policy_name(kind);
    // Rebuilds are bounded by sweeps and directives, not by arrivals.
    EXPECT_LT(rebuilds * 10, picks) << policy_name(kind);
  }
}

}  // namespace
}  // namespace dimetrodon::cluster
