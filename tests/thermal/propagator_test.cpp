// Closed-form fast-forward propagator: RcNetwork::step(dt) and
// advance(dt, k) must stay within kParityTolC of a textbook LU stepper (the
// oracle below), advance(dt, k) must match k sequential step(dt) calls, both
// must be deterministic, and the singular-matrix error path must hold. Also
// covers the single step operator: reused while dt keeps its bits, rebuilt
// when dt or the topology changes; node-id range checks; and the save/restore
// round trip of the dynamic state.
#include "thermal/rc_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/linalg.hpp"

namespace dimetrodon::thermal {
namespace {

constexpr double kParityTolC = 1e-9;

/// Two-mass chain with an ambient boundary: die -> sink -> ambient.
struct Chain {
  RcNetwork net;
  NodeId die, sink, amb;
  Chain() {
    die = net.add_node("die", 0.01, 30.0);
    sink = net.add_node("sink", 10.0, 28.0);
    amb = net.add_fixed_node("ambient", 25.0);
    net.connect_r(die, sink, 1.5);
    net.connect_r(sink, amb, 0.3);
    net.set_power(die, 9.0);
  }
};

/// Multiple fixed nodes: free node squeezed between two boundaries.
struct TwoBoundary {
  RcNetwork net;
  NodeId mass, hot, cold;
  TwoBoundary() {
    mass = net.add_node("mass", 2.0, 40.0);
    hot = net.add_fixed_node("hot", 80.0);
    cold = net.add_fixed_node("cold", 10.0);
    net.connect_r(mass, hot, 2.0);
    net.connect_r(mass, cold, 1.0);
    net.set_power(mass, 3.0);
  }
};

std::vector<double> all_temps(const RcNetwork& net) {
  std::vector<double> t;
  for (NodeId n = 0; n < net.node_count(); ++n) {
    t.push_back(net.temperature(n));
  }
  return t;
}

/// Block-diagonal topology: `islands` chains of `per_island` free nodes,
/// joined only through one fixed boundary node — the cluster-layer shape
/// (per-rack air networks meeting at the CRAC).
std::vector<NodeId> build_islands(RcNetwork& net, std::size_t islands,
                                  std::size_t per_island) {
  const NodeId crac = net.add_fixed_node("crac", 18.0);
  std::vector<NodeId> heads;
  for (std::size_t i = 0; i < islands; ++i) {
    NodeId prev = crac;
    for (std::size_t j = 0; j < per_island; ++j) {
      const NodeId n = net.add_node("n", j == 0 ? 50.0 : 30.0, 25.0);
      net.connect_r(prev, n, j == 0 ? 0.4 : 0.15);
      if (j == 0) heads.push_back(n);
      prev = n;
    }
  }
  return heads;
}

/// The textbook implicit-Euler stepper: assemble M = C/dt + G over the free
/// nodes, factor it once, and solve M·T' = C/dt·T + P + G_b·T_fixed once per
/// substep. Free nodes are numbered in the order they are added, which is
/// the order RcNetwork gives its free nodes; boundary edges fold into the
/// right-hand side.
class LuOracle {
 public:
  std::size_t add_node(double capacitance, double initial_temp) {
    cap_.push_back(capacitance);
    temp.push_back(initial_temp);
    power.push_back(0.0);
    return cap_.size() - 1;
  }
  void connect(std::size_t a, std::size_t b, double g) {
    edges_.push_back({a, b, g});
  }
  void connect_fixed(std::size_t a, double g, double fixed_temp) {
    boundary_.push_back({a, g, fixed_temp});
  }
  void factor(double dt) {
    dt_ = dt;
    const std::size_t n = cap_.size();
    DenseMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = cap_[i] / dt;
    for (const Edge& e : edges_) {
      m.at(e.a, e.a) += e.g;
      m.at(e.b, e.b) += e.g;
      m.at(e.a, e.b) -= e.g;
      m.at(e.b, e.a) -= e.g;
    }
    for (const Boundary& b : boundary_) m.at(b.node, b.node) += b.g;
    ASSERT_TRUE(lu_.factor(m));
  }
  void step() {
    rhs_.resize(cap_.size());
    for (std::size_t i = 0; i < cap_.size(); ++i) {
      rhs_[i] = cap_[i] / dt_ * temp[i] + power[i];
    }
    for (const Boundary& b : boundary_) rhs_[b.node] += b.g * b.temp;
    lu_.solve(rhs_);
    temp = rhs_;
  }

  std::vector<double> temp;
  std::vector<double> power;

 private:
  struct Edge {
    std::size_t a, b;
    double g;
  };
  struct Boundary {
    std::size_t node;
    double g;
    double temp;
  };
  std::vector<double> cap_;
  std::vector<Edge> edges_;
  std::vector<Boundary> boundary_;
  LuFactorization lu_;
  std::vector<double> rhs_;
  double dt_ = 0.0;
};

/// The server floorplan as the oracle sees it, assembled from the params the
/// way build_server_floorplan wires them: heatsink, package, then the dies.
LuOracle floorplan_oracle(const FloorplanParams& p) {
  LuOracle o;
  const std::size_t hs = o.add_node(p.hs_capacitance, p.ambient_c);
  const std::size_t pkg = o.add_node(p.pkg_capacitance, p.ambient_c);
  o.connect_fixed(hs, std::pow(p.fan_speed_fraction, 0.8) /
                          p.hs_to_ambient_resistance,
                  p.ambient_c);
  o.connect(pkg, hs, 1.0 / p.pkg_to_hs_resistance);
  for (std::size_t i = 0; i < p.num_cores; ++i) {
    const std::size_t die = o.add_node(p.die_capacitance, p.ambient_c);
    o.connect(die, pkg, 1.0 / p.die_to_pkg_resistance);
    if (i > 0) o.connect(die, die - 1, 1.0 / p.die_lateral_resistance);
  }
  return o;
}

/// Drive `stepped` (step() per substep), `lifted` (one advance per span) and
/// the oracle through `total` substeps of random piecewise-constant power on
/// the `driven` free nodes, spans of 1–400 substeps. `free_ids[i]` is the
/// network node of oracle node i. Returns the worst |T − T_oracle| over
/// every span end, for step and for advance.
struct OracleGap {
  double step = 0.0;
  double advance = 0.0;
};
OracleGap track_oracle(RcNetwork& stepped, RcNetwork& lifted, LuOracle& oracle,
                       const std::vector<NodeId>& free_ids,
                       const std::vector<std::size_t>& driven, double dt,
                       std::uint64_t total, double max_watts) {
  oracle.factor(dt);
  sim::Rng rng(2024);
  OracleGap gap;
  for (std::uint64_t done = 0; done < total;) {
    const auto span = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(rng.uniform_int(1, 400)), total - done);
    for (const std::size_t i : driven) {
      const double w = rng.uniform(0.0, max_watts);
      oracle.power[i] = w;
      stepped.set_power(free_ids[i], w);
      lifted.set_power(free_ids[i], w);
    }
    for (std::uint64_t k = 0; k < span; ++k) {
      oracle.step();
      stepped.step(dt);
    }
    lifted.advance(dt, span);
    done += span;
    for (std::size_t i = 0; i < free_ids.size(); ++i) {
      const double want = oracle.temp[i];
      gap.step = std::max(gap.step,
                          std::fabs(stepped.temperature(free_ids[i]) - want));
      gap.advance = std::max(
          gap.advance, std::fabs(lifted.temperature(free_ids[i]) - want));
    }
  }
  return gap;
}

TEST(PropagatorTest, FloorplanTracksLuOracleOverRandomSpans) {
  // 300 s of random die powers on the 250 µs grid, through the fixed-size
  // kernel (6 free nodes).
  const double dt = 0.00025;
  FloorplanParams params;
  RcNetwork stepped, lifted;
  const FloorplanNodes nodes = build_server_floorplan(stepped, params);
  build_server_floorplan(lifted, params);
  LuOracle oracle = floorplan_oracle(params);
  const std::vector<NodeId> free_ids = {nodes.heatsink, nodes.package,
                                        nodes.die[0],   nodes.die[1],
                                        nodes.die[2],   nodes.die[3]};
  oracle.power[1] = 18.0;
  stepped.set_power(nodes.package, 18.0);
  lifted.set_power(nodes.package, 18.0);
  const OracleGap gap = track_oracle(stepped, lifted, oracle, free_ids,
                                     {2, 3, 4, 5}, dt, 1'200'000, 25.0);
  EXPECT_LE(gap.step, kParityTolC);
  EXPECT_LE(gap.advance, kParityTolC);
  EXPECT_EQ(stepped.stats().solves, 6u);
  EXPECT_EQ(lifted.stats().solves, 6u);
}

TEST(PropagatorTest, LargeNetworkTracksLuOracleOverRandomSpans) {
  // 104 free nodes: a chain of 26 four-node islands, each island a heavy
  // head and three light nodes, heads tied to a fixed boundary and to the
  // next island. This size takes the runtime-n kernel.
  const double dt = 0.00025;
  RcNetwork stepped, lifted;
  LuOracle oracle;
  std::vector<NodeId> free_ids;
  for (RcNetwork* net : {&stepped, &lifted}) {
    const NodeId crac = net->add_fixed_node("crac", 18.0);
    for (std::size_t i = 0; i < 104; ++i) {
      const bool head = i % 4 == 0;
      const NodeId n = net->add_node("n", head ? 50.0 : 0.05, 25.0);
      if (net == &stepped) free_ids.push_back(n);
      if (head) net->connect_r(crac, n, 0.4);
      if (i > 0) net->connect_r(n - 1, n, head ? 2.0 : 0.15);
    }
  }
  for (std::size_t i = 0; i < 104; ++i) {
    const bool head = i % 4 == 0;
    oracle.add_node(head ? 50.0 : 0.05, 25.0);
    if (head) oracle.connect_fixed(i, 1.0 / 0.4, 18.0);
    if (i > 0) oracle.connect(i - 1, i, 1.0 / (head ? 2.0 : 0.15));
  }
  std::vector<std::size_t> driven;
  for (std::size_t i = 0; i < 104; ++i) {
    if (i % 4 != 0) driven.push_back(i);
  }
  const OracleGap gap = track_oracle(stepped, lifted, oracle, free_ids, driven,
                                     dt, 20'000, 10.0);
  EXPECT_LE(gap.step, kParityTolC);
  EXPECT_LE(gap.advance, kParityTolC);
  EXPECT_EQ(lifted.stats().solves, 104u);
}

TEST(PropagatorTest, FixedSizeKernelIsBitIdenticalToRuntimeLoop) {
  // Random 6×12 tables on three levels: the N = 6 instantiation and the
  // runtime-n loop sum each row in the same order, so they agree bitwise.
  constexpr std::size_t n = 6;
  sim::Rng rng(99);
  std::vector<double> tables(3 * n * 2 * n);
  for (double& v : tables) v = rng.uniform(-1.0, 1.0);
  for (const std::uint64_t k : {1u, 2u, 3u, 5u, 6u, 7u}) {
    SCOPED_TRACE(k);
    double fixed_x[2 * n], fixed_y[n];
    std::vector<double> loop_x(2 * n), loop_y(n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      fixed_x[i] = loop_x[i] = rng.uniform(-50.0, 50.0);
    }
    apply_lifted<n>(tables.data(), k, fixed_x, fixed_y);
    apply_lifted(tables.data(), k, loop_x.data(), loop_y.data(), n);
    for (std::size_t i = 0; i < 2 * n; ++i) EXPECT_EQ(fixed_x[i], loop_x[i]);
  }
}

/// advance(dt, j) from the same start state must match j sequential step(dt)
/// calls at EVERY substep boundary j = 1..max_steps.
template <typename Fixture>
void expect_parity_at_every_boundary(double dt, int max_steps) {
  Fixture ref;
  for (int j = 1; j <= max_steps; ++j) {
    ref.net.step(dt);
    Fixture fast;
    fast.net.advance(dt, static_cast<std::uint64_t>(j));
    const auto want = all_temps(ref.net);
    const auto got = all_temps(fast.net);
    for (std::size_t n = 0; n < want.size(); ++n) {
      EXPECT_NEAR(got[n], want[n], kParityTolC)
          << "node " << n << " after " << j << " substeps of dt=" << dt;
    }
  }
}

TEST(PropagatorTest, ParityAtEveryBoundaryAcrossDtValues) {
  for (const double dt : {0.00025, 0.001, 0.0173, 0.1}) {
    expect_parity_at_every_boundary<Chain>(dt, 70);
  }
}

TEST(PropagatorTest, ParityWithMultipleFixedNodes) {
  expect_parity_at_every_boundary<TwoBoundary>(0.01, 70);
}

TEST(PropagatorTest, ParityOnServerFloorplan) {
  const double dt = 0.00025;
  RcNetwork ref, fast;
  FloorplanParams params;
  const auto rn = build_server_floorplan(ref, params);
  const auto fn = build_server_floorplan(fast, params);
  for (std::size_t i = 0; i < 4; ++i) {
    ref.set_power(rn.die[i], 8.0 + 2.0 * static_cast<double>(i));
    fast.set_power(fn.die[i], 8.0 + 2.0 * static_cast<double>(i));
  }
  ref.set_power(rn.package, 18.0);
  fast.set_power(fn.package, 18.0);
  const std::uint64_t k = 4000;  // one simulated second of 250 µs substeps
  for (std::uint64_t j = 0; j < k; ++j) ref.step(dt);
  fast.advance(dt, k);
  for (NodeId n = 0; n < ref.node_count(); ++n) {
    EXPECT_NEAR(fast.temperature(n), ref.temperature(n), kParityTolC);
  }
}

TEST(PropagatorTest, LongFastForwardConvergesToSteadyState) {
  // A^k -> 0 and the geometric sum -> (I-A)^-1 b: a huge k must land on the
  // steady state, exercising deep lifted levels without instability.
  Chain c;
  c.net.advance(0.01, 1u << 24);
  Chain ss;
  ss.net.solve_steady_state();
  for (NodeId n = 0; n < c.net.node_count(); ++n) {
    EXPECT_NEAR(c.net.temperature(n), ss.net.temperature(n), 1e-6);
  }
}

TEST(PropagatorTest, SingleSubstepIsBitIdenticalToStep) {
  Chain a, b;
  for (int i = 0; i < 50; ++i) {
    a.net.step(0.002);
    b.net.advance(0.002, 1);
  }
  for (NodeId n = 0; n < a.net.node_count(); ++n) {
    EXPECT_EQ(a.net.temperature(n), b.net.temperature(n));
  }
}

TEST(PropagatorTest, FastForwardIsBitDeterministic) {
  auto run = [] {
    Chain c;
    for (int i = 0; i < 25; ++i) {
      c.net.advance(0.00025, 37);
      c.net.step(0.00011);  // a second dt between: the operator rebuilds
    }
    return all_temps(c.net);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(PropagatorTest, AdvanceZeroStepsIsNoOp) {
  Chain c;
  const auto before = all_temps(c.net);
  c.net.advance(0.001, 0);
  EXPECT_EQ(all_temps(c.net), before);
  EXPECT_EQ(c.net.stats().substeps, 0u);
}

TEST(PropagatorTest, SingularMatrixThrowsOnBothPaths) {
  // Subnormal capacitances and near-zero conductances push every LU pivot
  // below the singularity threshold — the degenerate-grid-point failure mode
  // the fault-isolation layer relies on. Both stepping paths must surface the
  // identical error.
  RcNetwork net;
  const NodeId a = net.add_node("a", 1e-306, 20.0);
  const NodeId amb = net.add_fixed_node("amb", 20.0);
  net.connect(a, amb, 1e-305);
  EXPECT_THROW(net.step(1.0), std::runtime_error);
  EXPECT_THROW(net.advance(1.0, 8), std::runtime_error);
  try {
    net.advance(1.0, 8);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thermal step matrix is singular");
  }
}

TEST(PropagatorTest, NewDtReplacesTheOneOperator) {
  // One operator per network: a fixed dt factors once however many steps
  // and advances use it, and each change of dt costs one factorization.
  Chain c;
  for (int i = 0; i < 20; ++i) {
    c.net.step(0.00025);
    c.net.advance(0.00025, 7);
  }
  EXPECT_EQ(c.net.stats().factorizations, 1u);
  c.net.step(0.0005);
  EXPECT_EQ(c.net.stats().factorizations, 2u);
  c.net.advance(0.00025, 7);  // the old dt is gone: rebuilt
  EXPECT_EQ(c.net.stats().factorizations, 3u);
  // A rebuilt operator is the same arithmetic: bit-identical to a network
  // that never switched dt.
  Chain a, b;
  a.net.advance(0.00025, 9);
  b.net.advance(0.00025, 4);
  b.net.step(0.0005);
  b.net.restore_state(a.net.save_state());
  a.net.advance(0.00025, 33);
  b.net.advance(0.00025, 33);
  for (NodeId n = 0; n < a.net.node_count(); ++n) {
    EXPECT_EQ(a.net.temperature(n), b.net.temperature(n));
  }
}

TEST(PropagatorTest, TopologyChangeInvalidatesOperators) {
  RcNetwork net;
  const NodeId a = net.add_node("a", 1.0, 30.0);
  const NodeId amb = net.add_fixed_node("amb", 20.0);
  net.connect_r(a, amb, 1.0);
  net.advance(0.01, 8);
  const double before = net.temperature(a);
  const NodeId b = net.add_node("b", 1.0, 90.0);
  net.connect_r(a, b, 0.5);
  net.advance(0.01, 8);  // must not reuse the stale 1-node operator
  EXPECT_GT(net.temperature(a), before - 5.0);
  EXPECT_LT(net.temperature(b), 90.0);
  EXPECT_EQ(net.stats().factorizations, 2u);
}

TEST(PropagatorTest, StatsCountWork) {
  Chain c;
  c.net.advance(0.00025, 12);  // bits 1100 -> 2 applications, 4 matvecs
  EXPECT_EQ(c.net.stats().substeps, 12u);
  EXPECT_EQ(c.net.stats().fast_forward_steps, 12u);
  EXPECT_EQ(c.net.stats().matvecs, 4u);
  c.net.step(0.00025);
  EXPECT_EQ(c.net.stats().substeps, 13u);
  EXPECT_EQ(c.net.stats().fast_forward_steps, 12u);
}

// Node-id, reuse and save/restore contracts. The suite keeps the name these
// tests were first published under, so their IDs stay stable.
TEST(SparsePropagatorTest, ConnectThrowsOutOfRangeOnBadNodeId) {
  RcNetwork net;
  const NodeId a = net.add_node("a", 10.0, 25.0);
  const NodeId b = net.add_node("b", 10.0, 25.0);
  net.connect(a, b, 1.0);  // good path
  EXPECT_THROW(net.connect(a, 99, 1.0), std::out_of_range);
  EXPECT_THROW(net.connect(99, b, 1.0), std::out_of_range);
  EXPECT_THROW(net.connect(a, a, 1.0), std::invalid_argument);  // self-loop
}

TEST(SparsePropagatorTest, SetTemperatureThrowsOutOfRangeOnBadNodeId) {
  RcNetwork net;
  const NodeId a = net.add_node("a", 10.0, 25.0);
  net.set_temperature(a, 30.0);  // good path
  EXPECT_EQ(net.temperature(a), 30.0);
  EXPECT_THROW(net.set_temperature(net.node_count(), 30.0),
               std::out_of_range);
}

TEST(SparsePropagatorTest, SetPowerThrowsOutOfRangeOnBadNodeId) {
  RcNetwork net;
  const NodeId a = net.add_node("a", 10.0, 25.0);
  net.set_power(a, 5.0);  // good path
  EXPECT_EQ(net.power(a), 5.0);
  EXPECT_THROW(net.set_power(net.node_count(), 5.0), std::out_of_range);
}

TEST(SparsePropagatorTest, OneUlpTimestepReusesCachedOperator) {
  // A dt that round-trips bit-exactly reuses the operator; the network keys
  // it on the exact double, so the schedule layer's habit of re-deriving dt
  // from SimTime ticks (always the same bits) never refactors.
  RcNetwork net;
  build_islands(net, 10, 4);
  const double dt = 0.00025;
  net.advance(dt, 100);
  const std::uint64_t facts = net.stats().factorizations;
  for (int i = 0; i < 50; ++i) net.advance(dt, 100);
  EXPECT_EQ(net.stats().factorizations, facts);
  // A 1-ulp-different dt is a *different* operator (correctness first:
  // implicit Euler at a different dt is different arithmetic).
  const double dt_ulp = std::nextafter(dt, 1.0);
  net.advance(dt_ulp, 100);
  EXPECT_GT(net.stats().factorizations, facts);
}

TEST(SparsePropagatorTest, SaveRestoreRoundTripsDynamicState) {
  RcNetwork net;
  const auto heads = build_islands(net, 6, 3);
  net.set_power(heads[0], 12.0);
  net.advance(0.001, 300);
  const RcNetwork::State state = net.save_state();
  // Perturb, then restore: temperatures, powers, and stats all come back.
  net.set_power(heads[0], 0.0);
  net.advance(0.001, 100);
  net.restore_state(state);
  for (NodeId n = 0; n < net.node_count(); ++n) {
    EXPECT_EQ(net.temperature(n), state.temps[n]);
  }
  EXPECT_EQ(net.power(heads[0]), 12.0);
  EXPECT_EQ(net.stats().substeps, state.stats.substeps);
  // Restored network continues bit-identically to an undisturbed twin.
  RcNetwork twin;
  build_islands(twin, 6, 3);
  twin.restore_state(state);
  net.advance(0.001, 200);
  twin.advance(0.001, 200);
  for (NodeId n = 0; n < net.node_count(); ++n) {
    EXPECT_EQ(net.temperature(n), twin.temperature(n));
  }
}

TEST(SparsePropagatorTest, RestoreStateRejectsMismatchedTopology) {
  RcNetwork a;
  build_islands(a, 3, 3);
  RcNetwork b;
  build_islands(b, 3, 4);
  EXPECT_THROW(b.restore_state(a.save_state()), std::invalid_argument);
}

}  // namespace
}  // namespace dimetrodon::thermal
