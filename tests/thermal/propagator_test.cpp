// Closed-form fast-forward propagator: RcNetwork::advance(dt, k) must be
// physics-equivalent to k sequential step(dt) calls (the reference stepper),
// deterministic, and must preserve the singular-matrix error path. Also
// covers the single step operator: reused while dt keeps its bits, rebuilt
// when dt or the topology changes.
#include "thermal/rc_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "thermal/floorplan.hpp"

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

TEST(PropagatorTest, UnrolledKernelsKeepDenseSparseParityOnServerFloorplan) {
  // The matvec kernels unroll 4x but keep the single-accumulator term order,
  // so the dense and CSR propagator paths must STILL agree bitwise — this
  // drives both unrolled kernels through the full lifted fast-forward on a
  // floorplan big enough (> 4 free nodes) to hit the unrolled body, with a
  // substep count whose bits force several operator levels and remainders.
  FloorplanParams params;
  RcNetwork dense, sparse;
  const auto dn = build_server_floorplan(dense, params);
  const auto sn = build_server_floorplan(sparse, params);
  dense.set_sparse_enabled(false);
  sparse.set_sparse_enabled(true);
  for (std::size_t i = 0; i < 4; ++i) {
    dense.set_power(dn.die[i], 7.0 + 3.0 * static_cast<double>(i));
    sparse.set_power(sn.die[i], 7.0 + 3.0 * static_cast<double>(i));
  }
  for (int round = 0; round < 5; ++round) {
    dense.advance(0.00025, 1337);
    sparse.advance(0.00025, 1337);
  }
  EXPECT_GT(dense.stats().matvecs, 0u);
  const auto td = all_temps(dense);
  const auto ts = all_temps(sparse);
  ASSERT_EQ(td.size(), ts.size());
  for (std::size_t n = 0; n < td.size(); ++n) {
    EXPECT_EQ(td[n], ts[n]) << "node " << n;
  }
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

}  // namespace
}  // namespace dimetrodon::thermal
