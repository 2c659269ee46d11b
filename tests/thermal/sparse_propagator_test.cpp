// Sparse-path contract tests: the CSR propagator must be bitwise-identical
// to the dense reference (not merely close), the sparse gate must engage
// only where the fill ratio warrants it, and an equal-bits timestep must
// reuse the step operator on both paths.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "thermal/rc_network.hpp"

namespace dimetrodon::thermal {
namespace {

/// Block-diagonal topology: `islands` chains of `per_island` free nodes,
/// joined only through one fixed boundary node — the cluster-layer shape
/// (per-rack air networks meeting at the CRAC) that makes the propagator
/// powers sparse.
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

TEST(SparsePropagatorTest, BlockDiagonalAdvanceBitIdenticalToDense) {
  RcNetwork dense;
  RcNetwork sparse;
  const auto dense_heads = build_islands(dense, 12, 4);
  const auto sparse_heads = build_islands(sparse, 12, 4);
  dense.set_sparse_enabled(false);
  sparse.set_sparse_enabled(true);
  for (std::size_t i = 0; i < dense_heads.size(); ++i) {
    dense.set_power(dense_heads[i], 4.0 + 0.5 * static_cast<double>(i));
    sparse.set_power(sparse_heads[i], 4.0 + 0.5 * static_cast<double>(i));
  }
  // Compare at every advance boundary, across substep counts that exercise
  // single-step, power-of-two, and ragged binary decompositions.
  for (const std::uint64_t substeps : {1u, 2u, 7u, 64u, 1000u, 4097u}) {
    dense.advance(0.00025, substeps);
    sparse.advance(0.00025, substeps);
    for (NodeId n = 0; n < dense.node_count(); ++n) {
      ASSERT_EQ(dense.temperature(n), sparse.temperature(n))
          << "node " << n << " after " << substeps << " substeps";
    }
  }
  EXPECT_EQ(dense.stats().sparse_matvecs, 0u);
  EXPECT_GT(sparse.stats().sparse_matvecs, 0u);
  // Both paths report the same total matvec work — sparse is a routing
  // decision, not a different algorithm.
  EXPECT_EQ(dense.stats().matvecs, sparse.stats().matvecs);
  EXPECT_EQ(dense.stats().substeps, sparse.stats().substeps);
}

TEST(SparsePropagatorTest, SmallDenseNetworkNeverRoutesSparse) {
  // Below the node floor (or above the fill ceiling) the CSR twins are not
  // built at all; a 4-node fully-coupled stack must stay dense even with the
  // sparse path enabled.
  RcNetwork net;
  const NodeId amb = net.add_fixed_node("amb", 25.0);
  NodeId prev = amb;
  for (int i = 0; i < 4; ++i) {
    const NodeId n = net.add_node("n", 10.0, 25.0);
    net.connect_r(prev, n, 0.5);
    prev = n;
  }
  net.set_sparse_enabled(true);
  net.set_power(1, 10.0);
  net.advance(0.001, 512);
  EXPECT_GT(net.stats().matvecs, 0u);
  EXPECT_EQ(net.stats().sparse_matvecs, 0u);
}

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
  // from SimTime ticks (always the same bits) never refactors. This guards
  // the invariant that equal-bits dt == reuse on both dense and sparse
  // paths.
  for (const bool sparse : {false, true}) {
    RcNetwork net;
    build_islands(net, 10, 4);
    net.set_sparse_enabled(sparse);
    const double dt = 0.00025;
    net.advance(dt, 100);
    const std::uint64_t facts = net.stats().factorizations;
    for (int i = 0; i < 50; ++i) net.advance(dt, 100);
    EXPECT_EQ(net.stats().factorizations, facts) << "sparse=" << sparse;
    // A 1-ulp-different dt is a *different* operator (correctness first:
    // implicit Euler at a different dt is different arithmetic).
    const double dt_ulp = std::nextafter(dt, 1.0);
    net.advance(dt_ulp, 100);
    EXPECT_GT(net.stats().factorizations, facts) << "sparse=" << sparse;
  }
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
