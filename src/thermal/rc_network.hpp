#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "thermal/linalg.hpp"

namespace dimetrodon::thermal {

using NodeId = std::size_t;

/// Lumped RC thermal network (the standard compact model behind tools like
/// HotSpot). Nodes are thermal masses (capacitance J/°C) or fixed-temperature
/// boundaries (ambient); edges are thermal conductances (W/°C). Power sources
/// inject heat at nodes; `step()` advances temperatures with unconditionally
/// stable implicit Euler, so the millisecond-scale die dynamics and the
/// minute-scale heatsink dynamics integrate correctly with one step size.
///
/// Because implicit Euler at a fixed dt is an *affine* map of the free-node
/// temperature vector — T' = A·T + b with A = M⁻¹·(C/dt), b = M⁻¹·(P + G_b·
/// T_fixed), M = C/dt + G — k substeps under a constant power vector have the
/// closed form T_k = A^k·T + (I + A + … + A^(k-1))·b. `advance()` evaluates
/// that with binary-lifted powers A^(2^j) and matching geometric sums, so a
/// long fast-forward costs O(log k) small matvecs instead of k linear solves.
class RcNetwork {
 public:
  /// Add a thermal mass. `capacitance` must be > 0.
  NodeId add_node(std::string name, double capacitance_j_per_c,
                  double initial_temp_c);

  /// Add a fixed-temperature boundary node (e.g. ambient air).
  NodeId add_fixed_node(std::string name, double temp_c);

  /// Connect two nodes with thermal conductance g (W/°C). Throws
  /// std::out_of_range on a bad NodeId and std::invalid_argument on a
  /// self-loop or non-positive conductance — thrown (not assert) so Release
  /// builds catch bad FleetSpec overrides too. `resistance` convenience:
  /// connect_r uses g = 1/r.
  void connect(NodeId a, NodeId b, double conductance_w_per_c);
  void connect_r(NodeId a, NodeId b, double resistance_c_per_w) {
    connect(a, b, 1.0 / resistance_c_per_w);
  }

  /// Re-weight an existing edge (either endpoint order) to conductance g.
  /// This is the live-degradation knob — a fan slowing down mid-run changes
  /// the heatsink→ambient conductance of an edge that already exists, which
  /// calling connect() again would NOT do (it appends a parallel edge and
  /// the conductances would add). Bumps the topology revision so the step
  /// operator is rebuilt against the new G matrix. Throws
  /// std::invalid_argument when no such edge exists or g <= 0.
  void set_conductance(NodeId a, NodeId b, double conductance_w_per_c);

  std::size_t node_count() const { return nodes_.size(); }
  const std::string& name(NodeId n) const { return nodes_[n].name; }
  bool is_fixed(NodeId n) const { return nodes_[n].fixed; }

  double temperature(NodeId n) const { return temps_[n]; }
  /// Throws std::out_of_range on a bad NodeId (checked in Release too).
  void set_temperature(NodeId n, double t);

  /// Set every free node to `t` (fixed nodes keep their boundary value).
  void set_all_temperatures(double t);

  double power(NodeId n) const { return powers_[n]; }
  /// Throws std::out_of_range on a bad NodeId. The check is one predictable
  /// compare on an already-loaded size — noise next to the store it guards.
  void set_power(NodeId n, double watts) {
    if (n >= powers_.size()) {
      throw std::out_of_range("RcNetwork::set_power: bad NodeId");
    }
    powers_[n] = watts;
  }

  /// Advance all free-node temperatures by `dt_seconds` with the current
  /// power vector held constant (implicit Euler). The network holds ONE step
  /// operator: its LU factorization (and lifted tables) are reused while dt
  /// stays bit-identical and rebuilt when dt or the topology changes. Callers
  /// are expected to keep one dt — sched::Machine steps only on its
  /// thermal_substep grid — so a run costs one factorization, not one per
  /// distinct span length.
  void step(double dt_seconds);

  /// Advance `substeps` substeps of `dt_seconds` each, with the current power
  /// vector held constant, via the closed-form propagator (O(log substeps)
  /// matvecs). Physics-equivalent to calling `step(dt_seconds)` that many
  /// times; a single substep routes through the exact step() arithmetic so
  /// substeps <= 1 are bit-identical to the sequential reference.
  void advance(double dt_seconds, std::uint64_t substeps);

  /// Jump straight to the steady state for the current power vector.
  /// Requires every free node to have a conduction path to a fixed node.
  void solve_steady_state();

  /// Sum of injected power over all nodes (diagnostics / conservation tests).
  double total_power() const;

  /// Monotonic work counters for the stepping engine (observability; the
  /// machine mirrors these into its obs counter registry).
  struct Stats {
    std::uint64_t substeps = 0;            // substeps integrated, any path
    std::uint64_t fast_forward_steps = 0;  // substeps covered by lifted matvecs
    std::uint64_t factorizations = 0;      // step-matrix LU factorizations
    std::uint64_t solves = 0;              // LU back-substitutions
    std::uint64_t matvecs = 0;             // matrix-vector products, any kind
    std::uint64_t sparse_matvecs = 0;      // of those, via the CSR path
  };
  const Stats& stats() const { return stats_; }

  /// Enable/disable the CSR fast path (default on). With sparsity disabled
  /// every matvec goes through the dense reference; results are bitwise
  /// identical either way (the CSR drops exact zeros only), so this knob
  /// exists for benchmarking and parity tests, not correctness.
  void set_sparse_enabled(bool enabled) { sparse_enabled_ = enabled; }
  bool sparse_enabled() const { return sparse_enabled_; }

  /// Portable dynamic state: everything `advance`/`step` read or write that
  /// is not topology. Captured/restored by the machine snapshot layer; the
  /// step operator is deliberately *not* part of it — it is a pure function
  /// of (topology, dt) and rebuilds lazily with bit-identical arithmetic
  /// after a restore.
  struct State {
    std::vector<double> temps;
    std::vector<double> powers;
    Stats stats;
  };
  State save_state() const { return State{temps_, powers_, stats_}; }
  /// Restore a state captured from a network with identical topology.
  /// Throws std::invalid_argument on a node-count mismatch.
  void restore_state(const State& s);

 private:
  struct Node {
    std::string name;
    double capacitance = 0.0;  // J/°C; 0 for fixed nodes
    bool fixed = false;
  };
  struct Edge {
    NodeId a;
    NodeId b;
    double g;  // W/°C
  };

  /// Everything derived from one (dt, topology) pair: the factored implicit-
  /// Euler matrix M = C/dt + G, and — built lazily on the first multi-step
  /// advance — the binary-lifted propagator tables.
  struct StepOperator {
    double dt = -1.0;
    LuFactorization lu;                // M = C/dt + G over free nodes
    std::vector<DenseMatrix> a_pow;    // A^(2^j)
    std::vector<DenseMatrix> s_geo;    // I + A + … + A^(2^j - 1)
    // CSR twins of the lifted tables, built per level when the fill ratio
    // makes dense a loss (block-diagonal networks: rack air islands joined
    // only through the fixed CRAC node). Empty entries mean "use dense".
    std::vector<SparseMatrix> a_pow_csr;
    std::vector<SparseMatrix> s_geo_csr;
    std::vector<bool> level_sparse;    // per level: CSR twins populated?
  };

  /// Rebuild free_index_/free_nodes_ and drop the step operator if the
  /// topology changed since it was built.
  void ensure_structure();

  /// The step operator for this dt: the held one when dt matches bit for
  /// bit, else a fresh factorization replacing it (throws on a singular
  /// matrix).
  StepOperator& operator_for(double dt_seconds);

  /// Grow op's lifted tables to cover a fast-forward of `substeps`.
  void ensure_levels(StepOperator& op, std::uint64_t substeps);

  /// rhs = P + G_boundary·T_fixed over free nodes (the constant input term).
  void assemble_input(std::vector<double>& rhs) const;

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<double> temps_;
  std::vector<double> powers_;

  // Mapping between all nodes and the free (non-fixed) subset the linear
  // solves operate on.
  std::vector<std::size_t> free_index_;  // node -> dense row, SIZE_MAX if fixed
  std::vector<NodeId> free_nodes_;       // dense row -> node

  StepOperator op_;  // dt < 0 until the first step/advance
  std::uint64_t topology_revision_ = 0;  // bumped by add_node/connect
  std::uint64_t built_revision_ = ~std::uint64_t{0};

  // CSR fast-path policy: build sparse twins of a lifted level when the
  // network is big enough for the bookkeeping to pay (>= kSparseMinNodes
  // free nodes) and the level's fill ratio is at or below kSparseMaxFill.
  // On a fully connected (single-component) network the propagator is dense
  // and the CSR path never engages.
  static constexpr std::size_t kSparseMinNodes = 8;
  static constexpr double kSparseMaxFill = 0.5;
  bool sparse_enabled_ = true;

  Stats stats_;
  // Solve/advance scratch, reused so a step or advance never allocates.
  std::vector<double> rhs_;
  std::vector<double> state_;
  std::vector<double> scratch_;
};

}  // namespace dimetrodon::thermal
