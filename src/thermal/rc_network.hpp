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
/// temperature vector — T' = A·T + M⁻¹·u with A = M⁻¹·(C/dt), u = P + G_b·
/// T_fixed, M = C/dt + G — k substeps under a constant power vector have the
/// closed form T_k = A^k·T + S_k·M⁻¹·u, S_k = I + A + … + A^(k-1). The step
/// operator stores one fused table [A^(2^j) | S_(2^j)·M⁻¹] per binary-lifted
/// level j, so `step()` is one 6×12 matvec on the default floorplan and a
/// fast-forward of k substeps is popcount(k) of them. No LU solve runs after
/// the operator is built.
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
  /// operator: its lifted tables are reused while dt stays bit-identical and
  /// rebuilt (one LU factorization) when dt or the topology changes. Callers
  /// are expected to keep one dt — sched::Machine steps only on its
  /// thermal_substep grid — so a run costs one factorization, not one per
  /// distinct span length.
  void step(double dt_seconds);

  /// Advance `substeps` substeps of `dt_seconds` each, with the current power
  /// vector held constant, via the closed-form propagator (popcount(substeps)
  /// table applications). Runs the same kernel as step(), which is its
  /// substeps == 1 case, so one substep is bit-identical to step().
  void advance(double dt_seconds, std::uint64_t substeps);

  /// Jump straight to the steady state for the current power vector.
  /// Requires every free node to have a conduction path to a fixed node.
  /// The conductance matrix is factored once per topology.
  void solve_steady_state();

  /// Sum of injected power over all nodes (diagnostics / conservation tests).
  double total_power() const;

  /// Monotonic work counters for the stepping engine (observability; the
  /// machine mirrors these into its obs counter registry).
  struct Stats {
    std::uint64_t substeps = 0;            // substeps integrated, any path
    std::uint64_t fast_forward_steps = 0;  // substeps covered by lifted matvecs
    std::uint64_t factorizations = 0;      // step-matrix LU factorizations
    std::uint64_t solves = 0;              // unit solves building level 0
    std::uint64_t matvecs = 0;             // 2 per table application
  };
  const Stats& stats() const { return stats_; }

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

  /// Everything derived from one (dt, topology) pair: the binary-lifted
  /// propagator tables, level j the nf × 2nf table [A^(2^j) | W_j] with
  /// W_j = S_(2^j)·M⁻¹, in apply_lifted's column-by-column layout, stored
  /// back to back. Level 0 ([A | M⁻¹]) is built with the operator; deeper
  /// levels on demand.
  struct StepOperator {
    double dt = -1.0;
    std::size_t levels = 0;
    std::vector<double> tables;
  };

  /// Rebuild free_index_/free_nodes_/boundary_ and drop the step operator
  /// and the steady-state factorization if the topology changed since they
  /// were built.
  void ensure_structure();

  /// M = C/dt + G over free nodes; dt = ∞ gives the conductance matrix G.
  DenseMatrix system_matrix(double dt_seconds) const;

  /// The step operator for this dt: the held one when dt matches bit for
  /// bit, else a fresh level 0 replacing it (throws on a singular matrix).
  StepOperator& operator_for(double dt_seconds);

  /// Grow op's lifted tables to cover a fast-forward of `substeps`.
  void ensure_levels(StepOperator& op, std::uint64_t substeps);

  /// u = P + G_boundary·T_fixed over free nodes (the constant input term),
  /// written to u[0, nf).
  void assemble_input(double* u) const;

  /// T ← T advanced `substeps` substeps through op's tables (levels must
  /// cover `substeps`), counting the work. Picks the fixed-size kernel for
  /// the default floorplan, else the runtime-n one.
  void propagate(const StepOperator& op, std::uint64_t substeps);
  /// One kernel run over x = [T ; u] (2·nf doubles); `y` is apply_lifted's
  /// scratch, unused when N > 0.
  template <std::size_t N>
  void run_kernel(const StepOperator& op, std::uint64_t substeps, double* x,
                  double* y);

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<double> temps_;
  std::vector<double> powers_;

  // Mapping between all nodes and the free (non-fixed) subset the linear
  // solves operate on.
  std::vector<std::size_t> free_index_;  // node -> dense row, SIZE_MAX if fixed
  std::vector<NodeId> free_nodes_;       // dense row -> node
  // Edges between a free and a fixed node, in edge order: the G_b·T_fixed
  // part of the input term.
  struct BoundaryTerm {
    std::size_t row;
    NodeId fixed;
    double g;
  };
  std::vector<BoundaryTerm> boundary_;

  StepOperator op_;  // dt < 0 until the first step/advance
  LuFactorization steady_lu_;  // G, factored on the first steady solve
  std::uint64_t topology_revision_ = 0;  // bumped by add_node/connect
  std::uint64_t built_revision_ = ~std::uint64_t{0};

  Stats stats_;
  // Kernel and steady-state scratch for networks off the fixed-size path,
  // reused so a step or advance never allocates.
  std::vector<double> x_;
  std::vector<double> y_;
};

}  // namespace dimetrodon::thermal
