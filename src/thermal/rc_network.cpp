#include "thermal/rc_network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dimetrodon::thermal {

namespace {

constexpr std::size_t kFixed = std::numeric_limits<std::size_t>::max();

/// Free nodes of the default 4-core server floorplan (heatsink, package and
/// four dies): the size the kernel is compiled for. Other networks, such as
/// the rack-air model, take the runtime-size loop.
constexpr std::size_t kFloorplanFreeNodes = 6;

}  // namespace

NodeId RcNetwork::add_node(std::string name, double capacitance_j_per_c,
                           double initial_temp_c) {
  if (capacitance_j_per_c <= 0.0) {
    throw std::invalid_argument("thermal node capacitance must be positive");
  }
  nodes_.push_back(Node{std::move(name), capacitance_j_per_c, false});
  temps_.push_back(initial_temp_c);
  powers_.push_back(0.0);
  ++topology_revision_;
  return nodes_.size() - 1;
}

NodeId RcNetwork::add_fixed_node(std::string name, double temp_c) {
  nodes_.push_back(Node{std::move(name), 0.0, true});
  temps_.push_back(temp_c);
  powers_.push_back(0.0);
  ++topology_revision_;
  return nodes_.size() - 1;
}

void RcNetwork::connect(NodeId a, NodeId b, double conductance_w_per_c) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("RcNetwork::connect: bad NodeId");
  }
  if (a == b) {
    throw std::invalid_argument("RcNetwork::connect: self-loop");
  }
  if (conductance_w_per_c <= 0.0) {
    throw std::invalid_argument("thermal conductance must be positive");
  }
  edges_.push_back(Edge{a, b, conductance_w_per_c});
  ++topology_revision_;
}

void RcNetwork::set_conductance(NodeId a, NodeId b,
                                double conductance_w_per_c) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("RcNetwork::set_conductance: bad NodeId");
  }
  if (conductance_w_per_c <= 0.0) {
    throw std::invalid_argument("thermal conductance must be positive");
  }
  for (Edge& e : edges_) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
      e.g = conductance_w_per_c;
      // The step operator bakes G into M = C/dt + G and the lifted powers;
      // a revision bump makes ensure_structure() drop it so the next advance
      // factors against the new conductance.
      ++topology_revision_;
      return;
    }
  }
  throw std::invalid_argument("RcNetwork::set_conductance: no such edge");
}

void RcNetwork::set_temperature(NodeId n, double t) {
  if (n >= nodes_.size()) {
    throw std::out_of_range("RcNetwork::set_temperature: bad NodeId");
  }
  temps_[n] = t;
}

void RcNetwork::restore_state(const State& s) {
  if (s.temps.size() != temps_.size() || s.powers.size() != powers_.size()) {
    throw std::invalid_argument(
        "RcNetwork::restore_state: node count mismatch");
  }
  temps_ = s.temps;
  powers_ = s.powers;
  stats_ = s.stats;
}

void RcNetwork::set_all_temperatures(double t) {
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].fixed) temps_[n] = t;
  }
}

double RcNetwork::total_power() const {
  double sum = 0.0;
  for (double p : powers_) sum += p;
  return sum;
}

void RcNetwork::ensure_structure() {
  if (built_revision_ == topology_revision_) return;
  free_index_.assign(nodes_.size(), kFixed);
  free_nodes_.clear();
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].fixed) {
      free_index_[n] = free_nodes_.size();
      free_nodes_.push_back(n);
    }
  }
  boundary_.clear();
  for (const Edge& e : edges_) {
    const std::size_t ia = free_index_[e.a];
    const std::size_t ib = free_index_[e.b];
    if (ia != kFixed && ib == kFixed) boundary_.push_back({ia, e.b, e.g});
    if (ib != kFixed && ia == kFixed) boundary_.push_back({ib, e.a, e.g});
  }
  op_ = StepOperator{};
  steady_lu_ = LuFactorization{};
  built_revision_ = topology_revision_;
}

DenseMatrix RcNetwork::system_matrix(double dt_seconds) const {
  // Implicit Euler: (C/dt + G_free) T' = C/dt T + P + G_boundary T_fixed.
  // Boundary coupling moves to the input term u.
  const std::size_t nf = free_nodes_.size();
  DenseMatrix m(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    m.at(i, i) = nodes_[free_nodes_[i]].capacitance / dt_seconds;
  }
  for (const Edge& e : edges_) {
    const std::size_t ia = free_index_[e.a];
    const std::size_t ib = free_index_[e.b];
    if (ia != kFixed) m.at(ia, ia) += e.g;
    if (ib != kFixed) m.at(ib, ib) += e.g;
    if (ia != kFixed && ib != kFixed) {
      m.at(ia, ib) -= e.g;
      m.at(ib, ia) -= e.g;
    }
  }
  return m;
}

RcNetwork::StepOperator& RcNetwork::operator_for(double dt_seconds) {
  ensure_structure();
  if (op_.dt == dt_seconds) return op_;

  // A new dt replaces the held operator and its lifted tables. dt is set
  // only after a successful factorization, so a singular matrix throws again
  // on the next call instead of handing out an unusable operator.
  op_ = StepOperator{};
  LuFactorization lu;
  if (!lu.factor(system_matrix(dt_seconds))) {
    throw std::runtime_error("thermal step matrix is singular");
  }
  ++stats_.factorizations;

  // Level 0 is [A | M⁻¹]: column i of M⁻¹ is one unit solve, and
  // A = M⁻¹·diag(C/dt) scales it by C_i/dt. These nf solves are the only
  // ones the operator ever runs.
  const std::size_t nf = free_nodes_.size();
  op_.tables.assign(2 * nf * nf, 0.0);
  std::vector<double> col(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    col.assign(nf, 0.0);
    col[i] = 1.0;
    lu.solve(col);
    ++stats_.solves;
    const double c_dt = nodes_[free_nodes_[i]].capacitance / dt_seconds;
    double* a_col = op_.tables.data() + i * nf;
    double* w_col = op_.tables.data() + (nf + i) * nf;
    for (std::size_t r = 0; r < nf; ++r) {
      a_col[r] = col[r] * c_dt;
      w_col[r] = col[r];
    }
  }
  op_.levels = 1;
  op_.dt = dt_seconds;
  return op_;
}

void RcNetwork::ensure_levels(StepOperator& op, std::uint64_t substeps) {
  const std::size_t levels = std::bit_width(substeps);
  if (op.levels >= levels) return;
  const std::size_t nf = free_nodes_.size();
  const std::size_t stride = 2 * nf * nf;
  op.tables.reserve(levels * stride);  // exact: no growth slack per machine
  op.tables.resize(levels * stride);
  for (; op.levels < levels; ++op.levels) {
    const double* cur = op.tables.data() + (op.levels - 1) * stride;
    double* next = op.tables.data() + op.levels * stride;
    // [A_(j+1) | W_(j+1)] = A_j·[A_j | W_j] + [0 | W_j]: squaring the power
    // and S_(2^(j+1)) = S_(2^j) + A^(2^j)·S_(2^j), both right-multiplied by
    // M⁻¹ already. Element (r, c) lives at c·nf + r.
    for (std::size_t c = 0; c < 2 * nf; ++c) {
      for (std::size_t r = 0; r < nf; ++r) {
        double acc = 0.0;
        for (std::size_t m = 0; m < nf; ++m) {
          acc += cur[m * nf + r] * cur[c * nf + m];
        }
        next[c * nf + r] = c < nf ? acc : cur[c * nf + r] + acc;
      }
    }
  }
}

void RcNetwork::assemble_input(double* u) const {
  const std::size_t nf = free_nodes_.size();
  for (std::size_t i = 0; i < nf; ++i) u[i] = powers_[free_nodes_[i]];
  for (const BoundaryTerm& b : boundary_) u[b.row] += b.g * temps_[b.fixed];
}

template <std::size_t N>
void RcNetwork::run_kernel(const StepOperator& op, std::uint64_t substeps,
                           double* x, double* y) {
  const std::size_t nf = free_nodes_.size();
  for (std::size_t i = 0; i < nf; ++i) x[i] = temps_[free_nodes_[i]];
  assemble_input(x + nf);
  apply_lifted<N>(op.tables.data(), substeps, x, y, nf);
  for (std::size_t i = 0; i < nf; ++i) temps_[free_nodes_[i]] = x[i];
}

void RcNetwork::propagate(const StepOperator& op, std::uint64_t substeps) {
  const std::size_t nf = free_nodes_.size();
  if (nf == kFloorplanFreeNodes) {
    double x[2 * kFloorplanFreeNodes];
    run_kernel<kFloorplanFreeNodes>(op, substeps, x, nullptr);
  } else {
    x_.resize(2 * nf);
    y_.resize(nf);
    run_kernel<0>(op, substeps, x_.data(), y_.data());
  }
  stats_.matvecs += 2 * static_cast<std::uint64_t>(std::popcount(substeps));
  stats_.substeps += substeps;
}

void RcNetwork::step(double dt_seconds) {
  assert(dt_seconds > 0.0);
  propagate(operator_for(dt_seconds), 1);
}

void RcNetwork::advance(double dt_seconds, std::uint64_t substeps) {
  assert(dt_seconds > 0.0);
  if (substeps == 0) return;
  StepOperator& op = operator_for(dt_seconds);
  ensure_levels(op, substeps);
  propagate(op, substeps);
  // A single substep is a plain step, as it always was for the counters.
  if (substeps > 1) stats_.fast_forward_steps += substeps;
}

bool RcNetwork::steady_rise(const std::vector<double>& power,
                            std::vector<double>& rise) {
  ensure_structure();
  if (!steady_lu_.valid() &&
      !steady_lu_.factor(
          system_matrix(std::numeric_limits<double>::infinity()))) {
    return false;
  }
  const std::size_t nf = free_nodes_.size();
  x_.resize(nf);
  for (std::size_t i = 0; i < nf; ++i) x_[i] = power.at(free_nodes_[i]);
  steady_lu_.solve(x_);
  rise.assign(nodes_.size(), 0.0);
  for (std::size_t i = 0; i < nf; ++i) rise[free_nodes_[i]] = x_[i];
  return true;
}

void RcNetwork::solve_steady_state() {
  // Steady state is the dt -> infinity limit: G T = u.
  ensure_structure();
  if (!steady_lu_.valid() &&
      !steady_lu_.factor(
          system_matrix(std::numeric_limits<double>::infinity()))) {
    throw std::runtime_error(
        "thermal network has a free node with no path to a fixed node");
  }
  const std::size_t nf = free_nodes_.size();
  x_.resize(nf);
  assemble_input(x_.data());
  steady_lu_.solve(x_);
  for (std::size_t i = 0; i < nf; ++i) temps_[free_nodes_[i]] = x_[i];
}

}  // namespace dimetrodon::thermal
