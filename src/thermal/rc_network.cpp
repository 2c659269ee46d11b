#include "thermal/rc_network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dimetrodon::thermal {

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
  free_index_.assign(nodes_.size(), std::numeric_limits<std::size_t>::max());
  free_nodes_.clear();
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].fixed) {
      free_index_[n] = free_nodes_.size();
      free_nodes_.push_back(n);
    }
  }
  op_ = StepOperator{};
  built_revision_ = topology_revision_;
}

RcNetwork::StepOperator& RcNetwork::operator_for(double dt_seconds) {
  ensure_structure();
  if (op_.dt == dt_seconds) return op_;

  const std::size_t nf = free_nodes_.size();
  DenseMatrix a(nf);
  // Implicit Euler: (C/dt + G_free) T' = C/dt T + P + G_boundary T_fixed.
  // Here we assemble M = C/dt + G over free nodes; boundary coupling moves to
  // the right-hand side at solve time.
  for (std::size_t i = 0; i < nf; ++i) {
    a.at(i, i) = nodes_[free_nodes_[i]].capacitance / dt_seconds;
  }
  for (const Edge& e : edges_) {
    const std::size_t ia = free_index_[e.a];
    const std::size_t ib = free_index_[e.b];
    if (ia != std::numeric_limits<std::size_t>::max()) a.at(ia, ia) += e.g;
    if (ib != std::numeric_limits<std::size_t>::max()) a.at(ib, ib) += e.g;
    if (ia != std::numeric_limits<std::size_t>::max() &&
        ib != std::numeric_limits<std::size_t>::max()) {
      a.at(ia, ib) -= e.g;
      a.at(ib, ia) -= e.g;
    }
  }

  // A new dt replaces the held operator and its lifted tables. dt is set
  // only after a successful factorization, so a singular matrix throws again
  // on the next call instead of handing out an unusable operator.
  op_ = StepOperator{};
  if (!op_.lu.factor(a)) {
    throw std::runtime_error("thermal step matrix is singular");
  }
  op_.dt = dt_seconds;
  ++stats_.factorizations;
  return op_;
}

void RcNetwork::ensure_levels(StepOperator& op, std::uint64_t substeps) {
  const std::size_t levels = std::bit_width(substeps);
  if (op.a_pow.size() >= levels) return;
  const std::size_t nf = free_nodes_.size();
  if (op.a_pow.empty()) {
    // A = M⁻¹ · diag(C/dt): column i is (C_i/dt) · M⁻¹ e_i.
    DenseMatrix a(nf);
    std::vector<double> col(nf);
    for (std::size_t i = 0; i < nf; ++i) {
      col.assign(nf, 0.0);
      col[i] = nodes_[free_nodes_[i]].capacitance / op.dt;
      op.lu.solve(col);
      ++stats_.solves;
      for (std::size_t r = 0; r < nf; ++r) a.at(r, i) = col[r];
    }
    op.a_pow.push_back(std::move(a));
    op.s_geo.push_back(DenseMatrix::identity(nf));
  }
  while (op.a_pow.size() < levels) {
    const DenseMatrix& aj = op.a_pow.back();
    const DenseMatrix& sj = op.s_geo.back();
    // A^(2^(j+1)) = A^(2^j)·A^(2^j);  S_(2^(j+1)) = S_(2^j) + A^(2^j)·S_(2^j).
    op.s_geo.push_back(matadd(sj, matmul(aj, sj)));
    op.a_pow.push_back(matmul(aj, aj));
  }
}

void RcNetwork::assemble_input(std::vector<double>& rhs) const {
  const std::size_t nf = free_nodes_.size();
  rhs.assign(nf, 0.0);
  for (std::size_t i = 0; i < nf; ++i) rhs[i] = powers_[free_nodes_[i]];
  for (const Edge& e : edges_) {
    const std::size_t ia = free_index_[e.a];
    const std::size_t ib = free_index_[e.b];
    const bool a_free = ia != std::numeric_limits<std::size_t>::max();
    const bool b_free = ib != std::numeric_limits<std::size_t>::max();
    if (a_free && !b_free) rhs[ia] += e.g * temps_[e.b];
    if (b_free && !a_free) rhs[ib] += e.g * temps_[e.a];
  }
}

void RcNetwork::step(double dt_seconds) {
  assert(dt_seconds > 0.0);
  StepOperator& op = operator_for(dt_seconds);
  const std::size_t nf = free_nodes_.size();
  // Summation order matches the historical stepper exactly so this path is
  // bit-identical to it (the parity tests pin fast vs sequential to it).
  rhs_.assign(nf, 0.0);
  for (std::size_t i = 0; i < nf; ++i) {
    const NodeId n = free_nodes_[i];
    rhs_[i] = nodes_[n].capacitance / dt_seconds * temps_[n] + powers_[n];
  }
  for (const Edge& e : edges_) {
    const std::size_t ia = free_index_[e.a];
    const std::size_t ib = free_index_[e.b];
    const bool a_free = ia != std::numeric_limits<std::size_t>::max();
    const bool b_free = ib != std::numeric_limits<std::size_t>::max();
    if (a_free && !b_free) rhs_[ia] += e.g * temps_[e.b];
    if (b_free && !a_free) rhs_[ib] += e.g * temps_[e.a];
  }
  op.lu.solve(rhs_);
  ++stats_.solves;
  ++stats_.substeps;
  for (std::size_t i = 0; i < nf; ++i) temps_[free_nodes_[i]] = rhs_[i];
}

void RcNetwork::advance(double dt_seconds, std::uint64_t substeps) {
  assert(dt_seconds > 0.0);
  if (substeps == 0) return;
  if (substeps == 1) {
    // Same arithmetic as the sequential reference: bit-identical.
    step(dt_seconds);
    return;
  }
  StepOperator& op = operator_for(dt_seconds);
  ensure_levels(op, substeps);
  const std::size_t nf = free_nodes_.size();

  // Constant input term b = M⁻¹ (P + G_b T_fixed).
  std::vector<double>& b = rhs_;
  assemble_input(b);
  op.lu.solve(b);
  ++stats_.solves;

  std::vector<double>& t = state_;
  t.resize(nf);
  for (std::size_t i = 0; i < nf; ++i) t[i] = temps_[free_nodes_[i]];

  // Apply set bits LSB→MSB; each level-j application advances 2^j substeps:
  // T ← A^(2^j)·T + S_(2^j)·b. Order is fixed, so results are deterministic.
  for (std::size_t j = 0; substeps >> j; ++j) {
    if (((substeps >> j) & 1u) == 0) continue;
    matvec(op.a_pow[j], t, scratch_);
    matvec_accumulate(op.s_geo[j], b, scratch_);
    t.swap(scratch_);
    stats_.matvecs += 2;
  }
  stats_.substeps += substeps;
  stats_.fast_forward_steps += substeps;
  for (std::size_t i = 0; i < nf; ++i) temps_[free_nodes_[i]] = t[i];
}

void RcNetwork::solve_steady_state() {
  // Steady state is the dt -> infinity limit; assemble G alone.
  ensure_structure();
  const std::size_t nf = free_nodes_.size();
  DenseMatrix g(nf);
  assemble_input(rhs_);
  for (const Edge& e : edges_) {
    const std::size_t ia = free_index_[e.a];
    const std::size_t ib = free_index_[e.b];
    const bool a_free = ia != std::numeric_limits<std::size_t>::max();
    const bool b_free = ib != std::numeric_limits<std::size_t>::max();
    if (a_free) g.at(ia, ia) += e.g;
    if (b_free) g.at(ib, ib) += e.g;
    if (a_free && b_free) {
      g.at(ia, ib) -= e.g;
      g.at(ib, ia) -= e.g;
    }
  }
  LuFactorization lu;
  if (!lu.factor(g)) {
    throw std::runtime_error(
        "thermal network has a free node with no path to a fixed node");
  }
  lu.solve(rhs_);
  for (std::size_t i = 0; i < nf; ++i) temps_[free_nodes_[i]] = rhs_[i];
}

}  // namespace dimetrodon::thermal
