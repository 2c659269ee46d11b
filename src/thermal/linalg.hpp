#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace dimetrodon::thermal {

/// Minimal dense linear algebra for the small (≤ ~16 node) thermal networks
/// this library builds. Row-major square matrices.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) : n_(n), a_(n * n, 0.0) {}

  std::size_t size() const { return n_; }
  double& at(std::size_t r, std::size_t c) { return a_[r * n_ + c]; }
  double at(std::size_t r, std::size_t c) const { return a_[r * n_ + c]; }

 private:
  std::size_t n_ = 0;
  std::vector<double> a_;
};

/// The fused propagator kernel. `tables` holds lifted levels back to back:
/// level j is the n × 2n table [A^(2^j) | W_j] at offset j·2n², stored
/// column by column (element (r, c) at c·n + r) so each step of the sum
/// streams one contiguous column. `x` is [T ; u] (2n doubles); for each set
/// bit j of `k`, LSB first, T ← table_j · x, so on return x[0, n) holds T
/// advanced k substeps and x[n, 2n) is untouched. `y` is n doubles of
/// scratch, used only when N = 0.
///
/// Each output row is one accumulator summed in column order, so every
/// instantiation computes the same bits: N = 0 takes n at runtime; an even
/// N > 0 fixes it at compile time and runs rows in pairs on two-lane
/// vectors, each lane the same multiply-then-add chain as the scalar loop.
template <std::size_t N = 0>
inline void apply_lifted(const double* tables, std::uint64_t k, double* x,
                         double* y, std::size_t n = N) {
  static_assert(N % 2 == 0, "the fixed-size kernel pairs rows");
  const std::size_t nf = N > 0 ? N : n;
  for (std::size_t j = 0; k >> j; ++j) {
    if (((k >> j) & 1u) == 0) continue;
    const double* t = tables + j * 2 * nf * nf;
    if constexpr (N > 0) {
      using Pair = double __attribute__((vector_size(16)));
      Pair acc[N / 2] = {};
      for (std::size_t c = 0; c < 2 * N; ++c) {
        const Pair xc = {x[c], x[c]};
        for (std::size_t p = 0; p < N / 2; ++p) {
          Pair col;
          std::memcpy(&col, t + c * N + 2 * p, sizeof col);
          acc[p] += col * xc;
        }
      }
      for (std::size_t p = 0; p < N / 2; ++p) {
        x[2 * p] = acc[p][0];
        x[2 * p + 1] = acc[p][1];
      }
    } else {
      for (std::size_t r = 0; r < nf; ++r) y[r] = 0.0;
      for (std::size_t c = 0; c < 2 * nf; ++c) {
        const double xc = x[c];
        for (std::size_t r = 0; r < nf; ++r) y[r] += t[c * nf + r] * xc;
      }
      for (std::size_t r = 0; r < nf; ++r) x[r] = y[r];
    }
  }
}

/// LU factorization with partial pivoting. Factor once, solve many times —
/// the thermal network builds each step operator's tables from nf unit
/// solves against one factorization, and reuses the steady-state one.
class LuFactorization {
 public:
  /// Factor `m`. Returns false (and leaves the object unusable) if the matrix
  /// is numerically singular.
  bool factor(const DenseMatrix& m);

  /// Solve A x = b in place; `b` must have size() elements.
  /// Requires a successful factor(). Allocation-free after the first call
  /// (the permuted solution is built in a member buffer that trades places
  /// with `b`), hence non-const.
  void solve(std::vector<double>& b);

  bool valid() const { return valid_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  std::vector<double> work_;  // solve() scratch
  bool valid_ = false;
};

}  // namespace dimetrodon::thermal
