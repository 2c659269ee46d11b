#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dimetrodon::thermal {

/// Minimal dense linear algebra for the small (≤ ~16 node) thermal networks
/// this library builds. Row-major square matrices.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) : n_(n), a_(n * n, 0.0) {}

  /// The n×n identity.
  static DenseMatrix identity(std::size_t n) {
    DenseMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
    return m;
  }

  std::size_t size() const { return n_; }
  double& at(std::size_t r, std::size_t c) { return a_[r * n_ + c]; }
  double at(std::size_t r, std::size_t c) const { return a_[r * n_ + c]; }
  /// Contiguous row `r` (n elements, row-major) — the matvec kernels stream
  /// rows directly instead of re-deriving the offset per element.
  const double* row(std::size_t r) const { return a_.data() + r * n_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> a_;
};

/// y = M x. `x` must have M.size() elements; `y` is resized. `y` must not
/// alias `x`.
///
/// The kernel unrolls each row's dot product 4x while KEEPING the single
/// accumulator and the term order — every `acc += a[c] * x[c]` of the naive
/// loop executes in the same sequence on the same chain, so the result is
/// bitwise-identical to matvec_reference under any -ffp-contract setting
/// (contraction fuses each term's multiply-add the same way in both). The
/// unroll buys straight-line instruction-level parallelism on the loads and
/// amortized loop overhead, not a reassociated (and differently-rounded)
/// reduction.
void matvec(const DenseMatrix& m, const std::vector<double>& x,
            std::vector<double>& y);

/// y += M x (same contracts and parity guarantee as matvec).
void matvec_accumulate(const DenseMatrix& m, const std::vector<double>& x,
                       std::vector<double>& y);

/// The textbook row-loop matvec, kept as the parity oracle: tests assert
/// the unrolled kernels match it bit-for-bit, and the microbench reports
/// the unroll's speedup against it.
void matvec_reference(const DenseMatrix& m, const std::vector<double>& x,
                      std::vector<double>& y);

/// Compressed-sparse-row view of a square matrix, built by dropping *exact*
/// zeros from a DenseMatrix. Because only exact zeros are dropped and each
/// row's entries stay in column order, the CSR matvec performs the identical
/// sequence of fused `acc += v * x[c]` operations as the dense matvec over
/// the same matrix — bitwise-identical results for finite inputs, not merely
/// close. That is the property the thermal propagator relies on: switching
/// dense -> sparse must not perturb a single ulp of any temperature.
///
/// The propagator powers A^(2^j) are block-dense: entries couple free nodes
/// within one connected component (components are separated by fixed
/// boundary nodes, e.g. per-rack air networks joined only through the fixed
/// CRAC node) and are exact zeros across components — LU with partial
/// pivoting, matmul, and matadd all preserve those structural zeros exactly.
/// So fill ratio falls as 1/#components and the CSR walk skips whole blocks.
///
/// Layout is SIMD/prefetch-friendly: one contiguous value array and one
/// contiguous column-index array, walked linearly per row.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build from a dense matrix, keeping entries with `v != 0.0` only.
  static SparseMatrix from_dense(const DenseMatrix& m);

  std::size_t size() const { return n_; }
  std::size_t nonzeros() const { return values_.size(); }
  /// nnz / n², in [0, 1]. 0 for an empty matrix.
  double fill_ratio() const {
    return n_ == 0 ? 0.0
                   : static_cast<double>(values_.size()) /
                         (static_cast<double>(n_) * static_cast<double>(n_));
  }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& cols() const { return cols_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;    // n+1 entries
  std::vector<std::uint32_t> cols_;     // column index per stored value
  std::vector<double> values_;
};

/// y = M x (CSR). Bitwise-identical to the dense matvec over the matrix the
/// CSR was built from. `y` is resized; must not alias `x`. Unrolled 4x on
/// the same single-accumulator chain as the dense kernel (see matvec above
/// for why that preserves every bit).
void matvec(const SparseMatrix& m, const std::vector<double>& x,
            std::vector<double>& y);

/// y += M x (CSR; same contracts and parity guarantee).
void matvec_accumulate(const SparseMatrix& m, const std::vector<double>& x,
                       std::vector<double>& y);

/// Naive CSR matvec — the parity oracle for the unrolled CSR kernel.
void matvec_reference(const SparseMatrix& m, const std::vector<double>& x,
                      std::vector<double>& y);

/// C = A B (A, B same size; C must not alias either operand).
DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b);

/// C = A + B.
DenseMatrix matadd(const DenseMatrix& a, const DenseMatrix& b);

/// LU factorization with partial pivoting. Factor once, solve many times —
/// the implicit-Euler thermal stepper reuses one factorization for every
/// substep at a fixed dt.
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
