#pragma once

#include <cstddef>
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
