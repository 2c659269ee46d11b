#include "thermal/linalg.hpp"

#include <cassert>
#include <cmath>

namespace dimetrodon::thermal {

namespace {

/// Shared row kernel: one accumulator, terms in column order, unrolled 4x.
/// Each statement is the naive loop's body verbatim, so the emitted op
/// sequence (fused or not) is term-for-term identical to the reference —
/// the unroll exposes the four loads per iteration to the pipeline without
/// introducing a second rounding order.
inline double dot_row(const double* a, const double* xv, std::size_t n) {
  double acc = 0.0;
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    acc += a[c] * xv[c];
    acc += a[c + 1] * xv[c + 1];
    acc += a[c + 2] * xv[c + 2];
    acc += a[c + 3] * xv[c + 3];
  }
  for (; c < n; ++c) acc += a[c] * xv[c];
  return acc;
}

}  // namespace

void matvec(const DenseMatrix& m, const std::vector<double>& x,
            std::vector<double>& y) {
  const std::size_t n = m.size();
  assert(x.size() == n);
  y.resize(n);
  const double* xv = x.data();
  for (std::size_t r = 0; r < n; ++r) y[r] = dot_row(m.row(r), xv, n);
}

void matvec_accumulate(const DenseMatrix& m, const std::vector<double>& x,
                       std::vector<double>& y) {
  const std::size_t n = m.size();
  assert(x.size() == n && y.size() == n);
  const double* xv = x.data();
  for (std::size_t r = 0; r < n; ++r) y[r] += dot_row(m.row(r), xv, n);
}

void matvec_reference(const DenseMatrix& m, const std::vector<double>& x,
                      std::vector<double>& y) {
  const std::size_t n = m.size();
  assert(x.size() == n);
  y.assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c) acc += m.at(r, c) * x[c];
    y[r] = acc;
  }
}

DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b) {
  const std::size_t n = a.size();
  assert(b.size() == n);
  DenseMatrix c(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      const double f = a.at(r, k);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) c.at(r, j) += f * b.at(k, j);
    }
  }
  return c;
}

DenseMatrix matadd(const DenseMatrix& a, const DenseMatrix& b) {
  const std::size_t n = a.size();
  assert(b.size() == n);
  DenseMatrix c(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < n; ++j) c.at(r, j) = a.at(r, j) + b.at(r, j);
  }
  return c;
}

bool LuFactorization::factor(const DenseMatrix& m) {
  const std::size_t n = m.size();
  lu_ = m;
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  valid_ = false;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude in this column at/below the diagonal.
    std::size_t pivot = col;
    double best = std::fabs(lu_.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(lu_.at(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_.at(pivot, c), lu_.at(col, c));
      }
      std::swap(perm_[pivot], perm_[col]);
    }
    const double inv = 1.0 / lu_.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = lu_.at(r, col) * inv;
      lu_.at(r, col) = f;
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_.at(r, c) -= f * lu_.at(col, c);
      }
    }
  }
  valid_ = true;
  return true;
}

void LuFactorization::solve(std::vector<double>& b) {
  assert(valid_);
  const std::size_t n = lu_.size();
  assert(b.size() == n);
  std::vector<double>& x = work_;
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution (unit lower triangle).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_.at(i, j) * x[j];
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) x[ii] -= lu_.at(ii, j) * x[j];
    x[ii] /= lu_.at(ii, ii);
  }
  // Swap, not move: both buffers survive, so repeated solves never allocate.
  b.swap(x);
}

}  // namespace dimetrodon::thermal
