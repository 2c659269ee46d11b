#include "thermal/linalg.hpp"

#include <cassert>
#include <cmath>

namespace dimetrodon::thermal {

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
