#include "power/leakage_table.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

namespace dimetrodon::power {
namespace {

constexpr int kNodes = LeakageTable::kDegree + 1;
// s = (x − mid)·kScale spans [−1, 1] over a cell; both factors are dyadic,
// so s is exact.
constexpr double kScale = 2.0 * LeakageTable::kCellsPerUnit;

// Cell i's midpoint, −20 + (i + ½)/32: a multiple of 1/64 below 20 in
// magnitude, so exact in double.
double cell_mid(int i) {
  return (2 * i + 1) * (1.0 / kScale) - LeakageTable::kHalfWidth;
}

// The fit's fixed part, shared by every cell: the Chebyshev nodes t_j on
// [−1, 1] and the map W from the samples f(t_j) to the monomial coefficients
// of the interpolant, c_n = Σ_j W[n][j]·f(t_j).
struct ChebyshevFit {
  std::array<long double, kNodes> nodes;
  std::array<std::array<long double, kNodes>, kNodes> weights;

  ChebyshevFit() {
    const long double pi = 3.141592653589793238462643383279502884L;
    // basis[m][j] = T_m(t_j) = cos(m·θ_j), hoisted out of the per-cell loop.
    std::array<std::array<long double, kNodes>, kNodes> basis{};
    for (int j = 0; j < kNodes; ++j) {
      const long double theta = pi * (2 * j + 1) / (2 * kNodes);
      nodes[j] = std::cos(theta);
      for (int m = 0; m < kNodes; ++m) basis[m][j] = std::cos(m * theta);
    }
    // mono[m][n]: the coefficient of s^n in T_m(s), from the recurrence
    // T_{m+1} = 2s·T_m − T_{m−1}.
    std::array<std::array<long double, kNodes>, kNodes> mono{};
    mono[0][0] = 1.0L;
    mono[1][1] = 1.0L;
    for (int m = 2; m < kNodes; ++m) {
      for (int n = 0; n < kNodes; ++n) {
        const long double up = n > 0 ? 2.0L * mono[m - 1][n - 1] : 0.0L;
        mono[m][n] = up - mono[m - 2][n];
      }
    }
    // Chebyshev coefficient a_m = (2/N)·Σ_j f_j·T_m(t_j), halved for m = 0.
    for (int n = 0; n < kNodes; ++n) {
      for (int j = 0; j < kNodes; ++j) {
        long double w = 0.0L;
        for (int m = 0; m < kNodes; ++m) {
          const long double a = (m == 0 ? 1.0L : 2.0L) / kNodes;
          w += a * mono[m][n] * basis[m][j];
        }
        weights[n][j] = w;
      }
    }
  }
};

}  // namespace

LeakageTable::LeakageTable(double k, double tsat)
    : saturated_lo_(std::exp(k * (tsat * -1.0))),
      saturated_hi_(std::exp(k * (tsat * 1.0))) {
  static const ChebyshevFit fit;
  const long double kl = k;
  const long double tl = tsat;
  for (int i = 0; i < kCells; ++i) {
    const long double mid = cell_mid(i);
    std::array<long double, kNodes> f{};
    for (int j = 0; j < kNodes; ++j) {
      const long double x = mid + fit.nodes[j] / kScale;
      f[j] = std::exp(kl * (tl * std::tanh(x)));
    }
    for (int n = 0; n < kNodes; ++n) {
      long double c = 0.0L;
      for (int j = 0; j < kNodes; ++j) c += fit.weights[n][j] * f[j];
      cells_[i].c[n] = static_cast<double>(c);
    }
  }
}

double LeakageTable::operator()(double x) const {
  if (!(std::fabs(x) < kHalfWidth)) {
    if (std::isnan(x)) return x;
    return x > 0.0 ? saturated_hi_ : saturated_lo_;
  }
  // (x + 20)·32 may round up across a cell edge (or to kCells); s then sits
  // a hair outside [−1, 1], where the cell's polynomial is still accurate.
  int i = static_cast<int>((x + kHalfWidth) * kCellsPerUnit);
  if (i >= kCells) i = kCells - 1;
  // Subtracting the midpoint is exact; computing s from (x + 20)·32 instead
  // would round away up to 44 ulp.
  const double s = (x - cell_mid(i)) * kScale;
  const auto& c = cells_[i].c;
  const double s2 = s * s;
  const double s4 = s2 * s2;
  const double p01 = c[0] + c[1] * s;
  const double p23 = c[2] + c[3] * s;
  const double p45 = c[4] + c[5] * s;
  const double p67 = c[6] + c[7] * s;
  return (p01 + s2 * p23) + s4 * (p45 + s2 * p67);
}

const LeakageTable& LeakageTable::shared(double k, double tsat) {
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  static std::mutex mu;
  // Never destroyed: models on other threads may read a table during exit.
  static auto* const tables = new std::map<Key, const LeakageTable*>;
  const Key key{std::bit_cast<std::uint64_t>(k),
                std::bit_cast<std::uint64_t>(tsat)};
  const std::lock_guard<std::mutex> lock(mu);
  auto it = tables->find(key);
  if (it == tables->end()) {
    it = tables->emplace(key, new LeakageTable(k, tsat)).first;
  }
  return *it->second;
}

}  // namespace dimetrodon::power
