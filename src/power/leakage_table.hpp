#pragma once

#include <array>

namespace dimetrodon::power {

/// The temperature factor of leakage, f(x) = exp(k·Tsat·tanh(x)) with
/// x = (T − T0)/Tsat, as a table of piecewise polynomials fitted once from
/// the closed form (DESIGN.md §4).
///
/// Over x ∈ [−20, 20) the domain is cut into cells of width 1/32. Each cell
/// holds a degree-7 polynomial in s = (x − mid)·64 ∈ [−1, 1], its eight
/// coefficients filling one 64-byte line, evaluated by Estrin's scheme. For
/// |x| ≥ 20 tanh(x) rounds to ±1 in double, and the table returns
/// exp(±k·Tsat) computed once by the closed form, bit for bit what the
/// closed form returns there. NaN propagates. At the calibrated parameters
/// the kernel is within 4 ulp of the double-precision closed form
/// (tests/power/power_model_test.cpp); the fit error grows with |k·Tsat|.
///
/// Tables are immutable and shared: LeakageTable::shared() keeps one per
/// distinct (k, Tsat) bit pattern for the life of the process, the way an
/// energy model builds its power table once and every CPU reads it.
class LeakageTable {
 public:
  static constexpr double kHalfWidth = 20.0;  // |x| beyond: tanh(x) == ±1
  static constexpr int kCellsPerUnit = 32;
  static constexpr int kCells =
      2 * static_cast<int>(kHalfWidth) * kCellsPerUnit;
  static constexpr int kDegree = 7;

  /// One cell's polynomial coefficients, lowest order first.
  struct alignas(64) Cell {
    std::array<double, kDegree + 1> c;
  };
  static_assert(sizeof(Cell) == 64, "one cell fills one cache line");

  /// The process-wide table for (k, Tsat), fitted on first request. Thread
  /// safe; the returned table lives until the process exits.
  static const LeakageTable& shared(double k, double tsat);

  /// Fits the table from the closed form in long double at Chebyshev nodes:
  /// a deterministic, pure function of (k, Tsat). Requires Tsat > 0.
  LeakageTable(double k, double tsat);

  /// f(x) = exp(k·Tsat·tanh(x)).
  double operator()(double x) const;

  /// The fitted coefficients; cell i covers [−20 + i/32, −20 + (i+1)/32).
  const std::array<Cell, kCells>& cells() const { return cells_; }

 private:
  double saturated_lo_;  // exp(k·(Tsat·−1)): the closed form for x ≤ −20
  double saturated_hi_;  // exp(k·(Tsat·1)): the closed form for x ≥ 20
  std::array<Cell, kCells> cells_;
};

}  // namespace dimetrodon::power
