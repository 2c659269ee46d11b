#include "thermal/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dimetrodon::thermal {
namespace {

TEST(LinalgTest, SolvesIdentity) {
  DenseMatrix m(3);
  for (std::size_t i = 0; i < 3; ++i) m.at(i, i) = 1.0;
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b{1.0, 2.0, 3.0};
  lu.solve(b);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 3.0);
}

TEST(LinalgTest, SolvesKnown2x2) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  DenseMatrix m(2);
  m.at(0, 0) = 2;
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  m.at(1, 1) = 3;
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b{5.0, 10.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(LinalgTest, PivotingHandlesZeroDiagonal) {
  // [0 1; 1 0] requires a row swap.
  DenseMatrix m(2);
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b{7.0, 9.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 9.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0, 1e-12);
}

TEST(LinalgTest, DetectsSingularMatrix) {
  DenseMatrix m(2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(1, 1) = 4;  // rank 1
  LuFactorization lu;
  EXPECT_FALSE(lu.factor(m));
  EXPECT_FALSE(lu.valid());
}

TEST(LinalgTest, SolveManyRhsReusesFactorization) {
  DenseMatrix m(2);
  m.at(0, 0) = 4;
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  m.at(1, 1) = 3;
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(m));
  for (double k = 1.0; k < 5.0; k += 1.0) {
    std::vector<double> b{5.0 * k, 4.0 * k};
    lu.solve(b);
    EXPECT_NEAR(4 * b[0] + b[1], 5.0 * k, 1e-10);
    EXPECT_NEAR(b[0] + 3 * b[1], 4.0 * k, 1e-10);
  }
}

TEST(LinalgTest, RandomSpdSystemResidual) {
  // Diagonally dominant 6x6 (like a thermal conductance matrix).
  const std::size_t n = 6;
  DenseMatrix m(n);
  unsigned state = 12345;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state % 1000) / 1000.0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        m.at(i, j) = -next();
        row += -m.at(i, j);
      }
    }
    m.at(i, i) = row + 1.0;
  }
  LuFactorization lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b(n);
  for (auto& v : b) v = next() * 10.0;
  std::vector<double> x = b;
  lu.solve(x);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += m.at(i, j) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

TEST(LinalgTest, UnrolledMatvecBitIdenticalToReference) {
  // The unrolled kernels keep the reference's single accumulator and term
  // order, so they must match it BITWISE — at sizes that exercise the full
  // 4x body, the scalar tail alone, and every mix of the two.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 33u}) {
    SCOPED_TRACE(n);
    DenseMatrix m(n);
    unsigned state = 7u + static_cast<unsigned>(n);
    auto next = [&state]() {
      state = state * 1664525u + 1013904223u;
      return static_cast<double>(state % 100000) / 9973.0 - 5.0;
    };
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) m.at(r, c) = next();
    }
    std::vector<double> x(n);
    for (auto& v : x) v = next();

    std::vector<double> fast, ref;
    matvec(m, x, fast);
    matvec_reference(m, x, ref);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(fast[i], ref[i]) << i;

    std::vector<double> af(n, 0.5), ar(n, 0.5);
    matvec_accumulate(m, x, af);
    // The reference accumulate is the naive loop applied on top of y.
    std::vector<double> tmp;
    matvec_reference(m, x, tmp);
    for (std::size_t i = 0; i < n; ++i) ar[i] += tmp[i];
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(af[i], ar[i]) << i;
  }
}

}  // namespace
}  // namespace dimetrodon::thermal
