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

}  // namespace
}  // namespace dimetrodon::thermal
