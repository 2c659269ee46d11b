#include "analysis/bootstrap.hpp"

#include <gtest/gtest.h>

namespace dimetrodon::analysis {
namespace {

TEST(BootstrapTest, IntervalContainsSampleMean) {
  const std::vector<double> sample{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const auto ci = bootstrap_mean_ci(sample);
  EXPECT_DOUBLE_EQ(ci.mean, 3.5);
  EXPECT_TRUE(ci.contains(ci.mean));
  EXPECT_LT(ci.lower, ci.upper);
}

TEST(BootstrapTest, SingleObservationCollapses) {
  const auto ci = bootstrap_mean_ci({42.0});
  EXPECT_DOUBLE_EQ(ci.lower, 42.0);
  EXPECT_DOUBLE_EQ(ci.upper, 42.0);
  EXPECT_DOUBLE_EQ(ci.half_width(), 0.0);
}

TEST(BootstrapTest, TighterWithMoreData) {
  std::vector<double> small;
  std::vector<double> large;
  sim::Rng rng(5);
  for (int i = 0; i < 10; ++i) small.push_back(rng.normal(10.0, 2.0));
  for (int i = 0; i < 1000; ++i) large.push_back(rng.normal(10.0, 2.0));
  const auto ci_small = bootstrap_mean_ci(small);
  const auto ci_large = bootstrap_mean_ci(large);
  EXPECT_LT(ci_large.half_width(), ci_small.half_width());
}

TEST(BootstrapTest, WiderAtHigherConfidence) {
  const std::vector<double> sample{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  const auto ci90 = bootstrap_mean_ci(sample, 0.90);
  const auto ci99 = bootstrap_mean_ci(sample, 0.99);
  EXPECT_GT(ci99.half_width(), ci90.half_width());
}

TEST(BootstrapTest, DeterministicGivenSeed) {
  const std::vector<double> sample{3, 1, 4, 1, 5, 9, 2, 6};
  const auto a = bootstrap_mean_ci(sample, 0.95, 500, 7);
  const auto b = bootstrap_mean_ci(sample, 0.95, 500, 7);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(BootstrapTest, CoversTrueMeanUsually) {
  // 95% CI over normal(0, 1) samples should cover 0 most of the time.
  sim::Rng rng(99);
  int covered = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> sample;
    for (int i = 0; i < 30; ++i) sample.push_back(rng.normal(0.0, 1.0));
    if (bootstrap_mean_ci(sample, 0.95, 500, 1000 + t).contains(0.0)) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 50);  // ~95% nominal; generous slack for small trials
}

TEST(BootstrapTest, RejectsInvalidInputs) {
  EXPECT_THROW(bootstrap_mean_ci({}), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci({1.0, 2.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci({1.0, 2.0}, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace dimetrodon::analysis
