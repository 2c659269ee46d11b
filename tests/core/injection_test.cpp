#include "core/injection.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dimetrodon::core {
namespace {

TEST(InjectionParamsTest, EnabledRequiresPositivePAndL) {
  EXPECT_FALSE(InjectionParams{}.enabled());
  EXPECT_FALSE((InjectionParams{0.0, sim::from_ms(10)}).enabled());
  EXPECT_FALSE((InjectionParams{0.5, 0}).enabled());
  EXPECT_TRUE((InjectionParams{0.5, sim::from_ms(10)}).enabled());
}

class BernoulliRate : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliRate, LongRunRateMatchesP) {
  const double p = GetParam();
  BernoulliInjection policy{sim::Rng(1234)};
  const InjectionParams params{p, sim::from_ms(10)};
  const int n = 100000;
  int injected = 0;
  for (int i = 0; i < n; ++i) {
    if (policy.decide(1, params, 0).has_value()) ++injected;
  }
  const double rate = static_cast<double>(injected) / n;
  EXPECT_NEAR(rate, p, 4.0 * std::sqrt(p * (1 - p) / n));
}

INSTANTIATE_TEST_SUITE_P(Probabilities, BernoulliRate,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75));

TEST(BernoulliInjectionTest, ReturnsConfiguredQuantum) {
  BernoulliInjection policy{sim::Rng(1)};
  const InjectionParams params{1.0, sim::from_ms(25)};
  const auto q = policy.decide(1, params, 0);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, sim::from_ms(25));
}

TEST(BernoulliInjectionTest, IndependentOfThreadId) {
  // Bernoulli keeps no per-thread state.
  BernoulliInjection policy{sim::Rng(1)};
  const InjectionParams params{0.5, sim::from_ms(5)};
  EXPECT_NO_THROW((void)policy.decide(42, params, 0));
}

class StratifiedRate : public ::testing::TestWithParam<double> {};

TEST_P(StratifiedRate, ExactProportionOverWindow) {
  // The deterministic policy's count after N decisions is floor-exact: the
  // paper's suggested "more deterministic model ... smoother curves".
  const double p = GetParam();
  StratifiedInjection policy;
  const InjectionParams params{p, sim::from_ms(10)};
  const int n = 10000;
  int injected = 0;
  for (int i = 0; i < n; ++i) {
    if (policy.decide(7, params, 0).has_value()) ++injected;
  }
  EXPECT_NEAR(static_cast<double>(injected) / n, p, 1.0 / n + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, StratifiedRate,
                         ::testing::Values(0.1, 0.25, 0.333, 0.5, 0.75));

TEST(StratifiedInjectionTest, NeverTwoInARowBelowHalf) {
  StratifiedInjection policy;  // staggering shifts phase, not spacing
  const InjectionParams params{0.4, sim::from_ms(10)};
  bool prev = false;
  for (int i = 0; i < 1000; ++i) {
    const bool now = policy.decide(1, params, 0).has_value();
    EXPECT_FALSE(prev && now) << "consecutive injections at p<0.5";
    prev = now;
  }
}

TEST(StratifiedInjectionTest, StaggeredPhasesDifferAcrossThreads) {
  // With staggering, different threads' first-injection positions differ.
  StratifiedInjection policy;
  const InjectionParams params{0.25, sim::from_ms(10)};
  auto first_injection = [&](sched::ThreadId tid) {
    for (int i = 0; i < 16; ++i) {
      if (policy.decide(tid, params, 0).has_value()) return i;
    }
    return -1;
  };
  const int a = first_injection(10);
  const int b = first_injection(11);
  EXPECT_NE(a, -1);
  EXPECT_NE(b, -1);
  EXPECT_NE(a, b);
}

TEST(StratifiedInjectionTest, PerThreadAccumulatorsIndependent) {
  StratifiedInjection policy(/*stagger_phases=*/false);
  const InjectionParams params{0.5, sim::from_ms(10)};
  // Thread 1 consumes three decisions; thread 2's pattern must be unaffected.
  (void)policy.decide(1, params, 0);
  (void)policy.decide(1, params, 0);
  (void)policy.decide(1, params, 0);
  EXPECT_FALSE(policy.decide(2, params, 0).has_value());
  EXPECT_TRUE(policy.decide(2, params, 0).has_value());
}

}  // namespace
}  // namespace dimetrodon::core
