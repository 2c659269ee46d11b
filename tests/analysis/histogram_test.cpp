#include "analysis/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.hpp"

namespace dimetrodon::analysis {
namespace {

TEST(PercentileHistogramTest, EmptyHistogramIsZero) {
  PercentileHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.percentile(99.0), 0.0);
}

TEST(PercentileHistogramTest, SingleValueEveryQuantile) {
  PercentileHistogram h;
  h.add(0.125);
  // min/max clamping makes every quantile of a one-value histogram exact.
  for (const double q : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), 0.125) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.mean(), 0.125);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
}

TEST(PercentileHistogramTest, ExactSumMinMaxIndependentOfBuckets) {
  PercentileHistogram h;
  double sum = 0.0;
  sim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.exponential(0.01);
    sum += v;
    h.add(v);
  }
  // Sum/mean/min/max are tracked exactly, not reconstructed from buckets.
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.mean(), sum / 1000.0);
  EXPECT_EQ(h.count(), 1000u);
}

TEST(PercentileHistogramTest, QuantilesWithinRelativeError) {
  // Log-linear layout with 64 sub-buckets: midpoint within ~0.8% of any
  // value in the bucket. Compare against exact nearest-rank quantiles of a
  // heavy-tailed sample.
  PercentileHistogram h;
  sim::Rng rng(42);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = 0.001 * std::exp(rng.normal(0.0, 1.5));
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const std::size_t rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(q / 100.0 * static_cast<double>(values.size()))));
    const double exact = values[rank - 1];
    const double approx = h.percentile(q);
    EXPECT_NEAR(approx, exact, exact * 0.01) << "q=" << q;
  }
}

TEST(PercentileHistogramTest, PercentilesAreMonotone) {
  PercentileHistogram h;
  sim::Rng rng(3);
  for (int i = 0; i < 5000; ++i) h.add(rng.exponential(0.5));
  double prev = 0.0;
  for (double q = 0.0; q <= 100.0; q += 2.5) {
    const double v = h.percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_GE(h.max(), prev);
}

TEST(PercentileHistogramTest, OutOfRangeValuesClampToEdgeBuckets) {
  PercentileHistogram h(1e-3, 1e3);
  h.add(1e-9);  // below min_value: first bucket, exact min still tracked
  h.add(1e9);   // above max_value: last bucket, exact max still tracked
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // Clamped into [min_seen, max_seen]: no bucket midpoint can escape the
  // observed range.
  EXPECT_GE(h.percentile(0.0), 1e-9);
  EXPECT_LE(h.percentile(100.0), 1e9);
}

TEST(PercentileHistogramTest, MergeMatchesCombinedStream) {
  PercentileHistogram a;
  PercentileHistogram b;
  PercentileHistogram combined;
  sim::Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.exponential(0.02);
    (i % 2 == 0 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Merge adds the two partial sums; only the addition order differs from
  // the combined stream, so the totals agree to rounding.
  EXPECT_NEAR(a.sum(), combined.sum(), combined.sum() * 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (const double q : {50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), combined.percentile(q)) << "q=" << q;
  }
}

TEST(PercentileHistogramTest, MergeRejectsDifferentLayouts) {
  PercentileHistogram a(1e-6, 1e5);
  PercentileHistogram b(1e-3, 1e3);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(PercentileHistogramTest, ResetClearsEverything) {
  PercentileHistogram h;
  for (int i = 0; i < 100; ++i) h.add(0.5 + i);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.percentile(99.0), 0.0);
  h.add(2.0);  // usable after reset
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 2.0);
}

TEST(PercentileHistogramTest, NonFiniteSamplesDroppedAndCounted) {
  PercentileHistogram h;
  h.add(1.0);
  h.add(2.0);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  // The three non-finite samples are dropped, not folded into any moment: a
  // single NaN would otherwise poison sum/mean for the whole run.
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.rejected(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  EXPECT_TRUE(std::isfinite(h.percentile(99.0)));
}

TEST(PercentileHistogramTest, MergeFoldsRejectedCounts) {
  PercentileHistogram a;
  PercentileHistogram b;
  a.add(1.0);
  a.add(std::numeric_limits<double>::quiet_NaN());
  b.add(2.0);
  b.add(std::numeric_limits<double>::infinity());
  b.add(std::numeric_limits<double>::quiet_NaN());
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.rejected(), 3u);
}

TEST(PercentileHistogramTest, MergeWithSelfDoublesEverything) {
  PercentileHistogram h;
  sim::Rng rng(3);
  for (int i = 0; i < 1000; ++i) h.add(rng.exponential(0.05));
  h.add(std::numeric_limits<double>::quiet_NaN());
  const std::uint64_t count = h.count();
  const double sum = h.sum();
  const double p50 = h.percentile(50.0);
  const double p99 = h.percentile(99.0);
  h.merge(h);
  EXPECT_EQ(h.count(), 2 * count);
  EXPECT_DOUBLE_EQ(h.sum(), 2 * sum);
  EXPECT_EQ(h.rejected(), 2u);
  // Doubling every bucket leaves the distribution — hence every quantile —
  // unchanged.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), p50);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), p99);
}

TEST(PercentileHistogramTest, MergeWithEmptyIsIdentity) {
  PercentileHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(0.01 * i);
  const std::uint64_t count = h.count();
  const double sum = h.sum();
  const double p95 = h.percentile(95.0);
  PercentileHistogram empty;
  h.merge(empty);
  EXPECT_EQ(h.count(), count);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.percentile(95.0), p95);
  EXPECT_EQ(h.rejected(), 0u);
  // And merging INTO an empty histogram reproduces the source.
  empty.merge(h);
  EXPECT_EQ(empty.count(), count);
  EXPECT_DOUBLE_EQ(empty.sum(), sum);
  EXPECT_DOUBLE_EQ(empty.percentile(95.0), p95);
}

// --- lazy bucket storage ------------------------------------------------------
// The bucket array is allocated on the first finite add() or the first
// non-empty merge(); the layout (num_buckets()) is fixed at construction.

// Default layout [1e-6, 1e5]: frexp exponents -19 .. 17, 37 octaves of 64.
constexpr std::size_t kDefaultBuckets = 37 * 64;

TEST(PercentileHistogramTest, EmptyHistogramOwnsNoBuckets) {
  PercentileHistogram h;
  EXPECT_EQ(h.num_buckets(), kDefaultBuckets);
  EXPECT_FALSE(h.has_buckets());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  for (const double q : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(q), 0.0) << "q=" << q;
  }
  h.add(0.5);
  EXPECT_TRUE(h.has_buckets());
  EXPECT_EQ(h.num_buckets(), kDefaultBuckets);
}

TEST(PercentileHistogramTest, NonFiniteOnlyHistogramOwnsNoBuckets) {
  PercentileHistogram h;
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.rejected(), 3u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_FALSE(h.has_buckets());
  EXPECT_EQ(h.percentile(99.0), 0.0);
  // Folding a rejects-only histogram carries the count, not storage.
  PercentileHistogram into;
  into.merge(h);
  EXPECT_EQ(into.rejected(), 3u);
  EXPECT_FALSE(into.has_buckets());
}

TEST(PercentileHistogramTest, LazyMergesMatchDirectAdds) {
  sim::Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.exponential(0.02));

  // Empty into empty: still no storage.
  PercentileHistogram a;
  PercentileHistogram b;
  a.merge(b);
  EXPECT_FALSE(a.has_buckets());
  EXPECT_EQ(a.count(), 0u);

  PercentileHistogram direct;
  for (const double v : values) direct.add(v);

  // Empty into full: unchanged.
  PercentileHistogram full;
  for (const double v : values) full.add(v);
  full.merge(PercentileHistogram{});
  // Full into empty: allocates and reproduces the direct adds exactly.
  PercentileHistogram from_empty;
  from_empty.merge(full);
  EXPECT_TRUE(from_empty.has_buckets());

  for (const PercentileHistogram* h : {&full, &from_empty}) {
    EXPECT_EQ(h->count(), direct.count());
    EXPECT_EQ(h->sum(), direct.sum());
    EXPECT_EQ(h->min(), direct.min());
    EXPECT_EQ(h->max(), direct.max());
    EXPECT_EQ(h->num_buckets(), direct.num_buckets());
    for (const double q : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(h->percentile(q), direct.percentile(q)) << "q=" << q;
    }
  }
}

TEST(PercentileHistogramTest, ResetBeforeFirstAddStaysLazy) {
  PercentileHistogram h;
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.reset();
  EXPECT_FALSE(h.has_buckets());
  EXPECT_EQ(h.rejected(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  h.add(0.25);
  h.add(0.75);
  EXPECT_TRUE(h.has_buckets());
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0.25);
  EXPECT_EQ(h.max(), 0.75);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.75);
}

TEST(PercentileHistogramTest, RejectsInvalidRange) {
  EXPECT_THROW(PercentileHistogram(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(PercentileHistogram(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(PercentileHistogram(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(PercentileHistogram(2.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace dimetrodon::analysis
