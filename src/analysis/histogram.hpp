#pragma once

#include <cstdint>
#include <vector>

namespace dimetrodon::analysis {

/// Streaming percentile histogram in the HDR-histogram style: log-linear
/// buckets (64 linear sub-buckets per power of two) give a bounded ~0.8%
/// relative error per reported quantile with O(1) insertion and a fixed,
/// seed-independent memory footprint. Latency percentiles (p50/p95/p99) of
/// arbitrarily long runs can therefore stream without retaining samples —
/// unlike analysis::percentile(), which copies and sorts its input.
///
/// Determinism: bucket placement is a pure function of the value and the
/// (min_value, max_value) layout, so identical value sequences produce
/// bit-identical quantiles regardless of thread count or insertion batching.
///
/// The bucket array is allocated lazily, on the first finite add() or the
/// first non-empty merge(): a histogram that never sees a sample (a fleet
/// node's unopened QoS window) costs its inline size only. The layout, and
/// so num_buckets(), is fixed at construction either way.
class PercentileHistogram {
 public:
  /// Trackable range; values outside are clamped into the edge buckets (the
  /// exact min/max are still tracked separately). Requires 0 < min < max.
  explicit PercentileHistogram(double min_value = 1e-6,
                               double max_value = 1e5);

  /// Record one sample. Non-finite values (NaN, ±inf) are dropped and
  /// counted in rejected() instead: a NaN would otherwise poison sum_ and
  /// the extrema and — via the size_t underflow clamp in bucket_index —
  /// silently land in the top bucket, skewing every downstream p99.
  void add(double value);

  /// Non-finite samples dropped by add() (folded across merge()).
  std::uint64_t rejected() const { return rejected_; }

  /// Fold `other` into this histogram. Layouts (min/max) must match.
  void merge(const PercentileHistogram& other);

  void reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  /// Exact extrema of everything added (not bucket-quantized). 0 when empty.
  double min() const;
  double max() const;

  /// Linear bucket-walk quantile, q in [0, 100]. Returns the midpoint of the
  /// bucket containing the target rank, clamped into [min(), max()] so
  /// degenerate histograms (single value, q=0, q=100) are exact. 0 if empty.
  double percentile(double q) const;

  bool same_layout(const PercentileHistogram& other) const {
    return min_value_ == other.min_value_ && max_value_ == other.max_value_;
  }

  std::size_t num_buckets() const { return num_buckets_; }
  /// Whether the bucket array has been allocated yet (see the class note).
  bool has_buckets() const { return !buckets_.empty(); }

 private:
  std::size_t bucket_index(double v) const;
  double bucket_midpoint(std::size_t idx) const;

  double min_value_;
  double max_value_;
  int min_exp_;  // frexp exponent of min_value_
  std::size_t num_buckets_;
  std::vector<std::uint64_t> buckets_;  // empty, or num_buckets_ counts
  std::uint64_t count_ = 0;
  std::uint64_t rejected_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

}  // namespace dimetrodon::analysis
