#include "analysis/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dimetrodon::analysis {

namespace {
// Linear sub-buckets per power of two. Bucket width is 2^(e-1)/64 over the
// octave [2^(e-1), 2^e), so the midpoint is within 1/128 of any value in it.
constexpr int kSubBuckets = 64;
}  // namespace

PercentileHistogram::PercentileHistogram(double min_value, double max_value)
    : min_value_(min_value), max_value_(max_value) {
  if (!(min_value > 0.0) || !(max_value > min_value)) {
    throw std::invalid_argument(
        "PercentileHistogram requires 0 < min_value < max_value");
  }
  int max_exp = 0;
  std::frexp(min_value_, &min_exp_);
  std::frexp(max_value_, &max_exp);
  const std::size_t octaves = static_cast<std::size_t>(max_exp - min_exp_ + 1);
  num_buckets_ = octaves * kSubBuckets;
}

std::size_t PercentileHistogram::bucket_index(double v) const {
  v = std::clamp(v, min_value_, max_value_);
  int e = 0;
  const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((m * 2.0 - 1.0) * kSubBuckets));
  const std::size_t idx =
      static_cast<std::size_t>(e - min_exp_) * kSubBuckets +
      static_cast<std::size_t>(sub);
  return std::min(idx, num_buckets_ - 1);
}

double PercentileHistogram::bucket_midpoint(std::size_t idx) const {
  const int e = min_exp_ + static_cast<int>(idx) / kSubBuckets;
  const int sub = static_cast<int>(idx) % kSubBuckets;
  // Octave [2^(e-1), 2^e) split into kSubBuckets equal slices.
  const double lower =
      std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, e - 1);
  const double width = std::ldexp(1.0 / kSubBuckets, e - 1);
  return lower + width / 2.0;
}

void PercentileHistogram::add(double value) {
  if (!std::isfinite(value)) {
    ++rejected_;
    return;
  }
  if (count_ == 0) {
    min_seen_ = value;
    max_seen_ = value;
  } else {
    min_seen_ = std::min(min_seen_, value);
    max_seen_ = std::max(max_seen_, value);
  }
  ++count_;
  sum_ += value;
  if (buckets_.empty()) buckets_.assign(num_buckets_, 0);
  ++buckets_[bucket_index(value)];
}

void PercentileHistogram::merge(const PercentileHistogram& other) {
  if (!same_layout(other)) {
    throw std::invalid_argument("PercentileHistogram layouts differ");
  }
  rejected_ += other.rejected_;
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_seen_ = other.min_seen_;
    max_seen_ = other.max_seen_;
  } else {
    min_seen_ = std::min(min_seen_, other.min_seen_);
    max_seen_ = std::max(max_seen_, other.max_seen_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (buckets_.empty()) buckets_.assign(num_buckets_, 0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

void PercentileHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  rejected_ = 0;
  sum_ = 0.0;
  min_seen_ = 0.0;
  max_seen_ = 0.0;
}

double PercentileHistogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double PercentileHistogram::min() const { return count_ == 0 ? 0.0 : min_seen_; }

double PercentileHistogram::max() const { return count_ == 0 ? 0.0 : max_seen_; }

double PercentileHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q/100 * count), with rank >= 1 so q=0 lands in the first occupied
  // bucket.
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q / 100.0 * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      return std::clamp(bucket_midpoint(i), min_seen_, max_seen_);
    }
  }
  return max_seen_;  // unreachable with consistent counts
}

}  // namespace dimetrodon::analysis
