#pragma once

#include <vector>

#include "sim/rng.hpp"

namespace dimetrodon::analysis {

/// Two-sided confidence interval for a sample mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double confidence = 0.95;

  bool contains(double x) const { return x >= lower && x <= upper; }
  double half_width() const { return (upper - lower) / 2.0; }
};

/// Percentile-bootstrap confidence interval for the mean of `sample`.
/// Deterministic given `seed`. Requires a non-empty sample; with a single
/// observation the interval collapses to that value.
ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& sample,
                                     double confidence = 0.95,
                                     int resamples = 2000,
                                     std::uint64_t seed = 0xb0075);

}  // namespace dimetrodon::analysis
