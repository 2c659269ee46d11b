#include "analysis/bootstrap.hpp"

#include <stdexcept>

#include "analysis/stats.hpp"

namespace dimetrodon::analysis {

ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& sample,
                                     double confidence, int resamples,
                                     std::uint64_t seed) {
  if (sample.empty()) {
    throw std::invalid_argument("bootstrap_mean_ci: empty sample");
  }
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument("confidence must be in (0, 1)");
  }
  ConfidenceInterval ci;
  ci.confidence = confidence;
  ci.mean = mean(sample);
  if (sample.size() == 1) {
    ci.lower = ci.upper = sample.front();
    return ci;
  }
  sim::Rng rng(seed);
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  const auto n = static_cast<std::int64_t>(sample.size());
  for (int r = 0; r < resamples; ++r) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      sum += sample[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    }
    means.push_back(sum / static_cast<double>(n));
  }
  const double alpha = (1.0 - confidence) / 2.0;
  ci.lower = percentile(means, 100.0 * alpha);
  ci.upper = percentile(means, 100.0 * (1.0 - alpha));
  return ci;
}

}  // namespace dimetrodon::analysis
