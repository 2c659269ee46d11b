#include "trace/series.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dimetrodon::trace {

namespace {

/// Bucket-average downsampling: at most `max_points` points, each the mean
/// of one equal-width time bucket.
std::vector<SeriesPoint> downsample(const std::vector<SeriesPoint>& series,
                                    std::size_t max_points) {
  if (max_points == 0 || series.size() <= max_points) return series;
  const double t0 = series.front().t;
  const double t1 = series.back().t;
  const double span = t1 - t0;
  if (span <= 0.0) return {series.front()};
  std::vector<SeriesPoint> out;
  out.reserve(max_points);
  const double bucket = span / static_cast<double>(max_points);
  std::size_t i = 0;
  for (std::size_t b = 0; b < max_points && i < series.size(); ++b) {
    const double hi = t0 + bucket * static_cast<double>(b + 1);
    double sum_t = 0.0;
    double sum_v = 0.0;
    std::size_t n = 0;
    while (i < series.size() &&
           (series[i].t < hi || b + 1 == max_points)) {
      sum_t += series[i].t;
      sum_v += series[i].value;
      ++n;
      ++i;
    }
    if (n > 0) {
      out.push_back(SeriesPoint{sum_t / static_cast<double>(n),
                                sum_v / static_cast<double>(n)});
    }
  }
  return out;
}

}  // namespace

std::string ascii_chart(const std::vector<SeriesPoint>& series,
                        std::size_t width, std::size_t height,
                        const std::string& title) {
  if (series.empty() || width == 0 || height == 0) return "(empty series)\n";
  const auto resampled = downsample(series, width);
  double lo = resampled.front().value;
  double hi = lo;
  for (const auto& p : resampled) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  if (hi - lo < 1e-12) hi = lo + 1.0;

  std::vector<std::string> rows(height, std::string(resampled.size(), ' '));
  for (std::size_t c = 0; c < resampled.size(); ++c) {
    const double frac = (resampled[c].value - lo) / (hi - lo);
    const auto level = static_cast<std::size_t>(
        std::lround(frac * static_cast<double>(height - 1)));
    for (std::size_t r = 0; r <= level; ++r) {
      rows[height - 1 - r][c] = r == level ? '#' : '.';
    }
  }
  std::string out;
  if (!title.empty()) out += title + "\n";
  char label[64];
  std::snprintf(label, sizeof label, "%8.2f |", hi);
  out += label + rows.front() + "\n";
  for (std::size_t r = 1; r + 1 < height; ++r) {
    out += "         |" + rows[r] + "\n";
  }
  std::snprintf(label, sizeof label, "%8.2f |", lo);
  out += label + rows.back() + "\n";
  std::snprintf(label, sizeof label, "          t: %.2f .. %.2f\n",
                series.front().t, series.back().t);
  out += label;
  return out;
}

}  // namespace dimetrodon::trace
