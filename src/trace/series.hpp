#pragma once

#include <string>
#include <vector>

namespace dimetrodon::trace {

/// One time-series point.
struct SeriesPoint {
  double t;
  double value;
};

/// Render a series as a fixed-height ASCII chart (rows of '#' columns), the
/// in-terminal rendition of the paper's figures. Returns a multi-line
/// string; at most `width` columns by `height` rows plus an axis line. A
/// series longer than `width` is bucket-averaged into `width` equal-width
/// time buckets (one column each, in time order), so a 3 kHz trace keeps
/// its mean. Input must be sorted by t.
std::string ascii_chart(const std::vector<SeriesPoint>& series,
                        std::size_t width, std::size_t height,
                        const std::string& title = "");

}  // namespace dimetrodon::trace
