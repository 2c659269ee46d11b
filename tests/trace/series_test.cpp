#include "trace/series.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

namespace dimetrodon::trace {
namespace {

std::vector<SeriesPoint> ramp(std::size_t n) {
  std::vector<SeriesPoint> s;
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back({static_cast<double>(i), static_cast<double>(i)});
  }
  return s;
}

std::vector<std::string> lines_of(const std::string& chart) {
  std::vector<std::string> lines;
  std::istringstream in(chart);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The chart's columns, each as the level of its '#' (0 = bottom row), read
/// back from an untitled chart of `height` rows: every row is a 10-character
/// axis label followed by one character per column.
std::vector<int> column_levels(const std::string& chart, std::size_t height) {
  const std::vector<std::string> lines = lines_of(chart);
  std::vector<int> levels(lines.front().size() - 10, -1);
  for (std::size_t r = 0; r < height; ++r) {
    for (std::size_t c = 0; c < levels.size(); ++c) {
      if (lines[r][10 + c] == '#') levels[c] = static_cast<int>(height - 1 - r);
    }
  }
  return levels;
}

/// The value on the axis label of an untitled chart's row `row`.
double axis_label(const std::string& chart, std::size_t row) {
  return std::stod(lines_of(chart).at(row).substr(0, 8));
}

// The chart bucket-averages a series longer than its width; these pin that
// downsampling through the chart's columns and axis labels.

TEST(DownsampleTest, ShortSeriesPassesThrough) {
  const auto levels = column_levels(ascii_chart(ramp(10), 20, 10), 10);
  ASSERT_EQ(levels.size(), 10u);  // one column per point, none merged
  for (std::size_t c = 0; c < levels.size(); ++c) {
    EXPECT_EQ(levels[c], static_cast<int>(c));
  }
}

TEST(DownsampleTest, ReducesToRequestedPoints) {
  const auto levels = column_levels(ascii_chart(ramp(1000), 50, 8), 8);
  EXPECT_LE(levels.size(), 50u);
  EXPECT_GE(levels.size(), 45u);
}

TEST(DownsampleTest, PreservesMeanOfRamp) {
  // 40 buckets of 25 points: the first averages 0..24 and the last
  // 975..999, so the axis spans 12 to 987 around the ramp's mean, 499.5.
  const std::string chart = ascii_chart(ramp(1000), 40, 6);
  EXPECT_DOUBLE_EQ(axis_label(chart, 0), 987.0);  // top row
  EXPECT_DOUBLE_EQ(axis_label(chart, 5), 12.0);   // bottom row
}

TEST(DownsampleTest, TimesMonotone) {
  // Columns come out in time order, so a ramp never steps down.
  const auto levels = column_levels(ascii_chart(ramp(1000), 37, 12), 12);
  ASSERT_GT(levels.size(), 1u);
  for (std::size_t c = 1; c < levels.size(); ++c) {
    EXPECT_GE(levels[c], levels[c - 1]) << "column " << c;
  }
  EXPECT_LT(levels.front(), levels.back());
}

TEST(DownsampleTest, DegenerateTimeSpanReturnsSinglePoint) {
  std::vector<SeriesPoint> s{{5.0, 1.0}, {5.0, 3.0}, {5.0, 9.0}};
  EXPECT_EQ(column_levels(ascii_chart(s, 2, 4), 4).size(), 1u);
}

TEST(AsciiChartTest, RendersTitleAndAxis) {
  const auto s = ramp(100);
  const std::string chart = ascii_chart(s, 40, 8, "ramp");
  EXPECT_NE(chart.find("ramp"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
  EXPECT_NE(chart.find("t: 0.00 .. 99.00"), std::string::npos);
  // Height rows + title + axis.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 8 + 2);
}

TEST(AsciiChartTest, EmptySeriesSafe) {
  EXPECT_EQ(ascii_chart({}, 10, 5), "(empty series)\n");
}

TEST(AsciiChartTest, MonotoneRampFillsTopRightCorner) {
  const auto s = ramp(100);
  const std::string chart = ascii_chart(s, 20, 6);
  // First data row (the max row) should have its '#' near the right edge.
  const auto first_line_end = chart.find('\n');
  const std::string top = chart.substr(0, first_line_end);
  EXPECT_GT(top.rfind('#'), top.size() - 4);
}

}  // namespace
}  // namespace dimetrodon::trace
