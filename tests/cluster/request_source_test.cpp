#include "cluster/request_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace dimetrodon::cluster {
namespace {

std::vector<sim::SimTime> arrivals(std::uint64_t seed, std::uint64_t stream,
                                   double rate, int n) {
  RequestSource src(seed, stream, rate);
  std::vector<sim::SimTime> out;
  for (int i = 0; i < n; ++i) out.push_back(src.next());
  return out;
}

TEST(RequestSourceTest, SameSeedSameArrivalSequence) {
  // The determinism contract behind parallel sweeps: arrivals are a pure
  // function of (master seed, stream id), nothing else.
  EXPECT_EQ(arrivals(0x5eed, 0, 500.0, 1000),
            arrivals(0x5eed, 0, 500.0, 1000));
}

TEST(RequestSourceTest, DifferentSeedOrStreamDiffer) {
  const auto base = arrivals(0x5eed, 0, 500.0, 100);
  EXPECT_NE(base, arrivals(0x5eee, 0, 500.0, 100));
  EXPECT_NE(base, arrivals(0x5eed, 1, 500.0, 100));
}

TEST(RequestSourceTest, StrictlyMonotoneArrivals) {
  RequestSource src(123, 0, 1e6);  // extreme rate: sub-ns mean gaps
  sim::SimTime prev = 0;
  for (int i = 0; i < 10000; ++i) {
    const sim::SimTime t = src.next();
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(src.issued(), 10000u);
}

TEST(RequestSourceTest, MeanRateMatchesConfigured) {
  const double rate = 800.0;
  RequestSource src(42, 0, rate);
  sim::SimTime last = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) last = src.next();
  const double measured = n / sim::to_sec(last);
  EXPECT_NEAR(measured, rate, rate * 0.02);
}

TEST(RequestSourceTest, InterleavedDrawsDoNotPerturbOtherStreams) {
  // Stream independence: consuming stream 0 between draws of stream 1 must
  // not change stream 1's sequence (each source owns its generator).
  RequestSource a(7, 1, 300.0);
  std::vector<sim::SimTime> clean;
  for (int i = 0; i < 50; ++i) clean.push_back(a.next());

  RequestSource b(7, 1, 300.0);
  RequestSource noise(7, 0, 300.0);
  std::vector<sim::SimTime> interleaved;
  for (int i = 0; i < 50; ++i) {
    noise.next();
    interleaved.push_back(b.next());
    noise.next();
  }
  EXPECT_EQ(clean, interleaved);
}

TEST(RequestSourceTest, RejectsNonPositiveRate) {
  EXPECT_THROW(RequestSource(1, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(RequestSource(1, 0, -5.0), std::invalid_argument);
}

// --- traffic shapes ---------------------------------------------------------

TEST(TrafficShapeTest, SteadyShapeKeepsClassicSequenceBitIdentical) {
  // The compatibility contract: a default (constant) shape must reproduce
  // the pre-shape homogeneous draw sequence exactly — no thinning draws.
  RequestSource classic(0x5eed, 0, 500.0);
  RequestSource shaped(0x5eed, 0, 500.0, TrafficShape::steady());
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(classic.next(), shaped.next());
}

TEST(TrafficShapeTest, ModulationTracksDiurnalCurve) {
  const auto shape = TrafficShape::diurnal(sim::from_sec(8), 0.5);
  EXPECT_DOUBLE_EQ(shape.modulation(0), 1.0);
  EXPECT_NEAR(shape.modulation(sim::from_sec(2)), 1.5, 1e-9);  // midday peak
  EXPECT_NEAR(shape.modulation(sim::from_sec(6)), 0.5, 1e-9);  // night trough
  EXPECT_NEAR(shape.peak_factor(), 1.5, 1e-12);
  EXPECT_FALSE(shape.constant());
}

TEST(TrafficShapeTest, FlashCrowdMultipliesInsideWindowOnly) {
  TrafficShape shape;
  shape.with_flash(sim::from_sec(2), sim::from_sec(1), 3.0);
  EXPECT_DOUBLE_EQ(shape.modulation(sim::from_sec(1)), 1.0);
  EXPECT_DOUBLE_EQ(shape.modulation(sim::from_sec(2)), 3.0);
  EXPECT_DOUBLE_EQ(shape.modulation(sim::from_ms(2999)), 3.0);
  EXPECT_DOUBLE_EQ(shape.modulation(sim::from_sec(3)), 1.0);
  EXPECT_NEAR(shape.peak_factor(), 3.0, 1e-12);
}

TEST(TrafficShapeTest, DiurnalArrivalsFollowTheCurve) {
  // Count arrivals in the peak half-period vs the trough half-period: with
  // depth 0.6 the peak half must see substantially more traffic.
  const auto shape = TrafficShape::diurnal(sim::from_sec(8), 0.6);
  RequestSource src(42, 0, 1000.0, shape);
  std::uint64_t first_half = 0, second_half = 0;
  while (true) {
    const sim::SimTime t = src.next();
    if (t >= sim::from_sec(8)) break;
    (t < sim::from_sec(4) ? first_half : second_half)++;
  }
  EXPECT_GT(first_half, second_half * 2);
  // And the day's total still integrates to ~base * period (the sine
  // averages out over a full period).
  EXPECT_NEAR(static_cast<double>(first_half + second_half), 8000.0, 400.0);
}

TEST(TrafficShapeTest, FlashCrowdSpikesOfferedLoad) {
  TrafficShape shape;
  shape.with_flash(sim::from_sec(2), sim::from_sec(1), 4.0);
  RequestSource src(7, 0, 500.0, shape);
  std::uint64_t before = 0, during = 0;
  while (true) {
    const sim::SimTime t = src.next();
    if (t >= sim::from_sec(3)) break;
    (t < sim::from_sec(2) ? before : during)++;
  }
  // 2 s at 500 rps vs 1 s at 2000 rps.
  EXPECT_NEAR(static_cast<double>(before), 1000.0, 150.0);
  EXPECT_NEAR(static_cast<double>(during), 2000.0, 220.0);
}

TEST(TrafficShapeTest, ShapedArrivalsStayDeterministicAndMonotone) {
  const auto shape =
      TrafficShape::diurnal(sim::from_sec(4), 0.5)
          .with_flash(sim::from_sec(1), sim::from_ms(500), 2.5);
  RequestSource a(11, 3, 800.0, shape);
  RequestSource b(11, 3, 800.0, shape);
  sim::SimTime prev = 0;
  for (int i = 0; i < 5000; ++i) {
    const sim::SimTime t = a.next();
    EXPECT_EQ(t, b.next());
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(TrafficShapeTest, RejectsInvalidShapes) {
  TrafficShape deep;
  deep.diurnal_depth = 1.0;
  deep.diurnal_period = sim::from_sec(1);
  EXPECT_THROW(RequestSource(1, 0, 100.0, deep), std::invalid_argument);
  TrafficShape no_period;
  no_period.diurnal_depth = 0.5;
  EXPECT_THROW(RequestSource(1, 0, 100.0, no_period), std::invalid_argument);
  TrafficShape weak_flash;
  weak_flash.with_flash(0, sim::from_sec(1), 0.5);
  EXPECT_THROW(RequestSource(1, 0, 100.0, weak_flash), std::invalid_argument);
  TrafficShape no_duration;
  no_duration.with_flash(0, 0, 2.0);
  EXPECT_THROW(RequestSource(1, 0, 100.0, no_duration), std::invalid_argument);
}

TEST(TrafficShapeTest, DepthJustBelowOneStaysValidAndMonotone) {
  // The deepest legal diurnal swing: depth = 1 - 1 ulp. The trough rate is
  // epsilon-positive, so the thinning sampler's acceptance probability is
  // bounded away from zero and arrivals must stay finite, strictly
  // monotone, and deterministic — no livelock, no duplicate timestamps.
  const double depth = std::nextafter(1.0, 0.0);
  const auto shape = TrafficShape::diurnal(sim::from_sec(2), depth);
  EXPECT_NEAR(shape.peak_factor(), 2.0, 1e-12);
  RequestSource a(21, 0, 2000.0, shape);
  RequestSource b(21, 0, 2000.0, shape);
  sim::SimTime prev = 0;
  std::uint64_t peak_half = 0, trough_half = 0;
  while (true) {
    const sim::SimTime t = a.next();
    EXPECT_EQ(t, b.next());
    ASSERT_GT(t, prev);
    prev = t;
    if (t >= sim::from_sec(2)) break;
    (t < sim::from_sec(1) ? peak_half : trough_half)++;
  }
  // The halves integrate to base*(1 ± 2/pi): at depth ~1 the peak half
  // carries ~4.5x the trough half's traffic, and the period total still
  // matches base * period (the sine averages out).
  EXPECT_GT(peak_half, 4 * trough_half);
  EXPECT_NEAR(static_cast<double>(peak_half + trough_half), 4000.0, 300.0);
}

TEST(TrafficShapeTest, FlashWindowEndIsExclusive) {
  // The pulse covers [start, start + duration): the very last tick inside is
  // multiplied, the boundary tick itself is not. An inclusive end would
  // double-count one tick's worth of rate at every flash in a sweep.
  TrafficShape shape;
  shape.with_flash(sim::from_sec(2), sim::from_sec(1), 5.0);
  const sim::SimTime end = sim::from_sec(3);
  EXPECT_DOUBLE_EQ(shape.modulation(sim::from_sec(2)), 5.0);  // start inclusive
  EXPECT_DOUBLE_EQ(shape.modulation(end - 1), 5.0);  // last interior tick
  EXPECT_DOUBLE_EQ(shape.modulation(end), 1.0);      // boundary excluded
  EXPECT_DOUBLE_EQ(shape.modulation(end + 1), 1.0);
  // And the offered load right after the window is back at base rate.
  RequestSource src(13, 0, 1000.0, shape);
  std::uint64_t after = 0;
  while (true) {
    const sim::SimTime t = src.next();
    if (t >= sim::from_sec(4)) break;
    if (t >= end) after++;
  }
  EXPECT_NEAR(static_cast<double>(after), 1000.0, 160.0);
}

TEST(TrafficShapeTest, LargeDiurnalPhaseWrapsAroundThePeriod) {
  // A phase offset of whole periods is a no-op: modulation is periodic, so a
  // sweep that accumulates phase across many simulated days cannot drift.
  const auto period = sim::from_sec(8);
  const auto base = TrafficShape::diurnal(period, 0.5, sim::from_sec(3));
  auto wrapped = base;
  wrapped.diurnal_phase = sim::from_sec(3) + 1000 * period;
  for (const sim::SimTime t :
       {sim::SimTime{0}, sim::from_sec(1), sim::from_ms(4500),
        sim::from_sec(7)}) {
    EXPECT_NEAR(wrapped.modulation(t), base.modulation(t), 1e-9) << t;
  }
  // The wrapped shape still drives a valid, monotone arrival stream.
  RequestSource src(5, 0, 500.0, wrapped);
  sim::SimTime prev = 0;
  for (int i = 0; i < 2000; ++i) {
    const sim::SimTime t = src.next();
    ASSERT_GT(t, prev);
    prev = t;
  }
}

// The thinning loop without the squeeze: one sin() per candidate. The
// production sampler must reproduce it arrival for arrival.
std::vector<sim::SimTime> plain_thinning(std::uint64_t seed, double rate,
                                         const TrafficShape& shape, int n) {
  sim::Rng rng = sim::Rng::stream(seed, 0);
  const double peak = shape.peak_factor();
  const double gap_s = 1.0 / (rate * peak);
  std::vector<sim::SimTime> out;
  sim::SimTime t = 0;
  while (static_cast<int>(out.size()) < n) {
    t += std::max<sim::SimTime>(1, sim::from_sec(rng.exponential(gap_s)));
    if (rng.uniform() * peak < shape.modulation(t)) out.push_back(t);
  }
  return out;
}

TEST(TrafficShapeTest, SqueezedThinningMatchesThePlainLoop) {
  // 10^5 arrivals at 600k rps span ~0.17 s: many diurnal periods, with the
  // flash window in the middle, so both squeeze bounds and the sin() path
  // all decide candidates.
  const sim::SimTime period = sim::from_ms(40);
  TrafficShape flash_only;
  flash_only.with_flash(sim::from_ms(50), sim::from_ms(60), 3.0);
  const std::vector<std::pair<const char*, TrafficShape>> shapes = {
      {"diurnal", TrafficShape::diurnal(period, 0.6, sim::from_ms(7))},
      {"flash", flash_only},
      {"both", TrafficShape::diurnal(period, 0.35).with_flash(
                   sim::from_ms(50), sim::from_ms(60), 2.5)},
      {"depth 0.99", TrafficShape::diurnal(period, 0.99)},
  };
  constexpr int kArrivals = 100'000;
  for (const auto& [name, shape] : shapes) {
    for (const std::uint64_t seed : {1u, 2u}) {
      RequestSource src(seed, 0, 600'000.0, shape);
      std::vector<sim::SimTime> got;
      got.reserve(kArrivals);
      for (int i = 0; i < kArrivals; ++i) got.push_back(src.next());
      EXPECT_EQ(got, plain_thinning(seed, 600'000.0, shape, kArrivals))
          << name << ", seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dimetrodon::cluster
