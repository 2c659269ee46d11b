#pragma once

#include <cstdint>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dimetrodon::cluster {

/// Time-varying offered-load shape: a multiplicative modulation of the
/// source's base rate. Two primitives compose multiplicatively:
///
///  * a diurnal curve — rate(t) = base * (1 + depth * sin(2*pi*t/period)) —
///    the day/night swing every datacenter fleet rides, compressed into
///    whatever `period` the experiment can afford (a simulated "day" of a
///    few seconds exercises exactly the same thermal dynamics);
///  * a flash crowd — a rectangular pulse multiplying the rate by
///    `flash_multiplier` over [flash_start, flash_start + flash_duration) —
///    the sudden regional-failover / viral-event surge preventive thermal
///    management exists to absorb.
///
/// The default shape is constant (depth 0, multiplier 1); a constant shape
/// takes the exact classic one-exponential-per-arrival path, so every
/// pre-existing trace stays bit-identical.
struct TrafficShape {
  /// Relative diurnal swing in [0, 1): rate peaks at base*(1+depth) and
  /// troughs at base*(1-depth). 0 disables the curve.
  double diurnal_depth = 0.0;
  /// Length of one simulated "day". Must be > 0 when depth > 0.
  sim::SimTime diurnal_period = 0;
  /// Phase offset: the curve is evaluated at (t + phase).
  sim::SimTime diurnal_phase = 0;

  /// Rate multiplier during the flash window (>= 1; 1 disables the pulse).
  double flash_multiplier = 1.0;
  sim::SimTime flash_start = 0;
  sim::SimTime flash_duration = 0;

  bool constant() const {
    return diurnal_depth == 0.0 && flash_multiplier == 1.0;
  }

  /// rate(t) / base_rate, in (0, peak_factor()].
  double modulation(sim::SimTime t) const;

  /// True while the flash pulse multiplies the rate.
  bool in_flash(sim::SimTime t) const {
    return flash_multiplier != 1.0 && t >= flash_start &&
           t < flash_start + flash_duration;
  }

  /// Max of modulation() over all t: (1 + depth) * flash_multiplier. The
  /// thinning sampler proposes candidates at base * peak_factor().
  double peak_factor() const {
    return (1.0 + diurnal_depth) * flash_multiplier;
  }

  static TrafficShape steady() { return TrafficShape{}; }
  static TrafficShape diurnal(sim::SimTime period, double depth,
                              sim::SimTime phase = 0) {
    TrafficShape s;
    s.diurnal_period = period;
    s.diurnal_depth = depth;
    s.diurnal_phase = phase;
    return s;
  }
  TrafficShape& with_flash(sim::SimTime start, sim::SimTime duration,
                           double multiplier) {
    flash_start = start;
    flash_duration = duration;
    flash_multiplier = multiplier;
    return *this;
  }
};

/// Open-loop Poisson request source: the cluster's client population,
/// modeled as a (possibly non-homogeneous) memoryless arrival process.
/// Unlike the closed-loop connections inside workload::WebWorkload, arrivals
/// here do not wait for completions — overload shows up as queue growth and
/// tail latency instead of self-throttling.
///
/// Shaped traffic uses Poisson thinning (Lewis & Shedler): candidates are
/// drawn at the peak rate and accepted with probability rate(t)/peak. A
/// constant shape bypasses thinning entirely and reproduces the classic
/// homogeneous draw sequence bit-for-bit.
///
/// Determinism: the source owns its own sim::Rng stream derived purely from
/// (master seed, stream id) via sim::derive_stream_seed, so the arrival
/// sequence is a function of the seed and shape alone — independent of sweep
/// thread count, execution order, and everything else in the simulation.
class RequestSource {
 public:
  /// `rate_rps` must be > 0; shape invariants (depth in [0,1), period > 0
  /// when depth > 0, multiplier >= 1) are validated here.
  RequestSource(std::uint64_t master_seed, std::uint64_t stream_id,
                double rate_rps, TrafficShape shape = TrafficShape::steady());

  /// Absolute time of the next arrival. The sequence is strictly increasing
  /// (candidate gaps are floored at 1 ns so two requests never collide on
  /// the timeline).
  sim::SimTime next();

  std::uint64_t issued() const { return issued_; }
  double rate_rps() const { return rate_rps_; }
  const TrafficShape& shape() const { return shape_; }
  /// Instantaneous offered load at `t`, requests/second.
  double rate_at(sim::SimTime t) const {
    return rate_rps_ * shape_.modulation(t);
  }

 private:
  sim::Rng rng_;
  double rate_rps_;
  TrafficShape shape_;
  double candidate_gap_s_;  // mean gap between thinning candidates
  sim::SimTime t_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace dimetrodon::cluster
