#include "cluster/request_source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dimetrodon::cluster {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
}

double TrafficShape::modulation(sim::SimTime t) const {
  double m = 1.0;
  if (diurnal_depth > 0.0 && diurnal_period > 0) {
    const double frac =
        sim::to_sec(t + diurnal_phase) / sim::to_sec(diurnal_period);
    m *= 1.0 + diurnal_depth * std::sin(kTwoPi * frac);
  }
  if (in_flash(t)) m *= flash_multiplier;
  return m;
}

RequestSource::RequestSource(std::uint64_t master_seed,
                             std::uint64_t stream_id, double rate_rps,
                             TrafficShape shape)
    : rng_(sim::Rng::stream(master_seed, stream_id)),
      rate_rps_(rate_rps),
      shape_(shape) {
  if (rate_rps <= 0.0) {
    throw std::invalid_argument("RequestSource rate must be > 0 rps");
  }
  if (shape_.diurnal_depth < 0.0 || shape_.diurnal_depth >= 1.0) {
    throw std::invalid_argument("diurnal depth must lie in [0, 1)");
  }
  if (shape_.diurnal_depth > 0.0 && shape_.diurnal_period <= 0) {
    throw std::invalid_argument("diurnal shape needs a positive period");
  }
  if (shape_.flash_multiplier < 1.0) {
    throw std::invalid_argument("flash multiplier must be >= 1");
  }
  if (shape_.flash_multiplier > 1.0 && shape_.flash_duration <= 0) {
    throw std::invalid_argument("flash crowd needs a positive duration");
  }
  candidate_gap_s_ = 1.0 / (rate_rps_ * shape_.peak_factor());
}

sim::SimTime RequestSource::next() {
  if (shape_.constant()) {
    // Homogeneous Poisson: the classic path, bit-identical to the pre-shape
    // source (one exponential draw per arrival).
    const sim::SimTime gap = sim::from_sec(rng_.exponential(candidate_gap_s_));
    t_ += std::max<sim::SimTime>(1, gap);
    ++issued_;
    return t_;
  }
  // Thinning: propose candidates at the peak rate, accept each with
  // probability rate(t)/peak. modulation() is bounded away from zero (depth
  // < 1, multiplier >= 1), so acceptance probability has a positive floor
  // and the loop terminates.
  //
  // Squeeze: the computed modulation is fl(1 + fl(depth * s)) with
  // |s| <= 1, times a multiplier >= 1 inside the flash window. Rounding is
  // monotone, so it never falls below fl(1 - depth), and outside the window
  // it never exceeds fl(1 + depth). Where those bounds already decide the
  // test, the sin() is skipped; the decision, and the draws, are exactly
  // those of the plain test.
  const double peak = shape_.peak_factor();
  const double floor = 1.0 - shape_.diurnal_depth;
  const double ceiling = 1.0 + shape_.diurnal_depth;
  while (true) {
    const sim::SimTime gap = sim::from_sec(rng_.exponential(candidate_gap_s_));
    t_ += std::max<sim::SimTime>(1, gap);
    const double u = rng_.uniform() * peak;
    if (u >= floor) {
      if (u >= ceiling && !shape_.in_flash(t_)) continue;
      if (u >= shape_.modulation(t_)) continue;
    }
    ++issued_;
    return t_;
  }
}

}  // namespace dimetrodon::cluster
