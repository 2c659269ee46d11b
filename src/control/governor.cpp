#include "control/governor.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace dimetrodon::control {

namespace {

std::string fmt(const char* format, double a, double b, double c) {
  char buf[96];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

// The one PI step every integrating governor runs: kp·e + ki·∫e + `bias`,
// clamped to [lo, hi], with conditional-integration anti-windup — the
// integral takes this step's e·dt only while the unclamped output is inside
// the limits, or the error pushes it back toward them. Updates `integral`
// and returns the clamped output.
double pi_step(double& integral, double error, double dt, double kp,
               double ki, double bias, double lo, double hi) {
  const double candidate = integral + error * dt;
  const double unclamped = kp * error + ki * candidate + bias;
  if ((unclamped < hi || error < 0.0) && (unclamped > lo || error > 0.0)) {
    integral = candidate;
  }
  return std::clamp(kp * error + ki * integral + bias, lo, hi);
}

}  // namespace

// --- hysteresis -------------------------------------------------------------

HysteresisGovernor::HysteresisGovernor(HysteresisConfig config)
    : config_(config) {
  if (config_.release_c > config_.trip_c) {
    throw std::invalid_argument(
        "hysteresis release point must not exceed the trip point");
  }
}

std::string HysteresisGovernor::name() const {
  return config_.release_c == config_.trip_c ? "threshold" : "hysteresis";
}

double HysteresisGovernor::update(const SensorFrame& frame) {
  // Trip at or above the trip point; release strictly below the release
  // point. With release_c == trip_c (a bare threshold) the governor releases
  // the moment the reading drops under the trip point and re-trips one
  // quantization step later — the flapping the band exists to suppress.
  if (!tripped_) {
    if (frame.max_c >= config_.trip_c) tripped_ = true;
  } else if (frame.max_c < config_.release_c) {
    tripped_ = false;
  }
  return tripped_ ? config_.hot_probability : config_.idle_probability;
}

// --- pid --------------------------------------------------------------------

PidGovernor::PidGovernor(PidConfig config) : config_(config) {
  if (config_.min_probability > config_.max_probability) {
    throw std::invalid_argument("pid probability clamp is inverted");
  }
}

std::string PidGovernor::name() const { return "pid"; }

double PidGovernor::update(const SensorFrame& frame) {
  // Positive error = over the setpoint = inject more.
  const double error = frame.max_c - config_.setpoint_c;
  const double dt = frame.dt_s;

  double derivative = 0.0;
  if (has_last_ && dt > 0.0) {
    derivative = (frame.max_c - last_measurement_) / dt;
  }
  last_measurement_ = frame.max_c;
  has_last_ = true;

  return pi_step(integral_, error, dt, config_.kp, config_.ki,
                 config_.kd * derivative, config_.min_probability,
                 config_.max_probability);
}

void PidGovernor::reset() {
  integral_ = 0.0;
  last_measurement_ = 0.0;
  has_last_ = false;
}

// --- hybrid -----------------------------------------------------------------

HybridGovernor::HybridGovernor(HybridConfig config) : config_(config) {
  if (config_.max_delta < 0.0) {
    throw std::invalid_argument("hybrid trim authority must be >= 0");
  }
}

std::string HybridGovernor::name() const { return "hybrid"; }

double HybridGovernor::update(const SensorFrame& frame) {
  const double error = frame.max_c - config_.setpoint_c;
  trim_ = pi_step(integral_, error, frame.dt_s, config_.kp, config_.ki, 0.0,
                  -config_.max_delta, config_.max_delta);
  return std::clamp(config_.baseline_probability + trim_, 0.0,
                    config_.max_probability);
}

void HybridGovernor::reset() {
  integral_ = 0.0;
  trim_ = 0.0;
}

// --- power cap --------------------------------------------------------------

PowerCapGovernor::PowerCapGovernor(PowerCapConfig config) : config_(config) {
  if (config_.max_probability < 0.0) {
    throw std::invalid_argument("power-cap probability ceiling must be >= 0");
  }
}

std::string PowerCapGovernor::name() const { return "power-cap"; }

double PowerCapGovernor::update(const SensorFrame& frame) {
  // Positive error = over budget = inject more.
  last_power_w_ = frame.package_w;
  return pi_step(integral_, frame.package_w - config_.cap_w, frame.dt_s,
                 config_.kp, config_.ki, 0.0, 0.0, config_.max_probability);
}

void PowerCapGovernor::reset() {
  integral_ = 0.0;
  last_power_w_ = 0.0;
}

// --- spec -------------------------------------------------------------------

std::unique_ptr<Governor> make_governor(const GovernorSpec& spec) {
  switch (spec.kind) {
    case GovernorKind::kNone:
      return nullptr;
    case GovernorKind::kHysteresis:
      return std::make_unique<HysteresisGovernor>(spec.hysteresis);
    case GovernorKind::kPid:
      return std::make_unique<PidGovernor>(spec.pid);
    case GovernorKind::kHybrid:
      return std::make_unique<HybridGovernor>(spec.hybrid);
    case GovernorKind::kPowerCap:
      return std::make_unique<PowerCapGovernor>(spec.power_cap);
  }
  throw std::logic_error("unknown GovernorKind");
}

std::string governor_label(const GovernorSpec& spec) {
  switch (spec.kind) {
    case GovernorKind::kNone:
      return "open-loop";
    case GovernorKind::kHysteresis: {
      const auto& h = spec.hysteresis;
      if (h.release_c == h.trip_c) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "threshold[%.0f,p=%.2f]", h.trip_c,
                      h.hot_probability);
        return buf;
      }
      return fmt("hysteresis[%.0f/%.0f,p=%.2f]", h.trip_c, h.release_c,
                 h.hot_probability);
    }
    case GovernorKind::kPid:
      return fmt("pid[set=%.0f,kp=%.2f,ki=%.2f]", spec.pid.setpoint_c,
                 spec.pid.kp, spec.pid.ki);
    case GovernorKind::kHybrid:
      return fmt("hybrid[p=%.2f,set=%.0f,kp=%.2f]",
                 spec.hybrid.baseline_probability, spec.hybrid.setpoint_c,
                 spec.hybrid.kp);
    case GovernorKind::kPowerCap:
      return fmt("power-cap[cap=%.0fW,kp=%.2f,ki=%.2f]", spec.power_cap.cap_w,
                 spec.power_cap.kp, spec.power_cap.ki);
  }
  return "governor?";
}

double governor_reference_c(const GovernorSpec& spec) {
  switch (spec.kind) {
    case GovernorKind::kNone:
    case GovernorKind::kPowerCap:
      return 0.0;
    case GovernorKind::kHysteresis:
      return spec.hysteresis.trip_c;
    case GovernorKind::kPid:
      return spec.pid.setpoint_c;
    case GovernorKind::kHybrid:
      return spec.hybrid.setpoint_c;
  }
  return 0.0;
}

void append_canonical_governor(sim::CanonWriter& w, const GovernorSpec& spec) {
  w.open("gov");
  w.field("kind", static_cast<std::uint64_t>(spec.kind));
  w.field("dt", static_cast<std::uint64_t>(spec.sample_period));
  w.field("L", static_cast<std::uint64_t>(spec.quantum));
  w.field("band", spec.stability_band_c);
  w.field("h.trip", spec.hysteresis.trip_c);
  w.field("h.rel", spec.hysteresis.release_c);
  w.field("h.hot", spec.hysteresis.hot_probability);
  w.field("h.idle", spec.hysteresis.idle_probability);
  w.field("pid.set", spec.pid.setpoint_c);
  w.field("pid.kp", spec.pid.kp);
  w.field("pid.ki", spec.pid.ki);
  w.field("pid.kd", spec.pid.kd);
  w.field("pid.min", spec.pid.min_probability);
  w.field("pid.max", spec.pid.max_probability);
  w.field("hy.base", spec.hybrid.baseline_probability);
  w.field("hy.set", spec.hybrid.setpoint_c);
  w.field("hy.kp", spec.hybrid.kp);
  w.field("hy.ki", spec.hybrid.ki);
  w.field("hy.delta", spec.hybrid.max_delta);
  w.field("hy.max", spec.hybrid.max_probability);
  if (spec.kind == GovernorKind::kPowerCap) {
    w.field("pc.cap", spec.power_cap.cap_w);
    w.field("pc.kp", spec.power_cap.kp);
    w.field("pc.ki", spec.power_cap.ki);
    w.field("pc.max", spec.power_cap.max_probability);
  }
  w.close();
}

}  // namespace dimetrodon::control
