#include "control/driver.hpp"

#include <cmath>
#include <stdexcept>

namespace dimetrodon::control {

namespace {

void validate(const GovernorSpec& spec) {
  if (!spec.enabled()) {
    throw std::invalid_argument("GovernorDriver needs an enabled GovernorSpec");
  }
  if (spec.sample_period <= 0) {
    throw std::invalid_argument("governor sample period must be positive");
  }
}

InjectionArbiter::Channel channel_for(const GovernorSpec& spec) {
  return spec.kind == GovernorKind::kPowerCap
             ? InjectionArbiter::Channel::kPowerCap
             : InjectionArbiter::Channel::kGovernor;
}

// Validate before claiming: a constructor that throws after claiming would
// leave the channel permanently held on its arbiter.
InjectionArbiter::Port& claim_channel(InjectionArbiter& arbiter,
                                      const GovernorSpec& spec) {
  validate(spec);
  return arbiter.claim(channel_for(spec), governor_label(spec));
}

}  // namespace

GovernorDriver::GovernorDriver(sched::Machine& machine,
                               InjectionArbiter& arbiter, GovernorSpec spec)
    : machine_(machine),
      channel_(channel_for(spec)),
      port_(claim_channel(arbiter, spec)),
      spec_(spec),
      governor_(make_governor(spec)),
      stability_(governor_reference_c(spec), spec.stability_band_c),
      last_sample_at_(machine.now()),
      last_energy_j_(machine.energy().total_joules()) {
  schedule_sample();
}

void GovernorDriver::retune(const GovernorSpec& spec) {
  validate(spec);
  if (channel_for(spec) != channel_) {
    throw std::invalid_argument(
        "retune cannot move a loop between the governor and power-cap "
        "channels");
  }
  spec_ = spec;
  governor_ = make_governor(spec);
  stability_ = StabilityTracker(governor_reference_c(spec),
                                spec.stability_band_c);
  // The fresh controller holds no trip latch; realign the edge detector so
  // its first trip is counted as a trip, not swallowed as "still tripped".
  was_tripped_ = false;
}

void GovernorDriver::schedule_sample() {
  machine_.call_at(machine_.now() + spec_.sample_period,
                   [this](sim::SimTime t) { sample(t); });
}

void GovernorDriver::sample(sim::SimTime now) {
  if (!running_) return;

  // Make "now" an interaction point so the quantized sensors reflect the
  // present instant; under the lazy clock this is a closed-form fast-forward,
  // not per-substep integration.
  machine_.sync_thermal_now();

  SensorFrame frame;
  frame.at = now;
  frame.dt_s = has_last_ ? sim::to_sec(now - last_sample_at_) : 0.0;
  const std::size_t phys_cores = machine_.num_physical_cores();
  const std::size_t stride = machine_.config().smt_enabled ? 2 : 1;
  frame.temps_c.reserve(phys_cores);
  double sum = 0.0;
  for (std::size_t p = 0; p < phys_cores; ++p) {
    const double t = machine_.sensor(p * stride).read();
    frame.temps_c.push_back(t);
    sum += t;
    if (p == 0 || t > frame.max_c) {
      frame.max_c = t;
      frame.hottest_core = p;
    }
  }
  frame.mean_c = phys_cores > 0 ? sum / static_cast<double>(phys_cores) : 0.0;
  const double energy_j = machine_.energy().total_joules();
  if (now > last_sample_at_) {
    frame.package_w =
        (energy_j - last_energy_j_) / sim::to_sec(now - last_sample_at_);
  }

  const double duty = governor_->update(frame);
  const bool tripped = governor_->tripped();
  auto& tracer = machine_.tracer();
  const auto phys = static_cast<std::uint32_t>(frame.hottest_core);

  ++stats_.samples;
  tracer.governor_sample(now, phys, frame.max_c, duty);

  if (tripped != was_tripped_) {
    if (tripped) {
      ++stats_.trips;
    } else {
      ++stats_.releases;
    }
    tracer.governor_trip(now, phys, tripped, frame.max_c);
    was_tripped_ = tripped;
  }

  // Publishing only on change keeps the arbiter write count meaningful; a
  // never-engaged governor channel resolves identically to requesting 0.
  if (duty != last_duty_) {
    const double delta = duty - last_duty_;
    const bool reversal = last_duty_delta_ != 0.0 &&
                          std::signbit(delta) != std::signbit(last_duty_delta_);
    ++stats_.duty_changes;
    if (reversal) ++stats_.duty_reversals;
    tracer.duty_change(now, static_cast<std::uint32_t>(channel_), duty,
                       reversal);
    last_duty_delta_ = delta;
    last_duty_ = duty;
    port_.request(duty, spec_.quantum);
  }

  if (channel_ == InjectionArbiter::Channel::kGovernor) {
    stability_.on_sample(now, frame.max_c, duty);
  }
  has_last_ = true;
  last_sample_at_ = now;
  last_energy_j_ = energy_j;
  schedule_sample();
}

}  // namespace dimetrodon::control
