#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "control/governor.hpp"
#include "core/controller.hpp"

namespace dimetrodon::control {

/// Explicit arbitration over core::DimetrodonController's global duty cycle.
///
/// Without this, any two writers — the preventive baseline configured by an
/// operator, a closed-loop governor, a power-cap governor — would race
/// on sys_set_global and the *last* writer would win, which is a bug: the
/// paper's preventive floor would vanish the moment a power cap ticked, and
/// a governor's trip would be undone by the next cap update.
///
/// The arbiter is the single writer. Control sources each claim one channel
/// (claiming a channel twice throws: two governors on one machine is a
/// configuration error, not a tie to break silently) and publish duty
/// requests through their port; the arbiter resolves max-probability-wins —
/// injection is a cooling actuation, so the most conservative (coolest)
/// request is always safe to honor — and writes the winner's (p, quantum)
/// through sys_set_global exactly once per change.
class InjectionArbiter {
 public:
  /// Fixed channel set; ties resolve to the lowest channel index, so
  /// resolution is deterministic.
  enum class Channel : std::uint8_t {
    kPreventive = 0,  // operator-configured open-loop baseline
    kGovernor = 1,    // closed-loop thermal governor
    kPowerCap = 2,    // power-cap governor (GovernorKind::kPowerCap)
  };
  static constexpr std::size_t kNumChannels = 3;

  /// One claimed channel's write handle.
  class Port {
   public:
    /// Publish this channel's duty request and re-resolve.
    void request(double probability, sim::SimTime quantum);
    /// Stop requesting (the channel no longer constrains the duty).
    void withdraw();

    double probability() const;
    bool engaged() const;

   private:
    friend class InjectionArbiter;
    InjectionArbiter* arbiter_ = nullptr;
    Channel channel_ = Channel::kPreventive;
  };

  explicit InjectionArbiter(core::DimetrodonController& controller);

  InjectionArbiter(const InjectionArbiter&) = delete;
  InjectionArbiter& operator=(const InjectionArbiter&) = delete;

  /// Claim a channel for `owner` (a diagnostic name). Throws
  /// std::logic_error if the channel is already claimed.
  Port& claim(Channel channel, std::string owner);

  bool claimed(Channel channel) const;
  const std::string& owner(Channel channel) const;

  /// Resolution state (diagnostics, tests).
  double resolved_probability() const { return resolved_p_; }
  Channel winner() const { return winner_; }
  std::uint64_t writes() const { return writes_; }

 private:
  struct Slot {
    bool claimed = false;
    bool engaged = false;
    std::string owner;
    double probability = 0.0;
    sim::SimTime quantum = 0;
    Port port;
  };

  void resolve();
  Slot& slot(Channel c) { return slots_.at(static_cast<std::size_t>(c)); }
  const Slot& slot(Channel c) const {
    return slots_.at(static_cast<std::size_t>(c));
  }

  core::DimetrodonController& controller_;
  std::array<Slot, kNumChannels> slots_{};
  double resolved_p_ = 0.0;
  sim::SimTime resolved_quantum_ = 0;
  Channel winner_ = Channel::kPreventive;
  std::uint64_t writes_ = 0;  // sys_set_global calls actually issued
};

}  // namespace dimetrodon::control
