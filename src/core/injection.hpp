#pragma once

#include <optional>
#include <unordered_map>

#include "sched/thread.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dimetrodon::core {

/// Injection configuration for one thread (or the global default): with
/// proportion `probability` (the paper's p), displace the thread's dispatch
/// by an idle quantum of length `quantum` (the paper's L).
struct InjectionParams {
  double probability = 0.0;
  sim::SimTime quantum = sim::from_ms(100);

  bool enabled() const { return probability > 0.0 && quantum > 0; }
};

/// Decides, at each dispatch of a thread, whether to inject an idle quantum.
/// The paper expresses the idle proportion as a probability ("this is not the
/// only possible injection model", §2) — implementations of this interface
/// are exactly that design space.
class InjectionPolicy {
 public:
  virtual ~InjectionPolicy() = default;

  /// Return the idle quantum to inject before running thread `tid`, or
  /// nullopt to run it. Called only with enabled() params.
  virtual std::optional<sim::SimTime> decide(sched::ThreadId tid,
                                             const InjectionParams& params,
                                             sim::SimTime now) = 0;
};

/// The paper's implementation: an independent Bernoulli trial per dispatch.
/// Expected idle quanta per execution quantum is p/(1-p); temperature curves
/// fluctuate visibly because of the sampling noise (paper Fig. 2).
class BernoulliInjection final : public InjectionPolicy {
 public:
  explicit BernoulliInjection(sim::Rng rng) : rng_(std::move(rng)) {}

  std::optional<sim::SimTime> decide(sched::ThreadId tid,
                                     const InjectionParams& params,
                                     sim::SimTime now) override;

 private:
  sim::Rng rng_;
};

/// The paper's suggested refinement ("a more deterministic model would likely
/// result in smoother curves", §3.4): per-thread error diffusion. Each
/// dispatch accumulates p; when the accumulator crosses 1, inject and subtract
/// 1. Long-run injection proportion is exactly p with minimal variance.
/// Accumulators are phase-staggered across threads (golden-ratio offsets) so
/// that co-scheduled threads do not idle in lockstep — synchronized duty
/// cycling would swing the package temperature coherently and forfeit the
/// smoothness this policy exists for.
class StratifiedInjection final : public InjectionPolicy {
 public:
  explicit StratifiedInjection(bool stagger_phases = true)
      : stagger_phases_(stagger_phases) {}

  std::optional<sim::SimTime> decide(sched::ThreadId tid,
                                     const InjectionParams& params,
                                     sim::SimTime now) override;

 private:
  double initial_accumulator(sched::ThreadId tid) const;

  bool stagger_phases_;
  std::unordered_map<sched::ThreadId, double> accumulators_;
};

}  // namespace dimetrodon::core
