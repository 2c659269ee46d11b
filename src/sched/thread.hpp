#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dimetrodon::sched {

using ThreadId = std::uint32_t;
inline constexpr ThreadId kInvalidThread = 0xffffffff;
using CoreId = std::uint32_t;
inline constexpr CoreId kNoCore = 0xffffffff;

enum class ThreadState : std::uint8_t {
  kRunnable,  // on a run queue
  kRunning,   // current on some core
  kSleeping,  // blocked (timed or until woken)
  kDone,      // exited
};

/// Scheduling class. Kernel threads service interrupts and are exempt from
/// idle injection under the paper's default policy (§3.1: "We always schedule
/// kernel-level threads").
enum class ThreadClass : std::uint8_t { kUser, kKernel };

/// One CPU burst requested by a thread behavior: `work_seconds` of execution
/// measured at the nominal clock (a core at reduced frequency or clock duty
/// completes it proportionally slower) with the given switching-activity
/// factor for the power model.
struct Burst {
  double work_seconds = 0.0;
  double activity = 1.0;
};

/// What a thread does after finishing a burst.
struct BurstOutcome {
  enum class Kind : std::uint8_t {
    kContinue,        // immediately request the next burst
    kSleepFor,        // block for `sleep_for`, then request the next burst
    kSleepUntilWoken, // block until Machine::wake_thread
    kExit,            // thread terminates
  };
  Kind kind = Kind::kExit;
  sim::SimTime sleep_for = 0;

  static BurstOutcome Continue() { return {Kind::kContinue, 0}; }
  static BurstOutcome SleepFor(sim::SimTime d) { return {Kind::kSleepFor, d}; }
  static BurstOutcome SleepUntilWoken() { return {Kind::kSleepUntilWoken, 0}; }
  static BurstOutcome Exit() { return {Kind::kExit, 0}; }
};

/// Workload-side interface: supplies CPU bursts and reacts to their
/// completion. Implementations live in src/workload.
class ThreadBehavior {
 public:
  virtual ~ThreadBehavior() = default;

  /// Next CPU burst. Called when the thread is dispatched with no work left.
  virtual Burst next_burst(sim::SimTime now, sim::Rng& rng) = 0;

  /// Called when the current burst's work is fully executed.
  virtual BurstOutcome on_burst_complete(sim::SimTime now, sim::Rng& rng) = 0;

  /// Snapshot support: append this behavior's mutable state (if any) to
  /// `out` and return true. The default returns false — "cannot be
  /// checkpointed" — which makes Machine::snapshot refuse loudly instead of
  /// forking a behavior whose hidden state would silently diverge.
  virtual bool save_state(std::vector<double>& out) const {
    (void)out;
    return false;
  }
  /// Restore state appended by save_state (same length, same order).
  virtual void load_state(const std::vector<double>& in) { (void)in; }
};

/// Everything about a thread that changes while the machine runs, as one
/// trivially copyable value: Machine::snapshot() and restore() copy it
/// whole, so a field added here is captured with no further code.
struct ThreadDynamicState {
  ThreadState state = ThreadState::kRunnable;
  CoreId affinity = kNoCore;
  CoreId injection_pin = kNoCore;
  bool injection_suspended = false;

  double burst_remaining = 0.0;
  double activity = 1.0;
  double cpu_seconds = 0.0;
  double work_completed = 0.0;
  std::uint64_t bursts_completed = 0;
  std::uint64_t times_scheduled = 0;
  std::uint64_t injections_suffered = 0;
  sim::SimTime created_at = 0;
  sim::SimTime finished_at = -1;

  double estcpu = 0.0;
  sim::SimTime sleep_started_at = -1;
  CoreId last_core = kNoCore;

  sim::Rng rng{0};
};
// One snapshot is shared read-only across sweep lanes (runner::SnapshotCache),
// so it must hold plain values: nothing with an owner count or a pointer.
static_assert(std::is_trivially_copyable_v<ThreadDynamicState>);

/// Kernel thread control block. Owned by the Machine; scheduler and policies
/// hold non-owning pointers.
class Thread {
 public:
  Thread(ThreadId id, std::string name, ThreadClass cls, int nice,
         std::unique_ptr<ThreadBehavior> behavior, sim::Rng rng)
      : id_(id),
        name_(std::move(name)),
        cls_(cls),
        nice_(nice),
        behavior_(std::move(behavior)) {
    dyn_.rng = rng;
  }

  ThreadId id() const { return id_; }
  const std::string& name() const { return name_; }
  ThreadClass thread_class() const { return cls_; }
  int nice() const { return nice_; }

  /// The whole mutable state, for Machine::snapshot() and restore().
  const ThreadDynamicState& dynamic_state() const { return dyn_; }
  void restore_dynamic_state(const ThreadDynamicState& s) { dyn_ = s; }

  ThreadState state() const { return dyn_.state; }
  void set_state(ThreadState s) { dyn_.state = s; }

  /// Hard affinity requested at creation (kNoCore = any).
  CoreId affinity() const { return dyn_.affinity; }
  void set_affinity(CoreId c) { dyn_.affinity = c; }

  /// Temporary pin applied while an injected idle quantum displaces this
  /// thread (paper §3.1: the preempted thread is pinned on the run queue so
  /// no other core runs it, then unpinned when the idle quantum ends).
  CoreId injection_pin() const { return dyn_.injection_pin; }
  void set_injection_pin(CoreId c) { dyn_.injection_pin = c; }

  /// True while the thread is descheduled by an injected idle quantum under
  /// suspension semantics; shields it from external wakeups until the
  /// quantum expires.
  bool injection_suspended() const { return dyn_.injection_suspended; }
  void set_injection_suspended(bool s) { dyn_.injection_suspended = s; }

  /// Core this thread may run on right now (combines affinity + pin).
  bool runnable_on(CoreId core) const {
    if (dyn_.injection_pin != kNoCore && dyn_.injection_pin != core) {
      return false;
    }
    if (dyn_.affinity != kNoCore && dyn_.affinity != core) return false;
    return true;
  }

  ThreadBehavior& behavior() { return *behavior_; }
  sim::Rng& rng() { return dyn_.rng; }

  // --- burst accounting (managed by the Machine) ---
  double burst_remaining() const { return dyn_.burst_remaining; }
  void set_burst_remaining(double w) { dyn_.burst_remaining = w; }
  double activity() const { return dyn_.activity; }
  void set_activity(double a) { dyn_.activity = a; }

  double cpu_seconds_consumed() const { return dyn_.cpu_seconds; }
  void add_cpu_seconds(double s) { dyn_.cpu_seconds += s; }
  double work_completed() const { return dyn_.work_completed; }
  void add_work_completed(double w) { dyn_.work_completed += w; }
  std::uint64_t bursts_completed() const { return dyn_.bursts_completed; }
  void increment_bursts_completed() { ++dyn_.bursts_completed; }
  std::uint64_t times_scheduled() const { return dyn_.times_scheduled; }
  void increment_times_scheduled() { ++dyn_.times_scheduled; }
  std::uint64_t injections_suffered() const {
    return dyn_.injections_suffered;
  }
  void increment_injections_suffered() { ++dyn_.injections_suffered; }

  sim::SimTime created_at() const { return dyn_.created_at; }
  void set_created_at(sim::SimTime t) { dyn_.created_at = t; }
  sim::SimTime finished_at() const { return dyn_.finished_at; }
  void set_finished_at(sim::SimTime t) { dyn_.finished_at = t; }

  // --- 4.4BSD scheduler bookkeeping ---
  double estcpu() const { return dyn_.estcpu; }
  void set_estcpu(double e) { dyn_.estcpu = e; }
  /// When the thread last entered a sleeping state (-1 if never slept).
  sim::SimTime sleep_started_at() const { return dyn_.sleep_started_at; }
  void set_sleep_started_at(sim::SimTime t) { dyn_.sleep_started_at = t; }
  CoreId last_core() const { return dyn_.last_core; }
  void set_last_core(CoreId c) { dyn_.last_core = c; }

 private:
  ThreadId id_;
  std::string name_;
  ThreadClass cls_;
  int nice_;
  std::unique_ptr<ThreadBehavior> behavior_;
  ThreadDynamicState dyn_;
};

}  // namespace dimetrodon::sched
