#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "power/energy.hpp"
#include "power/meter.hpp"
#include "power/power_model.hpp"
#include "sched/core.hpp"
#include "sched/scheduler.hpp"
#include "sched/snapshot.hpp"
#include "sched/ule_scheduler.hpp"
#include "sched/thread.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/sensor.hpp"

namespace dimetrodon::sched {

/// Configuration of the simulated server (defaults reproduce the paper's
/// testbed, §3.2).
/// Which scheduler implementation drives the machine. The paper modified
/// the 4.4BSD scheduler; ULE is the generalization its footnote promises.
enum class SchedulerKind : std::uint8_t { kBsd, kUle };

struct MachineConfig {
  /// Physical cores (each with its own die node in the thermal network).
  std::size_t num_cores = 4;

  /// Simultaneous multithreading: two hardware contexts per physical core.
  /// The paper disabled SMT "in order to cause the entire core to enter the
  /// C1E low power state we need to halt all thread contexts on the core"
  /// (§3.2); enabling it here exercises exactly that interaction.
  bool smt_enabled = false;
  /// Per-context execution rate when the sibling context is also executing
  /// (two active siblings deliver 2*0.65 = 1.3x a single context).
  double smt_throughput_factor = 0.65;
  /// Extension (the paper's "additional care in co-scheduling idle quanta"):
  /// an injection on one context also suspends the sibling's thread for the
  /// same quantum so the whole physical core can reach C1E.
  bool smt_co_schedule_injection = false;
  thermal::FloorplanParams floorplan{};
  power::PowerModelParams power{};
  power::DvfsTable dvfs = power::DvfsTable::e5520();
  power::PowerMeter::Config meter{};
  SchedulerKind scheduler_kind = SchedulerKind::kBsd;
  BsdSchedulerConfig scheduler{};
  UleSchedulerConfig ule{};

  /// Idle state entered by idle cores (the platform's C1E).
  power::CState idle_cstate = power::CState::kC1E;

  /// Direct context-switch cost charged when a core switches threads.
  sim::SimTime context_switch_cost = sim::from_us(15);

  /// Pipeline drain/refill throughput overhead of TCC clock modulation,
  /// charged proportionally to the gated fraction (see Core::execution_rate).
  double clock_modulation_overhead = 0.12;

  /// Hardware thermal monitor (Intel TM1/PROCHOT): when a die crosses
  /// `prochot_c` the TCC force-throttles that core's clock until it cools
  /// below `prochot_release_c`. This is the worst-case DTM safety net the
  /// paper distinguishes preventive management from (§1) — Dimetrodon's job
  /// is to keep the system far away from it.
  bool hw_thermal_throttle = true;
  double prochot_c = 85.0;
  double prochot_release_c = 80.0;
  sim::SimTime thermal_monitor_period = sim::from_ms(5);
  std::size_t prochot_duty_step = 2;  // 25% clock duty while throttling

  /// Thermal integration substep: the fixed grid the thermal state lives on,
  /// and the only dt the network ever steps with (one LU factorization per
  /// machine). Integration happens lazily at machine interaction points
  /// (scheduler events, actuation, sensor/meter reads): a span that ends
  /// inside the open substep only carries its energy; a completed substep is
  /// charged with its time-weighted mean power, and the whole substeps after
  /// it are fast-forwarded in O(log k) matvecs. Sensors, leakage and PROCHOT
  /// therefore read the last grid state, at most one substep stale.
  sim::SimTime thermal_substep = sim::from_us(250);

  /// Upper bound on the span between thermal advances (a coarse self-
  /// rescheduling event). Power — including temperature-dependent leakage —
  /// is held constant across each span, so this bounds the leakage-feedback
  /// refresh interval on an otherwise quiet machine.
  sim::SimTime thermal_watchdog = sim::from_ms(5);

  /// Testing/benchmark mode: the sequential reference — a self-rescheduling
  /// `thermal_substep` event, and every span walked along the same grid one
  /// substep at a time (power and leakage refreshed at each grid point, one
  /// LU solve per grid point, partial substeps carried exactly like the
  /// lazy clock carries them). The parity suite and the before/after engine
  /// benchmark run against this.
  bool thermal_reference_stepper = false;

  /// Attach the sampled power meter (disable for large parameter sweeps).
  bool enable_meter = true;

  /// Start from idle thermal equilibrium instead of ambient.
  bool start_at_idle_equilibrium = true;

  /// May a waking kernel-class thread cut an injected idle quantum short?
  /// Default mirrors the paper's mechanism: the idle quantum runs to
  /// completion.
  bool kernel_preempts_injection = false;

  /// Injection semantics. true (default): an injection deschedules the
  /// victim thread for the idle quantum and the core idles only if no other
  /// eligible thread is runnable — the per-thread semantics implied by the
  /// paper's Figure 5, where a shielded "cool" process runs without
  /// interruption while "hot" threads are throttled. false: the literal
  /// §3.1 mechanism — the core runs the idle thread for the whole quantum
  /// with the victim pinned on the run queue. The two are identical whenever
  /// runnable threads <= cores (every single-workload experiment).
  bool injection_suspends_thread = true;

  /// Observability. Invoked once at construction; the returned sink receives
  /// every structured trace event (see src/obs). Leave empty (or return
  /// nullptr) for the zero-overhead path: counters still accrue, but no event
  /// is ever constructed. Configs are copied freely (e.g. per sweep run), so
  /// attachment is expressed as a factory rather than a sink instance.
  obs::SinkFactory trace_sink_factory;

  /// Period of the trace-time die-temperature sampler. Scheduled only when a
  /// sink is attached, and strictly read-only (no thermal-integration calls),
  /// so tracing can never perturb the simulation it observes.
  sim::SimTime trace_sensor_period = sim::from_ms(1);

  std::uint64_t seed = 0x5eed;
};

/// The simulated server: four cores under a 4.4BSD scheduler, an RC thermal
/// stack, a dynamic+leakage power model, coretemp-style sensors and a clamp
/// power meter. This is the substrate on which Dimetrodon (src/core) and the
/// baseline policies (src/policy) act.
class Machine {
 public:
  explicit Machine(MachineConfig config);

  // Non-copyable, non-movable: threads and events hold stable pointers in.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- thread management -------------------------------------------------
  ThreadId create_thread(std::string name, ThreadClass cls, int nice,
                         std::unique_ptr<ThreadBehavior> behavior,
                         CoreId affinity = kNoCore);

  /// Wake a kSleepUntilWoken (or timed-sleeping) thread now. No-op if the
  /// thread is not sleeping.
  void wake_thread(ThreadId id);

  /// Re-pin a thread to a (logical) CPU, preempting it if it is currently
  /// running elsewhere — the cheap "migration" primitive that multicore
  /// thermal-management schemes like Heat-and-Run build on. Pass kNoCore to
  /// clear the affinity.
  void set_thread_affinity(ThreadId id, CoreId target);

  Thread& thread(ThreadId id) { return *threads_.at(id); }
  const Thread& thread(ThreadId id) const { return *threads_.at(id); }
  std::size_t thread_count() const { return threads_.size(); }
  std::size_t live_thread_count() const { return live_threads_; }

  // --- actuation (thermal management knobs) --------------------------------
  void set_injection_hook(InjectionHook* hook) { hook_ = hook; }
  InjectionHook* injection_hook() const { return hook_; }

  /// DVFS setpoint for one core / all cores (index into the DVFS ladder).
  void set_dvfs_level(CoreId core, std::size_t level);
  void set_all_dvfs_levels(std::size_t level);

  /// Live fan degradation/repair: re-aim the heatsink→ambient conductance at
  /// `fraction` (same (0, 1] domain and pow(f, 0.8) affinity law as the
  /// construction-time FloorplanParams::fan_speed_fraction). The thermal
  /// state is first brought to "now" so the grid points already passed
  /// integrate under the old conductance; the step operator rebuilds lazily
  /// against the new one. Throws std::invalid_argument outside (0, 1].
  void set_fan_speed(double fraction);

  /// p4tcc-style clock duty step (1..8 meaning 12.5%..100%). This sets the
  /// software-requested duty; the hardware thermal monitor may force a lower
  /// effective duty while a die is over temperature.
  void set_clock_duty_step(CoreId core, std::size_t step);
  void set_all_clock_duty_steps(std::size_t step);

  /// True while the thermal monitor is throttling this physical core.
  bool thermal_throttle_active(std::size_t phys) const {
    return tm_active_.at(phys);
  }
  /// Total TM engagements (diagnostics).
  std::uint64_t thermal_throttle_engagements() const { return tm_events_; }

  // --- running --------------------------------------------------------------
  sim::SimTime now() const { return sim_.now(); }
  void run_for(sim::SimTime duration) { run_until(sim_.now() + duration); }
  void run_until(sim::SimTime deadline);

  /// Run until `pred()` is true or `deadline` passes; returns whether the
  /// predicate fired.
  bool run_until_condition(const std::function<bool()>& pred,
                           sim::SimTime deadline);

  /// Schedule an arbitrary callback (workload drivers use this for request
  /// arrivals etc.).
  void call_at(sim::SimTime when, std::function<void(sim::SimTime)> fn);

  // --- observation ----------------------------------------------------------
  const Core& core(CoreId id) const { return cores_.at(id); }
  /// Logical CPUs visible to the scheduler (2x physical when SMT is on).
  std::size_t num_cores() const { return cores_.size(); }
  std::size_t num_physical_cores() const { return config_.num_cores; }
  /// Physical core a logical CPU belongs to.
  std::size_t physical_of(CoreId logical) const {
    return config_.smt_enabled ? logical / 2 : logical;
  }

  thermal::RcNetwork& thermal_network() { return network_; }
  const thermal::RcNetwork& thermal_network() const { return network_; }
  const thermal::FloorplanNodes& thermal_nodes() const { return nodes_; }
  const thermal::CoreTempSensor& sensor(CoreId id) const {
    return sensors_.at(physical_of(id));
  }
  /// Mean of the per-core quantized sensor readings — the quantity the
  /// paper's experiments report.
  double mean_sensor_temp() const;
  double die_temperature(CoreId id) const {
    return network_.temperature(nodes_.die[physical_of(id)]);
  }

  /// Fast-forward the thermal network to the present instant, making "now" an
  /// interaction point under the lazy thermal clock. Feedback controllers
  /// call this before reading sensors so a sample observes the last grid
  /// point (at most one thermal_substep old) without adding a periodic
  /// event — the fast-forward stays O(log k) in the elapsed substeps.
  void sync_thermal_now() { advance_thermal(sim_.now()); }

  /// True instantaneous package power right now, watts.
  double current_total_power();

  power::PowerMeter* meter() { return meter_ ? &*meter_ : nullptr; }
  const power::EnergyAccountant& energy() const { return energy_; }
  const power::CpuPowerModel& power_model() const { return power_model_; }
  const MachineConfig& config() const { return config_; }
  sim::Simulator& simulator() { return sim_; }

  /// Fork an independent RNG stream from the machine's master seed.
  sim::Rng fork_rng() { return master_rng_.fork(); }

  // --- observability --------------------------------------------------------
  /// Structured event probes + always-on counter registry (src/obs).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// Shorthand for the counter registry the tracer maintains.
  const obs::CounterRegistry& counters() const { return tracer_.counters(); }

  // --- accelerated thermal settling ----------------------------------------
  /// Average per-node power since the last mark (for steady-state jumps).
  void mark_power_window();
  /// Jump the thermal network to the steady state of the average power
  /// observed since mark_power_window(). Harnesses iterate run/jump to settle
  /// minutes of thermal time constants in seconds of simulated time.
  void jump_to_average_power_steady_state();

  // --- snapshot / warm-start ------------------------------------------------
  /// Capture the machine's complete dynamic state (see MachineSnapshot for
  /// the fork ≡ replay contract). Throws std::runtime_error when the machine
  /// is not snapshot-capable: a power meter or trace sink attached, the
  /// reference thermal stepper active, an injection hook installed, a
  /// scheduler or thread behavior without snapshot support, or pending
  /// events the machine does not track (e.g. workload call_at timers) — the
  /// reconciliation against the event queue turns any such gap into a loud
  /// failure instead of a silently diverging fork.
  MachineSnapshot snapshot();

  /// Restore a snapshot into this machine. Requires: freshly constructed
  /// with the identical MachineConfig, the identical workload deployed (so
  /// thread ids, names, behaviors and RNG forks line up), and the same
  /// snapshot preconditions (no meter/sink/hook/reference stepper). After
  /// this returns the machine evolves bit-identically to the one the
  /// snapshot was taken from.
  void restore(const MachineSnapshot& s);

 private:
  friend class MachineTestPeer;

  // Scheduling engine.
  void dispatch(Core& core);
  void run_thread(Core& core, Thread& t);
  void plan_segment(Core& core);
  void on_segment_end(Core& core);
  void enter_idle(Core& core, bool injected, sim::SimTime quantum,
                  Thread* victim);
  void finish_idle_entry(Core& core);
  void end_injected_idle(Core& core);
  void begin_idle_exit(Core& core);
  void finish_idle_exit(Core& core);
  void make_runnable(Thread& t);
  void suspend_for_injection(Thread& t, CoreId where, sim::SimTime quantum);
  void stop_current(Core& core, sim::SimTime now);
  void checkpoint_segment(Core& core);
  bool try_kick_idle_core(Thread& t);
  bool try_preempt_for_kernel_thread(Thread& t);
  void finish_thread(Core& core, Thread& t);

  // Physics.
  double physical_core_power(std::size_t phys) const;
  double execution_rate(const Core& c) const;
  Core* sibling(const Core& c);
  void sibling_checkpoint(Core& c);
  void replan_sibling(Core& c);
  void advance_thermal(sim::SimTime to);
  /// Charge [last_thermal_update_, to) at the current power and move the
  /// grid across every grid point it reaches.
  void integrate_span(sim::SimTime to);
  void apply_powers(double span_seconds);
  void sync_thermal_counters();
  void schedule_substep();
  void schedule_thermal_watchdog();
  void schedule_meter_sample();
  void schedule_trace_sensor();
  void schedule_schedcpu();
  void schedule_thermal_monitor();
  // Absolute-time arming primitives shared by the periodic schedulers above
  // and snapshot restore (which re-arms captured events at captured times).
  void check_snapshot_preconditions() const;
  sim::EventHandle arm_thermal_watchdog(sim::SimTime at);
  sim::EventHandle arm_schedcpu(sim::SimTime at);
  sim::EventHandle arm_thermal_monitor(sim::SimTime at);
  void arm_sleep_wake(ThreadId id, sim::SimTime at);
  void arm_injection_resume(ThreadId victim, CoreId where, sim::SimTime quantum,
                            sim::SimTime at);
  void thermal_monitor_tick();
  void apply_effective_duty(Core& c);
  double core_power_now(const Core& c) const;
  double mean_c0_activity() const;

  MachineConfig config_;
  sim::Simulator sim_;
  sim::Rng master_rng_;

  thermal::RcNetwork network_;
  thermal::FloorplanNodes nodes_;
  std::vector<thermal::CoreTempSensor> sensors_;

  power::CpuPowerModel power_model_;
  std::optional<power::PowerMeter> meter_;
  power::EnergyAccountant energy_;

  std::unique_ptr<Scheduler> scheduler_;
  InjectionHook* hook_ = nullptr;
  obs::Tracer tracer_;

  std::vector<Core> cores_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::size_t live_threads_ = 0;

  // Thermal grid: the network holds the state at thermal_grid_ (whole
  // substeps past the last re-anchor); carry_joules_ is each node's energy
  // over the open substep's elapsed part [thermal_grid_, last_thermal_update_).
  sim::SimTime last_thermal_update_ = 0;
  sim::SimTime thermal_grid_ = 0;
  std::vector<double> carry_joules_;
  std::vector<double> span_power_;  // integrate_span scratch

  // Handles to the machine's recurring self-rescheduling events, plus a
  // registry of in-flight per-thread timers (timed-sleep wakeups and
  // injection-suspension expiries, with the payloads their callbacks close
  // over). Together with the per-core timers these account for every event
  // the machine itself puts in the queue — the inventory snapshot() captures
  // and reconciles against the queue's live count.
  sim::EventHandle watchdog_timer_;
  sim::EventHandle schedcpu_timer_;
  sim::EventHandle monitor_timer_;
  struct ThreadTimer {
    enum class Kind : std::uint8_t { kWake = 0, kInjectionResume = 1 };
    Kind kind = Kind::kWake;
    ThreadId thread = kInvalidThread;
    CoreId where = kNoCore;    // injection-resume only
    sim::SimTime quantum = 0;  // injection-resume only
    sim::EventHandle handle;
  };
  std::vector<ThreadTimer> thread_timers_;
  void track_thread_timer(ThreadTimer&& t);

  // Power-window accumulators for steady-state jumps (joules per node).
  std::vector<double> window_node_joules_;
  sim::SimTime window_start_ = 0;

  // Hardware thermal monitor state (per physical core).
  std::vector<bool> tm_active_;
  std::uint64_t tm_events_ = 0;
};

}  // namespace dimetrodon::sched
