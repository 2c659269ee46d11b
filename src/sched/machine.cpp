#include "sched/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "power/clock_modulation.hpp"
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dimetrodon::sched {

namespace {
// Work below two nanoseconds of nominal execution is floating-point residue
// from segment accounting (event times are integer nanoseconds), not real
// work; treating it as pending would schedule zero-length segments.
constexpr double kWorkEpsilon = 2e-9;

// Headroom the PROCHOT certificate keeps below prochot_c. The bound is exact
// for the implicit-Euler recurrence; this absorbs the rounding of the lifted
// tables and the steady solve, which is orders of magnitude smaller.
constexpr double kProchotMarginC = 0.01;
}  // namespace

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      master_rng_(config_.seed),
      power_model_(config_.power) {
  if (config_.thermal_monitor_period <= 0) {
    throw std::invalid_argument("thermal_monitor_period must be positive");
  }
  refresh_at_ = config_.thermal_monitor_period;
  config_.floorplan.num_cores = config_.num_cores;
  nodes_ = thermal::build_server_floorplan(network_, config_.floorplan);
  sensors_.reserve(config_.num_cores);
  power_memo_.resize(config_.num_cores);
  for (std::size_t i = 0; i < config_.num_cores; ++i) {
    sensors_.emplace_back(network_, nodes_.die[i]);
    const double t = network_.temperature(nodes_.die[i]);
    power_memo_[i].temp_bits = std::bit_cast<std::uint64_t>(t);
    power_memo_[i].temp_factor = power_model_.leakage_temp_factor(t);
  }
  const std::size_t logical_cpus =
      config_.num_cores * (config_.smt_enabled ? 2 : 1);
  cores_.reserve(logical_cpus);
  const auto& nominal = config_.dvfs.nominal();
  for (std::size_t i = 0; i < logical_cpus; ++i) {
    Core c;
    c.id = static_cast<CoreId>(i);
    c.activity = CoreActivity::kIdle;
    c.op.cstate = config_.idle_cstate;
    c.op.in_transition = false;
    c.op.activity = 0.0;
    c.op.voltage_v = nominal.voltage_v;
    c.op.freq_ghz = nominal.freq_ghz;
    c.op.clock_duty = 1.0;
    cores_.push_back(c);
  }
  window_node_joules_.assign(network_.node_count(), 0.0);
  carry_joules_.assign(network_.node_count(), 0.0);
  span_power_.assign(network_.node_count(), 0.0);
  tracer_.counters().resize(cores_.size());
  if (config_.trace_sink_factory) {
    if (auto sink = config_.trace_sink_factory()) {
      tracer_.attach(std::move(sink));
      schedule_trace_sensor();
    }
  }

  if (config_.start_at_idle_equilibrium) {
    // Fixed-point iteration: leakage depends on die temperature which depends
    // on leakage. Converges quickly because the loop gain is < 1. A pass that
    // leaves every temperature bitwise unchanged is the exact fixed point:
    // the next pass would set the same powers and solve to the same state.
    const auto bits = [](double t) { return std::bit_cast<std::uint64_t>(t); };
    std::vector<double> before(network_.node_count());
    for (int iter = 0; iter < 32; ++iter) {
      for (thermal::NodeId n = 0; n < before.size(); ++n) {
        before[n] = network_.temperature(n);
      }
      for (std::size_t i = 0; i < config_.num_cores; ++i) {
        network_.set_power(nodes_.die[i], physical_core_power(i));
      }
      network_.set_power(nodes_.package,
                         power_model_.uncore_power(mean_c0_activity()));
      network_.solve_steady_state();
      bool moved = false;
      for (thermal::NodeId n = 0; n < before.size(); ++n) {
        moved |= bits(before[n]) != bits(network_.temperature(n));
      }
      if (!moved) break;
    }
  }

  if (config_.scheduler_kind == SchedulerKind::kUle) {
    scheduler_ = std::make_unique<UleScheduler>(cores_.size(), config_.ule);
  } else {
    scheduler_ = std::make_unique<BsdScheduler>(config_.scheduler);
  }
  if (config_.enable_meter) {
    meter_.emplace(config_.meter, master_rng_.fork());
    schedule_meter_sample();
  }
  tm_active_.assign(config_.num_cores, false);
  if (config_.thermal_reference_stepper) schedule_substep();
  schedule_schedcpu();
  if (config_.hw_thermal_throttle) schedule_thermal_monitor();
}

// --------------------------------------------------------------------------
// Physics
// --------------------------------------------------------------------------

double Machine::leakage_factor(std::size_t phys) {
  const double t = network_.temperature(nodes_.die[phys]);
  const auto bits = std::bit_cast<std::uint64_t>(t);
  PowerMemo& m = power_memo_[phys];
  if (m.temp_bits != bits) {
    m.temp_bits = bits;
    m.temp_factor = power_model_.leakage_temp_factor(t);
  }
  return m.temp_factor;
}

bool Machine::PowerMemo::Context::matches(const Core& c) const {
  // Bits, not values: an entry stored for -0.0 must not answer for +0.0.
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  return activity == c.activity && op.cstate == c.op.cstate &&
         op.in_transition == c.op.in_transition &&
         same(op.voltage_v, c.op.voltage_v) &&
         same(op.freq_ghz, c.op.freq_ghz) &&
         same(op.activity, c.op.activity) &&
         same(op.clock_duty, c.op.clock_duty);
}

double Machine::physical_core_power(std::size_t phys) {
  const std::size_t contexts = config_.smt_enabled ? 2 : 1;
  const Core* ctx = &cores_[phys * contexts];
  PowerMemo& m = power_memo_[phys];
  bool hit = m.valid;
  for (std::size_t k = 0; hit && k < contexts; ++k) {
    hit = m.contexts[k].matches(ctx[k]);
  }
  if (!hit) {
    // Dynamic power sums over the hardware contexts sharing the die;
    // leakage is a property of the physical core and its supply voltage.
    // The voltage only drops to the C1E level once EVERY context is settled
    // in the idle state — the constraint that made the paper disable SMT
    // (§3.2).
    double dynamic = 0.0;
    bool all_deep_idle = true;
    double voltage = 0.0;
    std::size_t executing = 0;
    for (std::size_t k = 0; k < contexts; ++k) {
      const Core& c = ctx[k];
      m.contexts[k] = {c.op, c.activity};
      dynamic += power_model_.core_dynamic_power(c.op);
      if (c.activity == CoreActivity::kExecuting) ++executing;
      if (c.activity != CoreActivity::kIdle || c.op.in_transition ||
          c.op.cstate != power::CState::kC1E) {
        all_deep_idle = false;
      }
      voltage = std::max(voltage, c.op.voltage_v);
    }
    // SMT contexts share execution units: switching power tracks retired
    // work (each context runs at the SMT throughput factor), not the sum of
    // two full pipelines.
    if (executing == 2) dynamic *= config_.smt_throughput_factor;
    power::CoreOperatingPoint leak_op;
    leak_op.cstate = all_deep_idle ? power::CState::kC1E : power::CState::kC0;
    leak_op.in_transition = false;
    leak_op.voltage_v = voltage;
    m.dynamic = dynamic;
    m.leak_term = power_model_.core_leakage_voltage_term(leak_op);
    m.valid = true;
    ++tracer_.counters().core_power_evals;
  }
  return m.dynamic + m.leak_term * leakage_factor(phys);
}

Core* Machine::sibling(const Core& c) {
  if (!config_.smt_enabled) return nullptr;
  return &cores_[c.id ^ 1u];
}

double Machine::execution_rate(const Core& c) const {
  double rate = c.execution_rate(config_.power.nominal_freq_ghz,
                                 config_.clock_modulation_overhead);
  if (config_.smt_enabled) {
    const Core& sib = cores_[c.id ^ 1u];
    if (sib.activity == CoreActivity::kExecuting && sib.current != nullptr) {
      rate *= config_.smt_throughput_factor;
    }
  }
  return rate;
}

void Machine::sibling_checkpoint(Core& c) {
  Core* sib = sibling(c);
  if (sib != nullptr && sib->current != nullptr &&
      sib->activity == CoreActivity::kExecuting) {
    // Retire the sibling's in-flight work at the rate that held until now;
    // the caller is about to change this context's activity.
    checkpoint_segment(*sib);
  }
}

void Machine::replan_sibling(Core& c) {
  Core* sib = sibling(c);
  if (sib == nullptr || sib->current == nullptr ||
      sib->activity != CoreActivity::kExecuting) {
    return;
  }
  // The sibling's effective execution rate changed with this context's
  // activity; retire its in-flight work at the old rate is impossible here
  // (rate already reflects the new state), so callers must invoke this right
  // AFTER checkpointing — see call sites.
  plan_segment(*sib);
}

double Machine::mean_c0_activity() const {
  double sum = 0.0;
  for (const Core& c : cores_) {
    if (c.activity == CoreActivity::kExecuting) sum += c.op.activity;
  }
  return cores_.empty() ? 0.0 : sum / static_cast<double>(cores_.size());
}

void Machine::apply_powers(double span_seconds) {
  for (std::size_t i = 0; i < config_.num_cores; ++i) {
    const double p = physical_core_power(i);
    network_.set_power(nodes_.die[i], p);
    energy_.add(p, span_seconds);
    window_node_joules_[nodes_.die[i]] += p * span_seconds;
  }
  const double uncore = power_model_.uncore_power(mean_c0_activity());
  network_.set_power(nodes_.package, uncore);
  energy_.add(uncore, span_seconds);
  window_node_joules_[nodes_.package] += uncore * span_seconds;
}

void Machine::sync_thermal_counters() {
  const thermal::RcNetwork::Stats& s = network_.stats();
  obs::CounterRegistry& c = tracer_.counters();
  c.thermal_substeps = s.substeps;
  c.thermal_fast_forward_steps = s.fast_forward_steps;
  c.thermal_factorizations = s.factorizations;
  c.thermal_solves = s.solves;
  c.thermal_matvecs = s.matvecs;
}

void Machine::advance_thermal(sim::SimTime to) {
  if (to <= last_thermal_update_) return;
  // Lazy clock: every mutation of power-relevant state calls advance_thermal
  // before acting, so the power vector is constant across [last, to) and one
  // span covers it however many substep grid points it crosses. The clock
  // owns its refresh cadence: it ends a span at every refresh point, the
  // same integrate_span a monitor tick there would run, so power and leakage
  // refresh at least every thermal_monitor_period with no event. The
  // sequential reference also walks the substep grid one substep at a time,
  // so power and leakage refresh at every grid point and each grid point
  // costs one propagator step.
  const bool tick_armed = config_.hw_thermal_throttle && !monitor_parked_;
  while (last_thermal_update_ < to) {
    sim::SimTime end = std::min(to, refresh_at_);
    if (config_.thermal_reference_stepper) {
      end = std::min(end, thermal_grid_ + config_.thermal_substep);
    }
    integrate_span(end);
    if (end == refresh_at_) {
      refresh_at_ += config_.thermal_monitor_period;
      // A refresh point no monitor tick fired at: the clock stood in.
      if (!tick_armed) ++tracer_.counters().clock_refreshes;
    }
  }
  sync_thermal_counters();
}

void Machine::integrate_span(sim::SimTime to) {
  const sim::SimTime from = last_thermal_update_;
  const sim::SimTime substep = config_.thermal_substep;
  const std::size_t n = carry_joules_.size();
  const double span = sim::to_sec(to - from);
  apply_powers(span);
  last_thermal_update_ = to;
  if (to < thermal_grid_ + substep) {
    // The span ends inside the open substep: carry its energy, do not step.
    for (std::size_t i = 0; i < n; ++i) {
      carry_joules_[i] += network_.power(i) * span;
    }
    return;
  }
  const double dt = sim::to_sec(substep);
  const auto crossed =
      static_cast<std::uint64_t>((to - thermal_grid_) / substep);
  std::uint64_t whole = crossed;
  // A substep this span covers alone steps with the span's power exactly
  // (not P·dt/dt, which can round), so both stepping paths share arithmetic.
  if (from != thermal_grid_) {
    // Close the open substep at its time-weighted mean power, then restore
    // this span's power for the whole substeps after it.
    const double head = sim::to_sec(thermal_grid_ + substep - from);
    for (std::size_t i = 0; i < n; ++i) {
      span_power_[i] = network_.power(i);
      network_.set_power(i, (carry_joules_[i] + span_power_[i] * head) / dt);
    }
    network_.step(dt);
    for (std::size_t i = 0; i < n; ++i) network_.set_power(i, span_power_[i]);
    --whole;
  }
  network_.advance(dt, whole);
  thermal_grid_ += static_cast<sim::SimTime>(crossed) * substep;
  const double tail = sim::to_sec(to - thermal_grid_);
  for (std::size_t i = 0; i < n; ++i) {
    carry_joules_[i] = network_.power(i) * tail;
  }
}

void Machine::schedule_substep() {
  sim_.after(config_.thermal_substep, [this](sim::SimTime t) {
    advance_thermal(t);
    schedule_substep();
  });
}

void Machine::schedule_meter_sample() {
  sim_.after(meter_->sample_interval(), [this](sim::SimTime t) {
    advance_thermal(t);
    const double watts = current_total_power();
    meter_->sample(t, watts);
    tracer_.meter_sample(t, watts);
    schedule_meter_sample();
  });
}

void Machine::schedule_trace_sensor() {
  // Observation only: the sampler advances the clock to the last refresh
  // point at or before t, where the clock ends a span anyway, so span
  // boundaries — and therefore every simulated result — are bit-identical
  // with and without tracing, and a sample is as fresh as it was when a
  // monitor tick ran at every refresh point.
  sim_.after(config_.trace_sensor_period, [this](sim::SimTime t) {
    const sim::SimTime period = config_.thermal_monitor_period;
    advance_thermal(t / period * period);
    for (std::size_t phys = 0; phys < config_.num_cores; ++phys) {
      tracer_.sensor_sample(t, static_cast<std::uint32_t>(phys),
                            network_.temperature(nodes_.die[phys]));
    }
    const thermal::RcNetwork::Stats& s = network_.stats();
    tracer_.thermal_stat(t, obs::ThermalStatKind::kSubsteps, s.substeps);
    tracer_.thermal_stat(t, obs::ThermalStatKind::kFastForwardSteps,
                         s.fast_forward_steps);
    tracer_.thermal_stat(t, obs::ThermalStatKind::kFactorizations,
                         s.factorizations);
    tracer_.thermal_stat(t, obs::ThermalStatKind::kMatvecs, s.matvecs);
    schedule_trace_sensor();
  });
}

sim::EventHandle Machine::arm_schedcpu(sim::SimTime at) {
  return sim_.at(at, [this](sim::SimTime t) {
    scheduler_->periodic(scheduler_->runnable_count(), t);
    schedule_schedcpu();
  });
}

void Machine::schedule_schedcpu() {
  schedcpu_timer_ = arm_schedcpu(sim_.now() + sim::kSecond);
}

double Machine::current_total_power() {
  double total = power_model_.uncore_power(mean_c0_activity());
  for (std::size_t i = 0; i < config_.num_cores; ++i) {
    total += physical_core_power(i);
  }
  return total;
}

double Machine::mean_sensor_temp() const {
  double sum = 0.0;
  for (const auto& s : sensors_) sum += s.read();
  return sum / static_cast<double>(sensors_.size());
}

void Machine::mark_power_window() {
  std::fill(window_node_joules_.begin(), window_node_joules_.end(), 0.0);
  window_start_ = sim_.now();
}

void Machine::jump_to_average_power_steady_state() {
  const double span = sim::to_sec(sim_.now() - window_start_);
  if (span <= 0.0) return;
  for (std::size_t n = 0; n < network_.node_count(); ++n) {
    if (!network_.is_fixed(n)) {
      network_.set_power(n, window_node_joules_[n] / span);
    }
  }
  network_.solve_steady_state();
  // The steady state is the network state "now": re-anchor the grid here
  // and drop the open substep's energy, which the average already covers.
  thermal_grid_ = last_thermal_update_;
  std::fill(carry_joules_.begin(), carry_joules_.end(), 0.0);
  mark_power_window();
  recheck_prochot_certificate();
}

// --------------------------------------------------------------------------
// Thread lifecycle
// --------------------------------------------------------------------------

ThreadId Machine::create_thread(std::string name, ThreadClass cls, int nice,
                                std::unique_ptr<ThreadBehavior> behavior,
                                CoreId affinity) {
  const auto id = static_cast<ThreadId>(threads_.size());
  auto t = std::make_unique<Thread>(id, std::move(name), cls, nice,
                                    std::move(behavior), master_rng_.fork());
  t->set_created_at(sim_.now());
  t->set_affinity(affinity);
  t->set_state(ThreadState::kSleeping);  // make_runnable flips it
  Thread& ref = *t;
  threads_.push_back(std::move(t));
  make_runnable(ref);
  return id;
}

void Machine::wake_thread(ThreadId id) {
  Thread& t = *threads_.at(id);
  if (t.state() != ThreadState::kSleeping) return;
  // An injection-suspended thread stays descheduled until its idle quantum
  // expires; external wakeups do not cut the quantum short.
  if (t.injection_suspended()) return;
  make_runnable(t);
}

void Machine::make_runnable(Thread& t) {
  assert(t.state() != ThreadState::kDone);
  if (t.state() == ThreadState::kSleeping && t.sleep_started_at() >= 0) {
    scheduler_->apply_sleep_decay(
        t, sim::to_sec(sim_.now() - t.sleep_started_at()));
    t.set_sleep_started_at(-1);
  }
  t.set_state(ThreadState::kRunnable);
  scheduler_->enqueue(t);
  if (try_kick_idle_core(t)) return;
  if (t.thread_class() == ThreadClass::kKernel) {
    try_preempt_for_kernel_thread(t);
  }
}

bool Machine::try_kick_idle_core(Thread& t) {
  auto available = [&](const Core& c) {
    if (c.injected_idle) return false;
    if (c.activity != CoreActivity::kIdle &&
        c.activity != CoreActivity::kIdleEntering) {
      return false;
    }
    return t.runnable_on(c.id);
  };
  // Prefer the core the thread last ran on (cache affinity), then any idle.
  if (t.last_core() != kNoCore && t.last_core() < cores_.size() &&
      available(cores_[t.last_core()])) {
    begin_idle_exit(cores_[t.last_core()]);
    return true;
  }
  for (Core& c : cores_) {
    if (available(c)) {
      begin_idle_exit(c);
      return true;
    }
  }
  // A core already on its way out of idle will re-dispatch shortly and pick
  // this thread up; treat that as handled to avoid needless preemption.
  for (Core& c : cores_) {
    if (c.activity == CoreActivity::kIdleExiting && t.runnable_on(c.id)) {
      return true;
    }
  }
  return false;
}

bool Machine::try_preempt_for_kernel_thread(Thread& t) {
  // Standard BSD behaviour: a waking kernel-class thread preempts a running
  // user thread. Injected idle quanta are NOT cut short unless configured —
  // this is exactly the double-delay hazard the paper describes in §3.1.
  for (Core& c : cores_) {
    if (c.activity == CoreActivity::kExecuting && c.current != nullptr &&
        c.current->thread_class() == ThreadClass::kUser &&
        t.runnable_on(c.id)) {
      stop_current(c, sim_.now());
      scheduler_->dequeue(t);
      run_thread(c, t);
      return true;
    }
  }
  if (config_.kernel_preempts_injection) {
    for (Core& c : cores_) {
      if (c.injected_idle && t.runnable_on(c.id)) {
        end_injected_idle(c);
        return true;
      }
    }
  }
  return false;
}

void Machine::suspend_for_injection(Thread& t, CoreId where,
                                    sim::SimTime quantum) {
  t.set_state(ThreadState::kSleeping);
  t.set_sleep_started_at(-1);
  t.set_injection_suspended(true);
  const ThreadId victim = t.id();
  tracer_.injection_begin(sim_.now(), where, victim, quantum);
  arm_injection_resume(victim, where, quantum, sim_.now() + quantum);
}

void Machine::arm_injection_resume(ThreadId victim, CoreId where,
                                   sim::SimTime quantum, sim::SimTime at) {
  ThreadTimer tt;
  tt.kind = ThreadTimer::Kind::kInjectionResume;
  tt.thread = victim;
  tt.where = where;
  tt.quantum = quantum;
  tt.handle = sim_.at(at, [this, victim, where, quantum](sim::SimTime now) {
    Thread& v = *threads_.at(victim);
    if (!v.injection_suspended()) return;
    v.set_injection_suspended(false);
    // The suspension always runs its full quantum (wake_thread refuses to
    // cut it short), so the realized duration equals the request.
    tracer_.injection_end(now, where, victim, quantum);
    if (hook_ != nullptr) {
      hook_->on_injection_complete(v, v.last_core(), now);
    }
    make_runnable(v);
  });
  track_thread_timer(std::move(tt));
}

void Machine::arm_sleep_wake(ThreadId id, sim::SimTime at) {
  ThreadTimer tt;
  tt.kind = ThreadTimer::Kind::kWake;
  tt.thread = id;
  tt.handle = sim_.at(at, [this, id](sim::SimTime) { wake_thread(id); });
  track_thread_timer(std::move(tt));
}

void Machine::track_thread_timer(ThreadTimer&& t) {
  // Lazy compaction: fired/cancelled handles go inert rather than being
  // erased eagerly, so drop them in bulk once they dominate the registry.
  if (thread_timers_.size() >= 64) {
    std::size_t live = 0;
    for (const ThreadTimer& tt : thread_timers_) {
      if (tt.handle.active()) ++live;
    }
    if (live * 2 <= thread_timers_.size()) {
      std::erase_if(thread_timers_, [](const ThreadTimer& tt) {
        return !tt.handle.active();
      });
    }
  }
  thread_timers_.push_back(std::move(t));
}

double Machine::retire_segment(Core& core, sim::SimTime now) {
  Thread& t = *core.current;
  const double rate = execution_rate(core);
  const double elapsed = std::max(0.0, sim::to_sec(now - core.segment_start));
  const double work = std::min(elapsed * rate, t.burst_remaining());
  t.add_cpu_seconds(elapsed);
  t.add_work_completed(work);
  t.set_burst_remaining(t.burst_remaining() - work);
  core.busy_seconds += elapsed;
  return elapsed;
}

void Machine::stop_current(Core& core, sim::SimTime now) {
  advance_thermal(now);
  core.timer.cancel();
  Thread& t = *core.current;
  const double elapsed = retire_segment(core, now);
  t.set_state(ThreadState::kRunnable);
  scheduler_->thread_stopped(t, elapsed, now);
  scheduler_->enqueue_front(t);
  sibling_checkpoint(core);
  core.current = nullptr;
  replan_sibling(core);
}

void Machine::finish_thread(Core& core, Thread& t) {
  t.set_state(ThreadState::kDone);
  t.set_finished_at(sim_.now());
  core.current = nullptr;
}

// --------------------------------------------------------------------------
// Dispatch / execution engine
// --------------------------------------------------------------------------

void Machine::dispatch(Core& core) {
  advance_thermal(sim_.now());
  core.current = nullptr;
  Thread* t = scheduler_->pick_next(core.id, sim_.now());
  if (t == nullptr) {
    enter_idle(core, /*injected=*/false, 0, nullptr);
    return;
  }
  if (hook_ != nullptr) {
    const auto idle_quantum = hook_->before_dispatch(*t, core.id, sim_.now());
    if (idle_quantum.has_value() && *idle_quantum > 0) {
      t->increment_injections_suffered();
      if (config_.injection_suspends_thread) {
        // Per-thread semantics (Fig. 5): deschedule the victim for the idle
        // quantum; the dispatch loop below finds other work or idles the
        // core naturally. No interactivity credit accrues for forced idling.
        suspend_for_injection(*t, core.id, *idle_quantum);
        // Extension of the paper's SMT remark (§3.2): co-schedule the idle
        // quantum on the sibling hardware context so the whole physical
        // core can halt into C1E.
        if (config_.smt_enabled && config_.smt_co_schedule_injection) {
          Core* sib = sibling(core);
          if (sib != nullptr && sib->current != nullptr &&
              sib->activity == CoreActivity::kExecuting &&
              sib->current->thread_class() == ThreadClass::kUser) {
            Thread& co_victim = *sib->current;
            stop_current(*sib, sim_.now());
            scheduler_->dequeue(co_victim);
            co_victim.increment_injections_suffered();
            suspend_for_injection(co_victim, sib->id, *idle_quantum);
            dispatch(*sib);
          }
        }
        dispatch(core);
        return;
      }
      // Literal §3.1 mechanism: pin the displaced thread on the run queue so
      // no other core runs it, then run the idle thread for the quantum.
      t->set_injection_pin(core.id);
      scheduler_->enqueue_front(*t);
      enter_idle(core, /*injected=*/true, *idle_quantum, t);
      return;
    }
  }
  run_thread(core, *t);
}

void Machine::run_thread(Core& core, Thread& t) {
  assert(core.current == nullptr);
  sibling_checkpoint(core);  // sibling ran solo until this dispatch
  core.current = &t;
  t.set_state(ThreadState::kRunning);
  t.set_last_core(core.id);
  t.increment_times_scheduled();

  const bool switching = core.last_thread != t.id();
  core.last_thread = t.id();
  tracer_.sched_switch(sim_.now(), core.id, t.id(), switching);

  if (t.burst_remaining() <= kWorkEpsilon) {
    const Burst b = t.behavior().next_burst(sim_.now(), t.rng());
    t.set_burst_remaining(std::max(b.work_seconds, 1e-9));
    t.set_activity(b.activity);
  }

  core.activity = CoreActivity::kExecuting;
  core.op.cstate = power::CState::kC0;
  core.op.in_transition = false;
  core.op.activity = t.activity();

  const sim::SimTime start =
      sim_.now() + (switching ? config_.context_switch_cost : 0);
  core.segment_start = start;
  core.quantum_deadline = start + scheduler_->timeslice_for(t);
  if (switching) {
    core.busy_seconds += sim::to_sec(config_.context_switch_cost);
  }
  plan_segment(core);
  replan_sibling(core);  // sibling now shares the pipeline
}

void Machine::plan_segment(Core& core) {
  Thread& t = *core.current;
  const double rate = execution_rate(core);
  assert(rate > 0.0);
  const double finish_seconds = t.burst_remaining() / rate;
  // Cap to keep the ns conversion far from integer overflow; an effectively
  // infinite burst just runs out its quantum.
  // Round the finish time up to the next nanosecond tick: a segment must
  // always advance simulated time, and the residual sub-ns work is absorbed
  // by kWorkEpsilon at completion.
  const sim::SimTime finish_at =
      finish_seconds > 1e6
          ? sim::kTimeInfinity
          : core.segment_start + sim::from_sec(finish_seconds) + 1;
  const sim::SimTime seg_end = std::min(core.quantum_deadline, finish_at);
  core.timer.cancel();
  core.timer = sim_.at(seg_end, [this, &core](sim::SimTime) {
    on_segment_end(core);
  });
}

void Machine::on_segment_end(Core& core) {
  const sim::SimTime now = sim_.now();
  advance_thermal(now);
  Thread& t = *core.current;
  const double elapsed = retire_segment(core, now);

  if (t.burst_remaining() > kWorkEpsilon) {
    // Timeslice expired with work left: round-robin back into the queue.
    t.set_state(ThreadState::kRunnable);
    scheduler_->quantum_expired(t, elapsed, now);
    sibling_checkpoint(core);
    core.current = nullptr;
    replan_sibling(core);
    dispatch(core);
    return;
  }

  t.set_burst_remaining(0.0);
  t.increment_bursts_completed();
  const BurstOutcome outcome = t.behavior().on_burst_complete(now, t.rng());
  switch (outcome.kind) {
    case BurstOutcome::Kind::kContinue: {
      if (now >= core.quantum_deadline) {
        t.set_state(ThreadState::kRunnable);
        scheduler_->quantum_expired(t, elapsed, now);
        core.current = nullptr;
        dispatch(core);
        return;
      }
      const Burst b = t.behavior().next_burst(now, t.rng());
      t.set_burst_remaining(std::max(b.work_seconds, 1e-9));
      t.set_activity(b.activity);
      core.op.activity = t.activity();
      core.segment_start = now;
      plan_segment(core);
      return;
    }
    case BurstOutcome::Kind::kSleepFor: {
      t.set_state(ThreadState::kSleeping);
      t.set_sleep_started_at(now);
      scheduler_->thread_stopped(t, elapsed, now);
      sibling_checkpoint(core);
      core.current = nullptr;
      replan_sibling(core);
      arm_sleep_wake(t.id(),
                     sim_.now() + std::max<sim::SimTime>(outcome.sleep_for, 0));
      dispatch(core);
      return;
    }
    case BurstOutcome::Kind::kSleepUntilWoken: {
      t.set_state(ThreadState::kSleeping);
      t.set_sleep_started_at(now);
      scheduler_->thread_stopped(t, elapsed, now);
      sibling_checkpoint(core);
      core.current = nullptr;
      replan_sibling(core);
      dispatch(core);
      return;
    }
    case BurstOutcome::Kind::kExit: {
      scheduler_->thread_stopped(t, elapsed, now);
      sibling_checkpoint(core);
      finish_thread(core, t);
      replan_sibling(core);
      dispatch(core);
      return;
    }
  }
}

// --------------------------------------------------------------------------
// Idle handling
// --------------------------------------------------------------------------

void Machine::enter_idle(Core& core, bool injected, sim::SimTime quantum,
                         Thread* victim) {
  core.current = nullptr;
  core.injected_idle = injected;
  core.injection_victim = victim;
  core.activity = CoreActivity::kIdleEntering;
  core.segment_start = sim_.now();
  core.op.cstate = config_.idle_cstate;
  core.op.in_transition = true;
  core.last_thread = kInvalidThread;  // resuming anyone is a context switch

  tracer_.cstate_change(sim_.now(), core.id, obs::CStatePhase::kEnterBegin,
                        static_cast<std::uint8_t>(config_.idle_cstate));
  if (injected) {
    tracer_.injection_begin(sim_.now(), core.id,
                            victim != nullptr ? victim->id() : kInvalidThread,
                            quantum);
  }

  const auto info = power::cstate_info(config_.idle_cstate);
  core.transition_timer.cancel();
  core.transition_timer = sim_.after(
      info.entry_latency,
      [this, &core](sim::SimTime) { finish_idle_entry(core); });
  core.timer.cancel();
  if (injected) {
    core.timer = sim_.after(quantum, [this, &core](sim::SimTime) {
      end_injected_idle(core);
    });
  }
}

void Machine::finish_idle_entry(Core& core) {
  advance_thermal(sim_.now());
  core.activity = CoreActivity::kIdle;
  core.op.in_transition = false;
  core.op.activity = 0.0;
  core.idle_settled_at = sim_.now();
  tracer_.cstate_change(sim_.now(), core.id, obs::CStatePhase::kEnterDone,
                        static_cast<std::uint8_t>(config_.idle_cstate));
}

void Machine::end_injected_idle(Core& core) {
  assert(core.injected_idle);
  advance_thermal(sim_.now());
  core.timer.cancel();
  Thread* victim = core.injection_victim;
  if (victim != nullptr) {
    victim->set_injection_pin(kNoCore);
    if (hook_ != nullptr) {
      hook_->on_injection_complete(*victim, core.id, sim_.now());
    }
  }
  begin_idle_exit(core);
}

void Machine::begin_idle_exit(Core& core) {
  advance_thermal(sim_.now());
  // Account the idle residency that just ended.
  const sim::SimTime span_ns = std::max<sim::SimTime>(
      sim::SimTime{0}, sim_.now() - core.segment_start);
  const double idle_span = std::max(0.0, sim::to_sec(span_ns));
  if (core.injected_idle) core.injected_idle_seconds += idle_span;
  tracer_.idle_span(core.id, span_ns);
  if (core.activity == CoreActivity::kIdle) {
    tracer_.c1e_residency(core.id, sim_.now() - core.idle_settled_at);
  }
  if (core.injected_idle) {
    // Realized span of a pinned (§3.1) injection; same integer timestamps the
    // exporter pairs into a Begin/End span, so the two sums match exactly.
    tracer_.injection_end(sim_.now(), core.id,
                          core.injection_victim != nullptr
                              ? core.injection_victim->id()
                              : kInvalidThread,
                          span_ns);
  }
  core.injected_idle = false;
  core.injection_victim = nullptr;

  core.transition_timer.cancel();
  core.activity = CoreActivity::kIdleExiting;
  tracer_.cstate_change(sim_.now(), core.id, obs::CStatePhase::kExitBegin,
                        static_cast<std::uint8_t>(config_.idle_cstate));
  core.op.in_transition = true;
  const auto info = power::cstate_info(config_.idle_cstate);
  core.transition_timer = sim_.after(
      info.exit_latency,
      [this, &core](sim::SimTime) { finish_idle_exit(core); });
}

void Machine::finish_idle_exit(Core& core) {
  advance_thermal(sim_.now());
  core.op.cstate = power::CState::kC0;
  core.op.in_transition = false;
  core.op.activity = 0.0;
  core.activity = CoreActivity::kExecuting;
  tracer_.cstate_change(sim_.now(), core.id, obs::CStatePhase::kExitDone,
                        static_cast<std::uint8_t>(power::CState::kC0));
  dispatch(core);
}

// --------------------------------------------------------------------------
// Actuation & running
// --------------------------------------------------------------------------

void Machine::checkpoint_segment(Core& core) {
  if (core.activity != CoreActivity::kExecuting || core.current == nullptr) {
    return;
  }
  const sim::SimTime now = sim_.now();
  retire_segment(core, now);
  core.segment_start = std::max(now, core.segment_start);
}

void Machine::set_dvfs_level(CoreId core, std::size_t level) {
  if (level >= config_.dvfs.num_levels()) {
    throw std::out_of_range("DVFS level out of range");
  }
  advance_thermal(sim_.now());
  Core& c = cores_.at(core);
  // Retire in-flight work at the old rate before the rate changes.
  checkpoint_segment(c);
  c.dvfs_level = level;
  c.op.freq_ghz = config_.dvfs.level(level).freq_ghz;
  c.op.voltage_v = config_.dvfs.level(level).voltage_v;
  tracer_.dvfs_change(sim_.now(), c.id, level, c.op.freq_ghz);
  if (c.activity == CoreActivity::kExecuting && c.current != nullptr) {
    plan_segment(c);
  }
}

void Machine::set_all_dvfs_levels(std::size_t level) {
  for (Core& c : cores_) set_dvfs_level(c.id, level);
}

void Machine::set_fan_speed(double fraction) {
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument("fan speed fraction must be in (0, 1]");
  }
  // Bring thermal time to "now" under the old conductance first; the edge
  // re-weight below invalidates the step operator, so every grid point after
  // "now" (the open substep included) factors against the new one.
  advance_thermal(sim_.now());
  config_.floorplan.fan_speed_fraction = fraction;
  const double fan_factor = std::pow(fraction, 0.8);
  network_.set_conductance(
      nodes_.heatsink, nodes_.ambient,
      fan_factor / config_.floorplan.hs_to_ambient_resistance);
  // The conductance moved the topology revision: this re-solves the rise.
  recheck_prochot_certificate();
}

void Machine::set_inlet_temperature(double celsius) {
  network_.set_temperature(nodes_.ambient, celsius);
  recheck_prochot_certificate();
}

void Machine::set_clock_duty_step(CoreId core, std::size_t step) {
  if (step < 1 || step > power::ClockModulation::kNumSteps) {
    throw std::out_of_range("clock duty step must be in 1..8");
  }
  advance_thermal(sim_.now());
  Core& c = cores_.at(core);
  checkpoint_segment(c);
  c.duty_step_user = step;
  apply_effective_duty(c);
  if (c.activity == CoreActivity::kExecuting && c.current != nullptr) {
    plan_segment(c);
  }
}

void Machine::apply_effective_duty(Core& c) {
  std::size_t step = c.duty_step_user;
  if (config_.hw_thermal_throttle && tm_active_[physical_of(c.id)]) {
    step = std::min(step, config_.prochot_duty_step);
  }
  c.op.clock_duty =
      static_cast<double>(step) / power::ClockModulation::kNumSteps;
}

sim::EventHandle Machine::arm_thermal_monitor(sim::SimTime at) {
  return sim_.at(at, [this](sim::SimTime) { thermal_monitor_tick(); });
}

void Machine::schedule_thermal_monitor() {
  monitor_timer_ =
      arm_thermal_monitor(sim_.now() + config_.thermal_monitor_period);
}

void Machine::thermal_monitor_tick() {
  advance_thermal(sim_.now());
  ++tracer_.counters().monitor_ticks;
  for (std::size_t phys = 0; phys < config_.num_cores; ++phys) {
    const double temp = network_.temperature(nodes_.die[phys]);
    const bool was_active = tm_active_[phys];
    bool active = was_active;
    if (!was_active && temp >= config_.prochot_c) {
      active = true;
      ++tm_events_;
    } else if (was_active && temp <= config_.prochot_release_c) {
      active = false;
    }
    if (active == was_active) continue;
    tm_active_[phys] = active;
    tracer_.prochot(sim_.now(), static_cast<std::uint32_t>(phys), active,
                    temp);
    const std::size_t contexts = config_.smt_enabled ? 2 : 1;
    for (std::size_t k = 0; k < contexts; ++k) {
      Core& c = cores_[phys * contexts + k];
      checkpoint_segment(c);
      apply_effective_duty(c);
      if (c.activity == CoreActivity::kExecuting && c.current != nullptr) {
        plan_segment(c);
      }
    }
  }
  if (prochot_certified()) {
    // No tick can trip until the next re-check: hold the next tick's place
    // (the seq its schedule would draw here) instead of running it.
    sim_.queue().park(sim_.now() + config_.thermal_monitor_period,
                      config_.thermal_monitor_period);
    monitor_parked_ = true;
  } else {
    schedule_thermal_monitor();
  }
}

void Machine::build_prochot_certificate() {
  ProchotCertificate& c = certificate_;
  c.revision = network_.topology_revision();
  c.valid = false;
  // The steady state shifts 1:1 with the inlet only when it is the one
  // fixed node.
  std::size_t fixed = 0;
  for (thermal::NodeId n = 0; n < network_.node_count(); ++n) {
    fixed += network_.is_fixed(n) ? 1 : 0;
  }
  if (fixed != 1) return;
  // P_hi per die: every hardware context at C0, activity 1, duty 1 (SMT's
  // throughput factor only if it scales up) on the costliest DVFS level,
  // plus leakage at prochot_c. The factor is monotone in T, so its largest
  // value below prochot_c is at prochot_c, or at -inf for a negative k.
  const std::size_t contexts = config_.smt_enabled ? 2 : 1;
  const double smt =
      config_.smt_enabled ? std::max(1.0, config_.smt_throughput_factor) : 1.0;
  const double factor =
      std::max(power_model_.leakage_temp_factor(config_.prochot_c),
               power_model_.leakage_temp_factor(
                   -std::numeric_limits<double>::infinity()));
  double p_hi = 0.0;
  for (std::size_t l = 0; l < config_.dvfs.num_levels(); ++l) {
    power::CoreOperatingPoint op;
    op.cstate = power::CState::kC0;
    op.voltage_v = config_.dvfs.level(l).voltage_v;
    op.freq_ghz = config_.dvfs.level(l).freq_ghz;
    op.activity = 1.0;
    op.clock_duty = 1.0;
    p_hi = std::max(p_hi, static_cast<double>(contexts) * smt *
                                  power_model_.core_dynamic_power(op) +
                              power_model_.core_leakage_voltage_term(op) *
                                  factor);
  }
  std::vector<double> power(network_.node_count(), 0.0);
  for (std::size_t i = 0; i < config_.num_cores; ++i) {
    power[nodes_.die[i]] = p_hi;
  }
  power[nodes_.package] = power_model_.uncore_power(1.0);
  if (!network_.steady_rise(power, c.rise)) return;
  c.die_rise = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < config_.num_cores; ++i) {
    c.die_rise = std::max(c.die_rise, c.rise[nodes_.die[i]]);
  }
  c.valid = true;
}

double Machine::prochot_bound() {
  // Implicit Euler is monotone in its input: M = C/dt + G is an M-matrix, so
  // A = M⁻¹C/dt ≥ 0 with row sums ≤ 1, and with every node's power at most
  // its P_hi share the excess E = T − T_ss(P_hi) obeys E' ≤ A·E. Its
  // positive part never grows, so every node stays at or below
  // T_ss(P_hi) + max(0, max E) for as long as the dies stay under
  // prochot_c — which this bound, when below prochot_c, guarantees.
  if (certificate_.revision != network_.topology_revision()) {
    build_prochot_certificate();
  }
  if (!certificate_.valid) return std::numeric_limits<double>::quiet_NaN();
  const double inlet = network_.temperature(nodes_.ambient);
  double excess = 0.0;
  for (thermal::NodeId n = 0; n < network_.node_count(); ++n) {
    if (network_.is_fixed(n)) continue;
    const double e = network_.temperature(n) - certificate_.rise[n] - inlet;
    if (!(e <= excess)) excess = e;  // a NaN sticks
  }
  return certificate_.die_rise + inlet + excess;
}

bool Machine::prochot_certified() {
  for (std::size_t phys = 0; phys < tm_active_.size(); ++phys) {
    if (tm_active_[phys]) return false;  // a release needs the tick
  }
  const double limit = config_.prochot_c - kProchotMarginC;
  // The bound's no-excess part alone reaching the limit (a hot inlet, a low
  // prochot_c) fails it without the node scan: a machine that never
  // certifies pays O(1) per tick.
  if (certificate_.revision == network_.topology_revision() &&
      certificate_.valid &&
      !(certificate_.die_rise + network_.temperature(nodes_.ambient) <
        limit)) {
    return false;
  }
  return prochot_bound() < limit;
}

void Machine::recheck_prochot_certificate() {
  if (!config_.hw_thermal_throttle) return;
  const bool certified = prochot_certified();
  if (certified && !monitor_parked_ && monitor_timer_.active()) {
    sim_.queue().park(monitor_timer_, config_.thermal_monitor_period);
    monitor_parked_ = true;
  } else if (!certified && monitor_parked_) {
    monitor_timer_ =
        sim_.queue().unpark([this](sim::SimTime) { thermal_monitor_tick(); });
    monitor_parked_ = false;
  }
}

void Machine::set_all_clock_duty_steps(std::size_t step) {
  for (Core& c : cores_) set_clock_duty_step(c.id, step);
}

void Machine::run_until(sim::SimTime deadline) {
  sim_.run_until(deadline);
  advance_thermal(deadline);
  // Fold in-flight execution into the work counters so observers (throughput
  // windows, tests) see progress up to `deadline`, not up to the last
  // segment boundary.
  for (Core& c : cores_) checkpoint_segment(c);
}

bool Machine::run_until_condition(const std::function<bool()>& pred,
                                  sim::SimTime deadline) {
  while (!pred()) {
    if (sim_.queue().next_time() > deadline) {
      run_until(deadline);
      return pred();
    }
    sim_.step();
  }
  return true;
}

void Machine::call_at(sim::SimTime when, std::function<void(sim::SimTime)> fn) {
  sim_.at(std::max(when, sim_.now()), std::move(fn));
}

// --------------------------------------------------------------------------
// Snapshot / warm-start
// --------------------------------------------------------------------------

namespace {
MachineSnapshot::EventStamp stamp_of(const sim::EventHandle& h) {
  MachineSnapshot::EventStamp e;
  e.armed = h.active();
  if (e.armed) {
    e.at = h.time();
    e.seq = h.seq();
  }
  return e;
}
}  // namespace

void Machine::check_snapshot_preconditions() const {
  if (meter_.has_value()) {
    throw SnapshotUnsupported(
        "machine snapshot: power meter attached (its sampling event and "
        "noise stream are not captured)");
  }
  if (tracer_.active()) {
    throw SnapshotUnsupported(
        "machine snapshot: trace sink attached (the sensor-sampling event "
        "is not captured)");
  }
  if (config_.thermal_reference_stepper) {
    throw SnapshotUnsupported(
        "machine snapshot: reference thermal stepper active (its recurring "
        "substep event is not captured)");
  }
  if (hook_ != nullptr) {
    throw SnapshotUnsupported(
        "machine snapshot: injection hook attached (hook-internal state "
        "cannot be captured; snapshot before attach_hook, restore, then "
        "attach)");
  }
}

MachineSnapshot Machine::snapshot() {
  check_snapshot_preconditions();

  MachineSnapshot s;

  // Scheduler queue in dequeue order (throws for schedulers without
  // snapshot support, e.g. ULE's per-thread interactivity histories).
  std::vector<Thread*> queued;
  scheduler_->snapshot_queue(queued);
  s.run_queue.reserve(queued.size());
  for (Thread* t : queued) s.run_queue.push_back(t->id());

  s.threads.reserve(threads_.size());
  for (const auto& tp : threads_) {
    Thread& t = *tp;
    MachineSnapshot::ThreadSnap& ts = s.threads.emplace_back();
    ts.state = t.dynamic_state();
    if (!t.behavior().save_state(ts.behavior_state)) {
      throw SnapshotUnsupported("machine snapshot: thread '" + t.name() +
                                "' has a behavior without snapshot support");
    }
  }

  const auto id_of = [](const Thread* t) {
    return t != nullptr ? t->id() : kInvalidThread;
  };
  std::size_t armed = 0;
  s.cores.reserve(cores_.size());
  for (const Core& c : cores_) {
    MachineSnapshot::CoreSnap& cs = s.cores.emplace_back();
    cs.state = c;
    cs.current = id_of(c.current);
    cs.injection_victim = id_of(c.injection_victim);
    cs.timer = stamp_of(c.timer);
    cs.transition_timer = stamp_of(c.transition_timer);
    armed += cs.timer.armed ? 1 : 0;
    armed += cs.transition_timer.armed ? 1 : 0;
  }

  for (const ThreadTimer& tt : thread_timers_) {
    if (!tt.handle.active()) continue;
    MachineSnapshot::ThreadTimerSnap tts;
    tts.kind = static_cast<std::uint8_t>(tt.kind);
    tts.thread = tt.thread;
    tts.where = tt.where;
    tts.quantum = tt.quantum;
    tts.at = tt.handle.time();
    tts.seq = tt.handle.seq();
    s.thread_timers.push_back(tts);
    ++armed;
  }

  s.schedcpu = stamp_of(schedcpu_timer_);
  armed += s.schedcpu.armed ? 1 : 0;
  if (monitor_parked_) {
    // Not in the queue's live count: the place itself is the state.
    s.monitor = {true, sim_.queue().parked_time(), sim_.queue().parked_seq()};
    s.monitor_parked = true;
  } else {
    s.monitor = stamp_of(monitor_timer_);
    armed += s.monitor.armed ? 1 : 0;
  }

  // Reconcile the tracked-event inventory against the queue's live count.
  // Anything we cannot account for (a workload call_at timer, a harness
  // callback) would be silently dropped by restore, so refuse.
  if (armed != sim_.queue().size()) {
    throw SnapshotUnsupported(
        "machine snapshot: " + std::to_string(sim_.queue().size()) +
        " pending events but only " + std::to_string(armed) +
        " tracked by the machine (external call_at timers pending?)");
  }

  s.now = sim_.now();
  s.events_executed = sim_.events_executed();
  s.master_rng = master_rng_;
  s.thermal = network_.save_state();
  s.last_thermal_update = last_thermal_update_;
  s.thermal_grid = thermal_grid_;
  s.thermal_carry = carry_joules_;
  s.energy = energy_;
  s.counters = tracer_.counters();
  s.tm_active = tm_active_;
  s.tm_events = tm_events_;
  s.window_node_joules = window_node_joules_;
  s.window_start = window_start_;
  return s;
}

void Machine::restore(const MachineSnapshot& s) {
  check_snapshot_preconditions();
  if (threads_.size() != s.threads.size()) {
    throw std::invalid_argument(
        "machine restore: thread count mismatch (deploy the identical "
        "workload before restoring)");
  }
  if (cores_.size() != s.cores.size()) {
    throw std::invalid_argument("machine restore: core count mismatch");
  }
  if (window_node_joules_.size() != s.window_node_joules.size() ||
      carry_joules_.size() != s.thermal_carry.size() ||
      tm_active_.size() != s.tm_active.size()) {
    throw std::invalid_argument(
        "machine restore: thermal topology mismatch (different "
        "MachineConfig?)");
  }

  // Drop everything this machine scheduled so far (construction + workload
  // deployment events); the captured event set replaces it wholesale.
  sim_.reset_for_restore(s.now, s.events_executed);
  thread_timers_.clear();
  monitor_parked_ = false;

  master_rng_ = s.master_rng;
  // The power memo is not captured: restore starts it cold, so a fork may
  // count up to one more core_power_evals per core than its replay.
  for (PowerMemo& m : power_memo_) m.valid = false;
  network_.restore_state(s.thermal);
  last_thermal_update_ = s.last_thermal_update;
  thermal_grid_ = s.thermal_grid;
  refresh_at_ = (last_thermal_update_ / config_.thermal_monitor_period + 1) *
                config_.thermal_monitor_period;
  carry_joules_ = s.thermal_carry;
  energy_ = s.energy;
  tracer_.counters() = s.counters;
  tm_active_ = s.tm_active;
  tm_events_ = s.tm_events;
  window_node_joules_ = s.window_node_joules;
  window_start_ = s.window_start;

  for (std::size_t i = 0; i < threads_.size(); ++i) {
    Thread& t = *threads_[i];
    t.restore_dynamic_state(s.threads[i].state);
    t.behavior().load_state(s.threads[i].behavior_state);
  }

  // Rebuild the run queue: a fresh scheduler, then enqueue in the captured
  // dequeue order. Buckets depend only on estcpu/nice (already restored),
  // so bucket-major FIFO re-insertion reproduces the queue exactly.
  if (config_.scheduler_kind == SchedulerKind::kUle) {
    scheduler_ = std::make_unique<UleScheduler>(cores_.size(), config_.ule);
  } else {
    scheduler_ = std::make_unique<BsdScheduler>(config_.scheduler);
  }
  for (ThreadId id : s.run_queue) scheduler_->enqueue(*threads_.at(id));

  const auto thread_of = [this](ThreadId id) {
    return id != kInvalidThread ? threads_.at(id).get() : nullptr;
  };
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    Core& c = cores_[i];
    const MachineSnapshot::CoreSnap& cs = s.cores[i];
    static_cast<CoreDynamicState&>(c) = cs.state;
    c.current = thread_of(cs.current);
    c.injection_victim = thread_of(cs.injection_victim);
    c.timer = sim::EventHandle();
    c.transition_timer = sim::EventHandle();
  }

  // Re-arm the captured pending events in ascending captured-seq order so
  // same-timestamp events (the recurring schedcpu/monitor pair ties
  // regularly) fire in exactly the captured interleaving. A parked monitor
  // tick is parked again at its turn, so its place keeps its rank too.
  struct Arm {
    std::uint64_t seq;
    std::function<void()> fn;
  };
  std::vector<Arm> arms;
  if (s.schedcpu.armed) {
    arms.push_back({s.schedcpu.seq, [this, at = s.schedcpu.at] {
                      schedcpu_timer_ = arm_schedcpu(at);
                    }});
  }
  if (s.monitor.armed && s.monitor_parked) {
    arms.push_back({s.monitor.seq, [this, at = s.monitor.at] {
                      sim_.queue().park(at, config_.thermal_monitor_period);
                      monitor_parked_ = true;
                    }});
  } else if (s.monitor.armed) {
    arms.push_back({s.monitor.seq, [this, at = s.monitor.at] {
                      monitor_timer_ = arm_thermal_monitor(at);
                    }});
  }
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    Core& c = cores_[i];
    const MachineSnapshot::CoreSnap& cs = s.cores[i];
    if (cs.timer.armed) {
      // An executing core's timer ends the segment; an injected-idle core's
      // timer ends the idle quantum (mirrors plan_segment / enter_idle).
      if (cs.state.injected_idle) {
        arms.push_back({cs.timer.seq, [this, &c, at = cs.timer.at] {
                          c.timer = sim_.at(at, [this, &c](sim::SimTime) {
                            end_injected_idle(c);
                          });
                        }});
      } else {
        arms.push_back({cs.timer.seq, [this, &c, at = cs.timer.at] {
                          c.timer = sim_.at(at, [this, &c](sim::SimTime) {
                            on_segment_end(c);
                          });
                        }});
      }
    }
    if (cs.transition_timer.armed) {
      if (cs.state.activity == CoreActivity::kIdleEntering) {
        arms.push_back(
            {cs.transition_timer.seq, [this, &c, at = cs.transition_timer.at] {
               c.transition_timer = sim_.at(
                   at, [this, &c](sim::SimTime) { finish_idle_entry(c); });
             }});
      } else if (cs.state.activity == CoreActivity::kIdleExiting) {
        arms.push_back(
            {cs.transition_timer.seq, [this, &c, at = cs.transition_timer.at] {
               c.transition_timer = sim_.at(
                   at, [this, &c](sim::SimTime) { finish_idle_exit(c); });
             }});
      } else {
        throw std::invalid_argument(
            "machine restore: transition timer armed but core is neither "
            "entering nor exiting idle");
      }
    }
  }
  for (const MachineSnapshot::ThreadTimerSnap& tts : s.thread_timers) {
    if (static_cast<ThreadTimer::Kind>(tts.kind) == ThreadTimer::Kind::kWake) {
      arms.push_back({tts.seq, [this, id = tts.thread, at = tts.at] {
                        arm_sleep_wake(id, at);
                      }});
    } else {
      arms.push_back({tts.seq, [this, tts] {
                        arm_injection_resume(tts.thread, tts.where,
                                             tts.quantum, tts.at);
                      }});
    }
  }
  std::sort(arms.begin(), arms.end(),
            [](const Arm& a, const Arm& b) { return a.seq < b.seq; });
  for (const Arm& a : arms) a.fn();
  // A parked tick was covered by the origin's certificate, and the captured
  // state keeps it valid; re-checking builds this machine's copy of it (and
  // would unpark in place if it did not hold). An armed tick stays armed,
  // as it does in the run the snapshot came from.
  if (monitor_parked_) recheck_prochot_certificate();
}

}  // namespace dimetrodon::sched
