#include "harness/experiment.hpp"

#include <cmath>
#include <utility>

#include "analysis/stats.hpp"
#include "control/arbiter.hpp"
#include "control/driver.hpp"
#include "trace/table.hpp"

namespace dimetrodon::harness {

std::shared_ptr<core::DimetrodonController> ActuationSpec::apply(
    sched::Machine& machine) const {
  switch (kind) {
    case Kind::kNone:
      return nullptr;
    case Kind::kGlobal: {
      auto ctl = std::make_shared<core::DimetrodonController>(machine);
      ctl->sys_set_global(probability, quantum);
      return ctl;
    }
    case Kind::kGlobalStratified: {
      auto ctl = std::make_shared<core::DimetrodonController>(
          machine, std::make_unique<core::StratifiedInjection>());
      ctl->sys_set_global(probability, quantum);
      return ctl;
    }
    case Kind::kVfs:
      machine.set_all_dvfs_levels(level);
      return nullptr;
    case Kind::kTcc:
      machine.set_all_clock_duty_steps(level);
      return nullptr;
    case Kind::kGovernor: {
      // The harness holds only a shared_ptr<DimetrodonController>; the
      // arbiter and driver ride along via the aliasing constructor so the
      // whole control loop shares one lifetime.
      struct Bundle {
        std::shared_ptr<core::DimetrodonController> controller;
        std::unique_ptr<control::InjectionArbiter> arbiter;
        std::unique_ptr<control::GovernorDriver> driver;
      };
      auto bundle = std::make_shared<Bundle>();
      bundle->controller =
          std::make_shared<core::DimetrodonController>(machine);
      bundle->arbiter =
          std::make_unique<control::InjectionArbiter>(*bundle->controller);
      if (probability > 0.0) {
        bundle->arbiter
            ->claim(control::InjectionArbiter::Channel::kPreventive,
                    "preventive")
            .request(probability, quantum);
      }
      bundle->driver = std::make_unique<control::GovernorDriver>(
          machine, *bundle->arbiter, governor);
      return std::shared_ptr<core::DimetrodonController>(
          bundle, bundle->controller.get());
    }
  }
  throw std::logic_error("unknown ActuationSpec::Kind");
}

std::string ActuationSpec::label() const {
  switch (kind) {
    case Kind::kNone:
      return "race-to-idle";
    case Kind::kGlobal:
      return trace::fmt("dimetrodon[p=%.2f,L=%.0fms]", probability,
                        sim::to_ms(quantum));
    case Kind::kGlobalStratified:
      return trace::fmt("dimetrodon-det[p=%.2f,L=%.0fms]", probability,
                        sim::to_ms(quantum));
    case Kind::kVfs:
      return trace::fmt("vfs[level=%zu]", level);
    case Kind::kTcc:
      return trace::fmt("p4tcc[step=%zu]", level);
    case Kind::kGovernor: {
      std::string out = control::governor_label(governor);
      if (probability > 0.0) out += trace::fmt("+base=%.2f", probability);
      return out;
    }
  }
  throw std::logic_error("unknown ActuationSpec::Kind");
}

Tradeoff compute_tradeoff(const RunResult& baseline, const RunResult& run) {
  Tradeoff t;
  const double rise_sensor =
      baseline.avg_sensor_temp_c - baseline.idle_sensor_temp_c;
  const double rise_exact =
      baseline.avg_exact_temp_c - baseline.idle_exact_temp_c;
  if (rise_sensor > 1e-9) {
    t.temp_reduction =
        (baseline.avg_sensor_temp_c - run.avg_sensor_temp_c) / rise_sensor;
  }
  if (rise_exact > 1e-9) {
    t.temp_reduction_exact =
        (baseline.avg_exact_temp_c - run.avg_exact_temp_c) / rise_exact;
  }
  if (baseline.throughput > 1e-12) {
    t.throughput_retained = run.throughput / baseline.throughput;
  }
  t.throughput_reduction = 1.0 - t.throughput_retained;
  t.efficiency = t.throughput_reduction <= 1e-9
                     ? 1e9
                     : t.temp_reduction / t.throughput_reduction;
  return t;
}

ExperimentRunner::ExperimentRunner(sched::MachineConfig base,
                                   MeasurementConfig mc)
    : base_(std::move(base)), mc_(mc) {}

ExperimentRunner& ExperimentRunner::with_config(
    const std::function<void(sched::MachineConfig&)>& fn) {
  if (fn) fn(base_);
  return *this;
}

ExperimentRunner& ExperimentRunner::with_trace(obs::SinkFactory factory) {
  base_.trace_sink_factory = std::move(factory);
  return *this;
}

double ExperimentRunner::mean_exact_temp(const sched::Machine& m) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < m.num_cores(); ++i) {
    sum += m.die_temperature(static_cast<sched::CoreId>(i));
  }
  return sum / static_cast<double>(m.num_cores());
}

RunResult ExperimentRunner::measure(const WorkloadFactory& factory,
                                    const ActuationSpec& actuation,
                                    const PostDeployHook& post_deploy) {
  // Phase bookkeeping for MeasurementError: updated as the run progresses so
  // a throw anywhere below reports the stage it died in.
  const char* phase = "setup";
  try {
  sched::MachineConfig cfg = base_;
  cfg.enable_meter = false;  // sweeps don't need the sampled meter
  sched::Machine machine(cfg);

  RunResult result;
  result.label = actuation.label();
  result.idle_sensor_temp_c = machine.mean_sensor_temp();
  result.idle_exact_temp_c = mean_exact_temp(machine);

  auto controller = actuation.apply(machine);
  auto wl = factory();
  wl->deploy(machine);
  if (post_deploy) post_deploy(machine, *wl, controller.get());

  return finish_measurement(machine, *wl, controller, std::move(result),
                            phase);
  } catch (const MeasurementError&) {
    throw;
  } catch (const std::exception& e) {
    throw MeasurementError(phase, e.what());
  }
}

RunResult ExperimentRunner::finish_measurement(
    sched::Machine& machine, workload::Workload& wl,
    const std::shared_ptr<core::DimetrodonController>& controller,
    RunResult result, const char*& phase) {
  // Accelerated settling: run, then jump the slow thermal nodes to the
  // steady state of the observed average power; stop when a jump no longer
  // moves the temperature.
  phase = "settle";
  for (int iter = 0; iter < mc_.max_settle_iterations; ++iter) {
    machine.mark_power_window();
    machine.run_for(mc_.settle_chunk);
    const double before = mean_exact_temp(machine);
    machine.jump_to_average_power_steady_state();
    const double after = mean_exact_temp(machine);
    if (std::fabs(after - before) < mc_.settle_tolerance_c) break;
  }
  machine.run_for(mc_.post_settle_run);

  // Measurement window.
  phase = "measure-window";
  const double progress0 = wl.progress(machine);
  const double energy0 = machine.energy().total_joules();
  // Injected idle accrues at the controller under suspension semantics and
  // at the cores under the literal idle-the-core mechanism; sum both.
  auto injected_seconds = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < machine.num_cores(); ++i) {
      s += machine.core(static_cast<sched::CoreId>(i)).injected_idle_seconds;
    }
    if (controller) s += sim::to_sec(controller->stats().injected_idle);
    return s;
  };
  const double injected0 = injected_seconds();
  const obs::CounterTotals counters0 = machine.counters().totals();
  auto* web = dynamic_cast<workload::WebWorkload*>(&wl);
  if (web != nullptr) web->mark();

  analysis::OnlineStats sensor_stats;
  analysis::OnlineStats exact_stats;
  sim::SimTime elapsed = 0;
  while (elapsed < mc_.measure_window) {
    const sim::SimTime step =
        std::min(mc_.sensor_poll, mc_.measure_window - elapsed);
    machine.run_for(step);
    elapsed += step;
    sensor_stats.add(machine.mean_sensor_temp());
    exact_stats.add(mean_exact_temp(machine));
  }

  const double window_s = sim::to_sec(mc_.measure_window);
  result.avg_sensor_temp_c = sensor_stats.mean();
  result.avg_exact_temp_c = exact_stats.mean();
  result.throughput = (wl.progress(machine) - progress0) / window_s;
  result.avg_power_w =
      (machine.energy().total_joules() - energy0) / window_s;
  result.injected_idle_fraction =
      (injected_seconds() - injected0) /
      (window_s * static_cast<double>(machine.num_cores()));
  result.counters = machine.counters().totals() - counters0;
  if (web != nullptr) result.qos = web->stats_since_mark();
  result.sim_seconds = sim::to_sec(machine.now());
  return result;
}

sched::MachineSnapshot ExperimentRunner::build_warmup_snapshot(
    const WorkloadFactory& factory, sim::SimTime warmup) {
  const char* phase = "warmup-build";
  try {
    sched::MachineConfig cfg = base_;
    cfg.enable_meter = false;
    sched::Machine machine(cfg);
    auto wl = factory();
    wl->deploy(machine);
    machine.run_for(warmup);
    return machine.snapshot();
  } catch (const MeasurementError&) {
    throw;
  } catch (const std::exception& e) {
    throw MeasurementError(phase, e.what());
  }
}

RunResult ExperimentRunner::measure_warm(const WorkloadFactory& factory,
                                         const ActuationSpec& actuation,
                                         const sched::MachineSnapshot& snap,
                                         const PostDeployHook& post_deploy) {
  return measure_warm_impl(factory, actuation, &snap, 0, post_deploy);
}

RunResult ExperimentRunner::measure_after_warmup(
    const WorkloadFactory& factory, const ActuationSpec& actuation,
    sim::SimTime warmup, const PostDeployHook& post_deploy) {
  return measure_warm_impl(factory, actuation, nullptr, warmup, post_deploy);
}

RunResult ExperimentRunner::measure_warm_impl(
    const WorkloadFactory& factory, const ActuationSpec& actuation,
    const sched::MachineSnapshot* snap, sim::SimTime warmup,
    const PostDeployHook& post_deploy) {
  const char* phase = "setup";
  try {
    sched::MachineConfig cfg = base_;
    cfg.enable_meter = false;
    sched::Machine machine(cfg);

    RunResult result;
    result.label = actuation.label();
    result.idle_sensor_temp_c = machine.mean_sensor_temp();
    result.idle_exact_temp_c = mean_exact_temp(machine);

    auto wl = factory();
    wl->deploy(machine);

    // The warmup prefix runs unactuated; the actuation attaches only after
    // it, so every point sharing the prefix sees the identical pre-actuation
    // state whether it was restored or replayed.
    phase = "warmup";
    if (snap != nullptr) {
      machine.restore(*snap);
    } else {
      machine.run_for(warmup);
    }

    phase = "actuate";
    auto controller = actuation.apply(machine);
    if (post_deploy) post_deploy(machine, *wl, controller.get());

    return finish_measurement(machine, *wl, controller, std::move(result),
                              phase);
  } catch (const MeasurementError&) {
    throw;
  } catch (const std::exception& e) {
    throw MeasurementError(phase, e.what());
  }
}

WindowResult ExperimentRunner::run_to_completion(
    const WorkloadFactory& factory, const ActuationSpec& actuation,
    sim::SimTime deadline, const PostDeployHook& post_deploy) {
  const char* phase = "setup";
  try {
  sched::MachineConfig cfg = base_;
  cfg.enable_meter = true;
  sched::Machine machine(cfg);
  auto controller = actuation.apply(machine);
  auto wl = factory();
  wl->deploy(machine);
  if (post_deploy) post_deploy(machine, *wl, controller.get());

  const auto all_done = [&]() {
    for (const auto tid : wl->threads()) {
      if (machine.thread(tid).state() != sched::ThreadState::kDone) {
        return false;
      }
    }
    return true;
  };
  phase = "completion-run";
  const bool finished = machine.run_until_condition(all_done, deadline);

  WindowResult r;
  r.wall_seconds = sim::to_sec(machine.now());
  r.completion_seconds = finished ? sim::to_sec(machine.now()) : -1.0;
  r.meter_energy_j = machine.meter()->measured_energy_joules();
  r.true_energy_j = machine.energy().total_joules();
  r.mean_power_w = machine.meter()->mean_power_w();
  return r;
  } catch (const MeasurementError&) {
    throw;
  } catch (const std::exception& e) {
    throw MeasurementError(phase, e.what());
  }
}

WindowResult ExperimentRunner::run_window(const WorkloadFactory& factory,
                                          const ActuationSpec& actuation,
                                          sim::SimTime window,
                                          const PostDeployHook& post_deploy) {
  const char* phase = "setup";
  try {
  sched::MachineConfig cfg = base_;
  cfg.enable_meter = true;
  sched::Machine machine(cfg);
  auto controller = actuation.apply(machine);
  auto wl = factory();
  wl->deploy(machine);
  if (post_deploy) post_deploy(machine, *wl, controller.get());

  // Track completion time while running out the window.
  phase = "window-run";
  double completion = -1.0;
  const auto all_done = [&]() {
    for (const auto tid : wl->threads()) {
      if (machine.thread(tid).state() != sched::ThreadState::kDone) {
        return false;
      }
    }
    return true;
  };
  if (machine.run_until_condition(all_done, window)) {
    completion = sim::to_sec(machine.now());
    machine.run_until(window);
  }

  WindowResult r;
  r.wall_seconds = sim::to_sec(machine.now());
  r.completion_seconds = completion;
  r.meter_energy_j = machine.meter()->measured_energy_joules();
  r.true_energy_j = machine.energy().total_joules();
  r.mean_power_w = machine.meter()->mean_power_w();
  return r;
  } catch (const MeasurementError&) {
    throw;
  } catch (const std::exception& e) {
    throw MeasurementError(phase, e.what());
  }
}

}  // namespace dimetrodon::harness
