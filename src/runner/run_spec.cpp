#include "runner/run_spec.hpp"

#include <cstdio>
#include <stdexcept>

namespace dimetrodon::runner {

namespace {

void append_machine(sim::CanonWriter& w, const sched::MachineConfig& m) {
  w.open("machine");
  w.field("cores", m.num_cores);
  w.field("smt", m.smt_enabled);
  w.field("smt_tf", m.smt_throughput_factor);
  w.field("smt_cosched", m.smt_co_schedule_injection);
  const auto& f = m.floorplan;
  w.field("fp.cores", f.num_cores);
  w.field("fp.ambient", f.ambient_c);
  w.field("fp.die_c", f.die_capacitance);
  w.field("fp.die_pkg_r", f.die_to_pkg_resistance);
  w.field("fp.die_lat_r", f.die_lateral_resistance);
  w.field("fp.pkg_c", f.pkg_capacitance);
  w.field("fp.pkg_hs_r", f.pkg_to_hs_resistance);
  w.field("fp.hs_c", f.hs_capacitance);
  w.field("fp.hs_amb_r", f.hs_to_ambient_resistance);
  w.field("fp.fan", f.fan_speed_fraction);
  const auto& p = m.power;
  w.field("pw.dyn", p.core_dynamic_nominal_w);
  w.field("pw.f0", p.nominal_freq_ghz);
  w.field("pw.v0", p.nominal_voltage_v);
  w.field("pw.leak", p.core_leakage_nominal_w);
  w.field("pw.t0", p.leakage_ref_temp_c);
  w.field("pw.k", p.leakage_temp_coeff);
  w.field("pw.tsat", p.leakage_saturation_c);
  w.field("pw.unc0", p.uncore_base_w);
  w.field("pw.unc1", p.uncore_active_w);
  w.open_list("dvfs");
  for (std::size_t i = 0; i < m.dvfs.num_levels(); ++i) {
    w.field("f", m.dvfs.level(i).freq_ghz);
    w.field("v", m.dvfs.level(i).voltage_v);
  }
  w.close_list();
  w.field("meter.dt", m.meter.sample_interval);
  w.field("meter.gain", m.meter.gain_error_stddev);
  w.field("meter.noise", m.meter.sample_noise_w);
  w.field("meter.rec", m.meter.record_samples);
  w.field("sched", static_cast<std::uint64_t>(m.scheduler_kind));
  w.field("bsd.slice", m.scheduler.timeslice);
  w.field("bsd.estcpu", m.scheduler.estcpu_per_cpu_second);
  w.field("bsd.decay", m.scheduler.sleep_decay_per_second);
  w.field("ule.slice", m.ule.base_timeslice);
  w.field("ule.islice", m.ule.interactive_timeslice);
  w.field("ule.ithresh", m.ule.interactivity_threshold);
  w.field("ule.decay", m.ule.history_decay);
  w.field("ule.steal", m.ule.work_stealing);
  w.field("cstate", static_cast<std::uint64_t>(m.idle_cstate));
  w.field("csw", m.context_switch_cost);
  w.field("cmod_ovh", m.clock_modulation_overhead);
  w.field("tm", m.hw_thermal_throttle);
  w.field("prochot", m.prochot_c);
  w.field("prochot_rel", m.prochot_release_c);
  w.field("tm_period", m.thermal_monitor_period);
  w.field("tm_duty", m.prochot_duty_step);
  w.field("substep", m.thermal_substep);
  w.field("watchdog", m.thermal_watchdog);
  w.field("ref_stepper", m.thermal_reference_stepper);
  w.field("meter_on", m.enable_meter);
  w.field("idle_eq", m.start_at_idle_equilibrium);
  w.field("kpreempt", m.kernel_preempts_injection);
  w.field("suspend", m.injection_suspends_thread);
  w.close();
}

}  // namespace

double RunRecord::metric(const std::string& key) const {
  for (const auto& [k, v] : extra) {
    if (k == key) return v;
  }
  throw std::out_of_range("RunRecord has no metric '" + key + "'");
}

double RunRecord::sim_seconds_estimate() const {
  double s = result.sim_seconds + window.wall_seconds;
  for (const auto& [k, v] : extra) {
    if (k == "sim_seconds") s += v;
  }
  return s;
}

std::string canonical_spec(const RunSpec& spec,
                           const sched::MachineConfig& base) {
  sim::CanonWriter w(2048);
  w.preamble("dimetrodon-run-spec");
  w.field("kind", static_cast<std::uint64_t>(spec.kind));
  w.field("seed", spec.seed);
  w.field("workload", spec.workload_key);
  w.open("act");
  w.field("kind", static_cast<std::uint64_t>(spec.actuation.kind));
  w.field("p", spec.actuation.probability);
  w.field("L", spec.actuation.quantum);
  w.field("level", spec.actuation.level);
  if (spec.actuation.kind == ActuationSpec::Kind::kGovernor) {
    control::append_canonical_governor(w, spec.actuation.governor);
  }
  w.close();
  w.open("meas");
  const auto& mc = spec.measurement;
  w.field("settle_iters", static_cast<std::int64_t>(mc.max_settle_iterations));
  w.field("settle_chunk", mc.settle_chunk);
  w.field("settle_tol", mc.settle_tolerance_c);
  w.field("post_settle", mc.post_settle_run);
  w.field("window", mc.measure_window);
  w.field("poll", mc.sensor_poll);
  w.close();
  w.field("warmup", spec.warmup);
  append_machine(w, spec.machine ? *spec.machine : base);
  if (spec.kind == RunSpec::Kind::kCustom) {
    w.field("custom", spec.custom_tag);
  }
  return w.take();
}

std::string canonical_warm_prefix(const RunSpec& spec,
                                  const sched::MachineConfig& base) {
  sim::CanonWriter w(1024);
  w.preamble("dimetrodon-warm-prefix");
  w.field("seed", spec.seed);
  w.field("workload", spec.workload_key);
  w.field("warmup", spec.warmup);
  append_machine(w, spec.machine ? *spec.machine : base);
  return w.take();
}

}  // namespace dimetrodon::runner
