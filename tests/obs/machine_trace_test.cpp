// Integration of the obs subsystem with the simulated machine: the zero-sink
// fast path must not change simulated behavior, counters must agree with the
// machine's own per-thread statistics, and exported injected-idle spans must
// sum to the counter registry's injected-idle nanoseconds exactly.
#include <gtest/gtest.h>

#include <memory>

#include "core/controller.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "sched/machine.hpp"
#include "workload/cpuburn.hpp"

namespace dimetrodon {
namespace {

constexpr sim::SimTime kWindow = sim::from_ms(500);

sched::MachineConfig traced_config(std::shared_ptr<obs::RingBufferSink> sink) {
  sched::MachineConfig cfg;
  cfg.enable_meter = true;
  if (sink) cfg.trace_sink_factory = [sink]() { return sink; };
  return cfg;
}

void run_injected(sched::Machine& machine, double p, sim::SimTime quantum) {
  core::DimetrodonController ctl(machine);
  ctl.sys_set_global(p, quantum);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  machine.run_for(kWindow);
}

TEST(MachineTrace, SpanSumEqualsRegistryExactlySuspensionSemantics) {
  auto sink = std::make_shared<obs::RingBufferSink>();
  sched::Machine machine(traced_config(sink));
  run_injected(machine, 0.6, sim::from_ms(5));

  ASSERT_EQ(sink->dropped(), 0u) << "ring too small for exact span check";
  const obs::CounterTotals totals = machine.counters().totals();
  ASSERT_GT(totals.injections, 0u);
  const auto spans = obs::injected_idle_spans(sink->snapshot());
  EXPECT_EQ(obs::summed_injection_ns(spans), totals.injected_idle_ns);
}

TEST(MachineTrace, SpanSumEqualsRegistryExactlyPinnedSemantics) {
  auto sink = std::make_shared<obs::RingBufferSink>();
  sched::MachineConfig cfg = traced_config(sink);
  cfg.injection_suspends_thread = false;  // literal §3.1 idle-thread pinning
  sched::Machine machine(cfg);
  run_injected(machine, 0.6, sim::from_ms(5));

  ASSERT_EQ(sink->dropped(), 0u);
  const obs::CounterTotals totals = machine.counters().totals();
  ASSERT_GT(totals.injections, 0u);
  const auto spans = obs::injected_idle_spans(sink->snapshot());
  EXPECT_EQ(obs::summed_injection_ns(spans), totals.injected_idle_ns);
}

TEST(MachineTrace, CountersAgreeWithMachineCoreStatistics) {
  auto sink = std::make_shared<obs::RingBufferSink>();
  sched::Machine machine(traced_config(sink));
  run_injected(machine, 0.5, sim::from_ms(10));

  // The registry is the one per-core count of dispatches, switches and
  // injections; the machine's threads count the same dispatches and
  // injections from their side.
  std::uint64_t dispatches = 0, switches = 0, injections = 0;
  for (std::size_t i = 0; i < machine.num_cores(); ++i) {
    const auto& cc = machine.counters().core(i);
    dispatches += cc.dispatches;
    switches += cc.context_switches;
    injections += cc.injections;
  }
  std::uint64_t scheduled = 0, suffered = 0;
  for (sched::ThreadId id = 0; id < machine.thread_count(); ++id) {
    scheduled += machine.thread(id).times_scheduled();
    suffered += machine.thread(id).injections_suffered();
  }
  const obs::CounterTotals totals = machine.counters().totals();
  EXPECT_EQ(totals.dispatches, dispatches);
  EXPECT_EQ(totals.context_switches, switches);
  EXPECT_EQ(totals.injections, injections);
  EXPECT_EQ(totals.dispatches, scheduled);
  EXPECT_EQ(totals.injections, suffered);
  EXPECT_GT(totals.injections, 0u);
  EXPECT_GT(totals.cstate_entries, 0u);
  EXPECT_GT(totals.c1e_residency_ns, 0u);
  EXPECT_GE(totals.idle_ns, totals.c1e_residency_ns);
  EXPECT_GT(totals.meter_samples, 0u);
  EXPECT_GT(totals.sensor_samples, 0u);
}

TEST(MachineTrace, ZeroSinkFastPathDoesNotPerturbSimulation) {
  sched::Machine traced(traced_config(std::make_shared<obs::RingBufferSink>()));
  sched::Machine plain(traced_config(nullptr));
  run_injected(traced, 0.6, sim::from_ms(5));
  run_injected(plain, 0.6, sim::from_ms(5));

  EXPECT_TRUE(traced.tracer().active());
  EXPECT_FALSE(plain.tracer().active());

  // Simulated physics and scheduling must be bit-identical.
  EXPECT_EQ(traced.now(), plain.now());
  EXPECT_EQ(traced.mean_sensor_temp(), plain.mean_sensor_temp());
  EXPECT_EQ(traced.energy().total_joules(), plain.energy().total_joules());
  for (std::size_t i = 0; i < traced.num_cores(); ++i) {
    const auto& a = traced.core(static_cast<sched::CoreId>(i));
    const auto& b = plain.core(static_cast<sched::CoreId>(i));
    EXPECT_EQ(a.busy_seconds, b.busy_seconds) << "core " << i;
    EXPECT_EQ(a.injected_idle_seconds, b.injected_idle_seconds) << "core " << i;
    EXPECT_EQ(traced.counters().core(i).dispatches,
              plain.counters().core(i).dispatches)
        << "core " << i;
    EXPECT_EQ(traced.counters().core(i).injections,
              plain.counters().core(i).injections)
        << "core " << i;
  }

  // Counters accrue identically either way, except the trace-time sensor
  // sampler, which by design runs only when a sink is attached.
  obs::CounterTotals with_sink = traced.counters().totals();
  obs::CounterTotals without = plain.counters().totals();
  EXPECT_GT(with_sink.sensor_samples, 0u);
  EXPECT_EQ(without.sensor_samples, 0u);
  with_sink.sensor_samples = 0;
  EXPECT_TRUE(with_sink == without);
}

TEST(MachineTrace, ExportedMachineTraceIsValidChromeJson) {
  auto sink = std::make_shared<obs::RingBufferSink>();
  sched::Machine machine(traced_config(sink));
  run_injected(machine, 0.5, sim::from_ms(10));

  obs::TraceMeta meta;
  meta.process_name = "obs-test";
  meta.pid = 1;
  meta.num_cores = machine.num_cores();
  for (std::size_t i = 0; i < machine.thread_count(); ++i) {
    meta.thread_names.push_back(
        machine.thread(static_cast<sched::ThreadId>(i)).name());
  }
  obs::ChromeTraceExporter exporter;
  exporter.add_machine(meta, sink->snapshot());
  const auto parsed = obs::json::validate(exporter.to_string());
  EXPECT_TRUE(parsed.ok) << parsed.error << " at byte " << parsed.error_pos;
  EXPECT_GT(parsed.values, 100u);  // a real trace, not an empty shell
}

}  // namespace
}  // namespace dimetrodon
