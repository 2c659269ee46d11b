// Quickstart: build the simulated server, run the worst-case thermal load
// (cpuburn on every core) unconstrained, then under a Dimetrodon policy, and
// print the temperature/throughput trade-off — the paper's headline
// measurement in ~40 lines of API use.
#include <cstdio>

#include "harness/experiment.hpp"
#include "workload/cpuburn.hpp"

using namespace dimetrodon;

int main() {
  sched::MachineConfig config;  // the paper's 1U Xeon E5520 server
  harness::ExperimentRunner runner{config, harness::MeasurementConfig{}};

  const auto cpuburn = [] {
    return std::make_unique<workload::CpuBurnFleet>(4);  // one per core
  };

  std::printf("Running cpuburn unconstrained (race-to-idle)...\n");
  const auto baseline = runner.measure(cpuburn, harness::ActuationSpec::none());
  std::printf("  idle temp %.1f C | loaded temp %.1f C (exact %.2f C)\n",
              baseline.idle_sensor_temp_c, baseline.avg_sensor_temp_c,
              baseline.avg_exact_temp_c);
  std::printf("  throughput %.3f work-s/s | package power %.1f W\n\n",
              baseline.throughput, baseline.avg_power_w);

  const double p = 0.5;
  const auto quantum = sim::from_ms(10);
  std::printf("Running cpuburn under Dimetrodon (p=%.2f, L=%.0f ms)...\n", p,
              sim::to_ms(quantum));
  const auto run =
      runner.measure(cpuburn, harness::ActuationSpec::global(p, quantum));
  std::printf("  loaded temp %.1f C (exact %.2f C) | throughput %.3f | "
              "power %.1f W | injected idle %.1f%%\n",
              run.avg_sensor_temp_c, run.avg_exact_temp_c, run.throughput,
              run.avg_power_w, 100.0 * run.injected_idle_fraction);

  const auto t = harness::compute_tradeoff(baseline, run);
  std::printf("\nTrade-off: temperature reduction over idle %.1f%% (exact "
              "%.1f%%) for a %.1f%% throughput reduction -> efficiency "
              "%.2f:1\n",
              100.0 * t.temp_reduction, 100.0 * t.temp_reduction_exact,
              100.0 * t.throughput_reduction, t.efficiency);
  return 0;
}
