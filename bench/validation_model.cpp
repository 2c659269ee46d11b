// §3.3 model validation:
//  (a) Throughput: measured runtimes of a finite cpuburn under p x L
//      configurations versus the analytic model D(t) = R + (R/q)(p/(1-p))L.
//      The paper ran 100 trials per configuration and found throughput on
//      average 1.0% lower than predicted, worsening with p (context switch
//      and state-monitoring overheads).
//  (b) Power/energy: Dimetrodon vs race-to-idle energy over equal windows,
//      measured through the clamp+multimeter model; the paper found ratios
//      between 97.6% and 103.7% (mean deviation -0.37%).
#include <cstdio>

#include "analysis/bootstrap.hpp"
#include "bench_util.hpp"
#include "core/analytic_model.hpp"
#include "workload/cpuburn.hpp"

using namespace dimetrodon;

namespace {

constexpr double kWorkSeconds = 7.0;  // the paper's 7 s cpuburn loop
constexpr double kQuantumSeconds = 0.1;

// Master seeds of the two trial families; trial k runs under
// sim::derive_stream_seed(master, k), so every trial is an independent,
// order-insensitive stream.
constexpr std::uint64_t kThroughputSeed = 0x1234;
constexpr std::uint64_t kEnergySeed = 0x900d;

/// One runtime trial: run the finite cpuburn fleet to completion and record
/// each instance's completion time as a sample.
runner::RunSpec runtime_trial_spec(const sched::MachineConfig& base, double p,
                                   sim::SimTime quantum, int trial) {
  auto spec = bench::custom_spec(
      base,
      trace::fmt("validation-throughput[p=%a,L=%lld,work=%a,trial=%d]", p,
                 static_cast<long long>(quantum), kWorkSeconds, trial),
      [p, quantum](const runner::RunSpec&, const sched::MachineConfig& cfg) {
        sched::MachineConfig mcfg = cfg;
        mcfg.enable_meter = false;
        sched::Machine machine(mcfg);
        core::DimetrodonController ctl(machine);
        ctl.sys_set_global(p, quantum);
        workload::CpuBurnFleet fleet(4, kWorkSeconds);
        fleet.deploy(machine);
        machine.run_until_condition([&] { return fleet.all_done(machine); },
                                    sim::from_sec(300));
        runner::RunRecord rec;
        for (const auto tid : fleet.threads()) {
          rec.samples.push_back(
              sim::to_sec(machine.thread(tid).finished_at() -
                          machine.thread(tid).created_at()));
        }
        rec.extra = {{"sim_seconds", sim::to_sec(machine.now())}};
        return rec;
      });
  spec.seed = sim::derive_stream_seed(kThroughputSeed,
                                      static_cast<std::uint64_t>(trial));
  return spec;
}

/// One energy trial: Dimetrodon run to completion, then race-to-idle over
/// the same wall window; extras carry the two metered energies.
runner::RunSpec energy_trial_spec(const sched::MachineConfig& base, double p,
                                  sim::SimTime quantum, int trial) {
  auto spec = bench::custom_spec(
      base,
      trace::fmt("validation-energy[p=%a,L=%lld,work=%a,trial=%d]", p,
                 static_cast<long long>(quantum), kWorkSeconds, trial),
      [p, quantum](const runner::RunSpec&, const sched::MachineConfig& cfg) {
        harness::ExperimentRunner r(cfg, harness::MeasurementConfig{});
        const auto burn = [] {
          return std::make_unique<workload::CpuBurnFleet>(4, kWorkSeconds);
        };
        const auto dim = r.run_to_completion(
            burn, harness::ActuationSpec::global(p, quantum),
            sim::from_sec(300));
        const auto rti = r.run_window(burn, harness::ActuationSpec::none(),
                                      sim::from_sec(dim.completion_seconds));
        runner::RunRecord rec;
        rec.window = dim;
        rec.extra = {{"e_dim_j", dim.meter_energy_j},
                     {"e_rti_j", rti.meter_energy_j},
                     {"sim_seconds", rti.wall_seconds}};
        return rec;
      });
  spec.seed =
      sim::derive_stream_seed(kEnergySeed, static_cast<std::uint64_t>(trial));
  return spec;
}

}  // namespace

int main() {
  std::printf("=== Section 3.3: model validation ===\n");
  sched::MachineConfig cfg;
  auto engine = bench::make_engine(cfg, "validation_model");

  const std::vector<double> ps = {0.25, 0.5, 0.75};
  const std::vector<double> throughput_ls_ms = {25.0, 50.0, 75.0, 100.0};
  const std::vector<double> energy_ls_ms = {50.0, 100.0};
  constexpr int kRuntimeTrials = 25;
  constexpr int kEnergyTrials = 5;

  // Both experiment families go through the engine as one flat grid.
  std::vector<runner::RunSpec> specs;
  for (const double p : ps) {
    for (const double l_ms : throughput_ls_ms) {
      for (int trial = 0; trial < kRuntimeTrials; ++trial) {
        specs.push_back(runtime_trial_spec(cfg, p, sim::from_ms(l_ms), trial));
      }
    }
  }
  for (const double p : ps) {
    for (const double l_ms : energy_ls_ms) {
      for (int trial = 0; trial < kEnergyTrials; ++trial) {
        specs.push_back(energy_trial_spec(cfg, p, sim::from_ms(l_ms), trial));
      }
    }
  }
  const auto records = bench::run_all_or_die(engine, specs);
  std::size_t next_record = 0;

  // (a) Throughput model.
  std::printf("\n-- Throughput: measured vs D(t) = R + (R/q)(p/(1-p))L "
              "(mean of %d trials x 4 instances) --\n",
              kRuntimeTrials);
  trace::CsvWriter csv(bench::csv_path("validation_throughput.csv"),
                       {"p", "L_ms", "predicted_s", "measured_s",
                        "deviation_pct"});
  trace::Table table({"p", "L(ms)", "predicted(s)", "measured(s)",
                      "95% CI", "dev(%)"});
  double dev_sum = 0.0;
  int dev_n = 0;
  for (const double p : ps) {
    for (const double l_ms : throughput_ls_ms) {
      const double predicted = core::AnalyticModel::predicted_runtime(
          kWorkSeconds, kQuantumSeconds, p, l_ms / 1000.0);
      std::vector<double> samples;
      for (int trial = 0; trial < kRuntimeTrials; ++trial) {
        const auto& rec = records.at(next_record++);
        samples.insert(samples.end(), rec.samples.begin(), rec.samples.end());
      }
      const auto ci = analysis::bootstrap_mean_ci(samples);
      const double measured = ci.mean;
      const double dev = 100.0 * (measured - predicted) / predicted;
      dev_sum += dev;
      ++dev_n;
      table.add_row({trace::fmt("%.2f", p), trace::fmt("%.0f", l_ms),
                     trace::fmt("%.3f", predicted),
                     trace::fmt("%.3f", measured),
                     trace::fmt("[%.3f, %.3f]", ci.lower, ci.upper),
                     trace::fmt("%+.2f", dev)});
      csv.write_row(std::vector<double>{p, l_ms, predicted, measured, dev});
    }
  }
  table.print(std::cout);
  std::printf("mean deviation: %+.2f%% (paper: throughput ~1.0%% lower than "
              "predicted, i.e. runtimes ~+1%%)\n",
              dev_sum / dev_n);

  // (b) Energy model.
  std::printf("\n-- Energy: Dimetrodon vs race-to-idle over equal windows "
              "(measured through the clamp model, %d trials each) --\n",
              kEnergyTrials);
  trace::Table etable({"p", "L(ms)", "E_dim(J)", "E_rti(J)", "ratio"});
  trace::CsvWriter ecsv(bench::csv_path("validation_energy.csv"),
                        {"p", "L_ms", "e_dimetrodon_j", "e_race_to_idle_j",
                         "ratio"});
  double ratio_sum = 0.0;
  double absdev_sum = 0.0;
  int ratio_n = 0;
  for (const double p : ps) {
    for (const double l_ms : energy_ls_ms) {
      double edim_sum = 0.0;
      double erti_sum = 0.0;
      for (int trial = 0; trial < kEnergyTrials; ++trial) {
        const auto& rec = records.at(next_record++);
        edim_sum += rec.metric("e_dim_j");
        erti_sum += rec.metric("e_rti_j");
      }
      const double ratio = edim_sum / erti_sum;
      ratio_sum += ratio;
      absdev_sum += std::fabs(ratio - 1.0);
      ++ratio_n;
      etable.add_row({trace::fmt("%.2f", p), trace::fmt("%.0f", l_ms),
                      trace::fmt("%.1f", edim_sum / kEnergyTrials),
                      trace::fmt("%.1f", erti_sum / kEnergyTrials),
                      trace::fmt("%.3f", ratio)});
      ecsv.write_row(std::vector<double>{p, l_ms, edim_sum / kEnergyTrials,
                                         erti_sum / kEnergyTrials, ratio});
    }
  }
  etable.print(std::cout);
  std::printf("mean ratio %.4f, mean |deviation| %.2f%% (paper: ratios in "
              "[0.976, 1.037], mean deviation -0.37%%, mean |dev| 1.67%%)\n",
              ratio_sum / ratio_n, 100.0 * absdev_sum / ratio_n);
  std::printf("\nCSV: %s, %s\n",
              bench::csv_path("validation_throughput.csv").c_str(),
              bench::csv_path("validation_energy.csv").c_str());
  return 0;
}
