// Engine micro-benchmarks (google-benchmark): the hot paths that bound how
// fast the reproduction sweeps run — event queue churn, implicit-Euler RC
// stepping, the leakage factor, scheduler dispatch, and whole-machine
// simulated seconds.
//
// Besides the google-benchmark suite, main() always runs the acceptance
// measurements for the closed-form thermal fast-forward — the 300 s
// cpuburn×4 and 60 s open-loop web machine-advance workloads under the
// sequential reference stepper and under the lazy clock — and writes the
// machine-readable result to
// BENCH_engine.json (override the path with DIMETRODON_BENCH_JSON) so CI can
// track the perf trajectory as an artifact.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "harness/experiment.hpp"
#include "power/power_model.hpp"
#include "sched/machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_network.hpp"
#include "workload/cpuburn.hpp"
#include "workload/web.hpp"

using namespace dimetrodon;

namespace {

// Production-shaped queue traffic: a machine's timer mix rather than a
// depth-1 heap. A standing population of self-rescheduling timers (segment
// ends, idle quanta, periodic ticks) keeps the heap kTimers deep; two of
// every three firings also arm a far-off timeout that the next firing
// cancels (a preempted segment end), so 40% of all schedules are cancelled
// and sit in the heap as carcasses; and delays come from a small set, so
// same-nanosecond ties are common.
class TimerChurn {
 public:
  static constexpr int kTimers = 48;

  TimerChurn() {
    for (int i = 0; i < kTimers; ++i) arm(0);
  }

  /// Fire `n` events (with their share of schedules and cancels).
  void run(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) queue_.pop_and_run();
  }

  std::uint64_t schedules() const { return schedules_; }
  std::uint64_t cancels() const { return cancels_; }

 private:
  void arm(sim::SimTime now) {
    static constexpr sim::SimTime kDelays[] = {0,       1'000,   1'000,
                                               25'000,  100'000, 250'000,
                                               5'000'000};
    const sim::SimTime at = now + kDelays[rng_.uniform_int(0, 6)];
    ++schedules_;
    queue_.schedule(at, [this](sim::SimTime t) { on_fire(t); });
  }

  void on_fire(sim::SimTime t) {
    if (timeout_.cancel()) ++cancels_;
    if (++fired_ % 3 != 0) {
      ++schedules_;
      timeout_ = queue_.schedule(t + 50'000'000, [](sim::SimTime) {});
    }
    arm(t);
  }

  sim::EventQueue queue_;
  sim::Rng rng_{7};
  sim::EventHandle timeout_;
  std::uint64_t fired_ = 0;
  std::uint64_t schedules_ = 0;
  std::uint64_t cancels_ = 0;
};

void BM_EventQueueTimerChurn(benchmark::State& state) {
  TimerChurn churn;
  for (auto _ : state) churn.run(1);
  state.SetLabel(std::to_string(TimerChurn::kTimers) +
                 " timers, 40% cancelled");
}
BENCHMARK(BM_EventQueueTimerChurn);

void BM_EventQueueDeepHeap(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventQueue q;
    for (int i = 0; i < depth; ++i) {
      q.schedule((i * 7919) % 104729, [](sim::SimTime) {});
    }
    state.ResumeTiming();
    while (!q.empty()) q.pop_and_run();
  }
}
BENCHMARK(BM_EventQueueDeepHeap)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(42);
  double sink = 0.0;
  for (auto _ : state) sink += rng.uniform();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngUniform);

void BM_RcNetworkStep(benchmark::State& state) {
  thermal::RcNetwork net;
  thermal::FloorplanParams params;
  const auto nodes = thermal::build_server_floorplan(net, params);
  for (std::size_t i = 0; i < 4; ++i) net.set_power(nodes.die[i], 12.0);
  net.set_power(nodes.package, 18.0);
  for (auto _ : state) net.step(0.00025);
  benchmark::DoNotOptimize(net.temperature(nodes.die[0]));
}
BENCHMARK(BM_RcNetworkStep);

// The closed-form propagator: one simulated second of 250 µs substeps in
// O(log k) matvecs — the fast path under every machine advance.
void BM_RcNetworkFastForward(benchmark::State& state) {
  thermal::RcNetwork net;
  thermal::FloorplanParams params;
  const auto nodes = thermal::build_server_floorplan(net, params);
  for (std::size_t i = 0; i < 4; ++i) net.set_power(nodes.die[i], 12.0);
  net.set_power(nodes.package, 18.0);
  const auto k = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) net.advance(0.00025, k);
  state.SetLabel(std::to_string(k) + " substeps/advance");
  benchmark::DoNotOptimize(net.temperature(nodes.die[0]));
}
BENCHMARK(BM_RcNetworkFastForward)->Arg(20)->Arg(4000);

void BM_RcNetworkSteadyState(benchmark::State& state) {
  thermal::RcNetwork net;
  thermal::FloorplanParams params;
  const auto nodes = thermal::build_server_floorplan(net, params);
  for (std::size_t i = 0; i < 4; ++i) net.set_power(nodes.die[i], 12.0);
  for (auto _ : state) net.solve_steady_state();
  benchmark::DoNotOptimize(net.temperature(nodes.die[0]));
}
BENCHMARK(BM_RcNetworkSteadyState);

// The leakage temperature factor, as a power-memo miss pays it: a die
// temperature walk shaped like a cpuburn machine's, 40-70 C in small steps.
void BM_LeakageTempFactor(benchmark::State& state) {
  const power::CpuPowerModel model;
  sim::Rng rng(3);
  std::vector<double> walk(4096);
  double t = 55.0;
  for (double& w : walk) {
    t += rng.uniform(-0.05, 0.05);
    if (t < 40.0 || t > 70.0) t = 55.0;
    w = t;
  }
  double sink = 0.0;
  for (auto _ : state) {
    for (const double w : walk) sink += model.leakage_temp_factor(w);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(walk.size()));
}
BENCHMARK(BM_LeakageTempFactor);

void BM_MachineSimulatedSecond(benchmark::State& state) {
  sched::MachineConfig cfg;
  cfg.enable_meter = state.range(0) != 0;
  sched::Machine machine(cfg);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  for (auto _ : state) machine.run_for(sim::kSecond);
  state.SetLabel(cfg.enable_meter ? "meter on" : "meter off");
}
BENCHMARK(BM_MachineSimulatedSecond)->Arg(0)->Arg(1);

// Pre-fast-forward baseline: the 250 µs self-rescheduling substep event and
// one propagator step per substep, with leakage refreshed at each.
void BM_MachineSecondReferenceStepper(benchmark::State& state) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  cfg.thermal_reference_stepper = true;
  sched::Machine machine(cfg);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  for (auto _ : state) machine.run_for(sim::kSecond);
}
BENCHMARK(BM_MachineSecondReferenceStepper);

void BM_MachineSecondUnderInjection(benchmark::State& state) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  sched::Machine machine(cfg);
  core::DimetrodonController ctl(machine);
  // Worst case for the event engine: 1 ms quanta at high probability.
  ctl.sys_set_global(0.75, sim::from_ms(state.range(0)));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  for (auto _ : state) machine.run_for(sim::kSecond);
}
BENCHMARK(BM_MachineSecondUnderInjection)->Arg(1)->Arg(10)->Arg(100);

// Tracing overhead on the scheduler hot path. Arg 0: no sink attached (the
// probes must collapse to counter increments plus one predicted branch —
// the subsystem's <2% overhead budget). Arg 1: ring-buffer sink attached,
// showing the full cost of event capture. High-frequency injection maximizes
// probe density (sched switches + C-state transitions + injection events).
void BM_MachineSecondTracing(benchmark::State& state) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  auto sink = std::make_shared<obs::RingBufferSink>();
  if (state.range(0) != 0) {
    cfg.trace_sink_factory = [sink]() { return sink; };
  }
  sched::Machine machine(cfg);
  core::DimetrodonController ctl(machine);
  ctl.sys_set_global(0.75, sim::from_ms(1));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  for (auto _ : state) machine.run_for(sim::kSecond);
  state.SetLabel(state.range(0) != 0 ? "ring-buffer sink" : "no sink");
  // Events executed per iteration (one simulated second), so the no-sink
  // and sink cells compare however many iterations each ran.
  const auto events =
      static_cast<double>(machine.simulator().events_executed());
  state.counters["events"] =
      benchmark::Counter(events, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MachineSecondTracing)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Acceptance measurements: machine advance under the reference stepper vs
// the closed-form fast-forward, on 300 s of cpuburn×4 (regular timeslices)
// and 60 s of open-loop web (arrival-driven spans), written as
// machine-readable JSON.
// ---------------------------------------------------------------------------

enum class AdvanceWorkload { kCpuBurn, kOpenLoopWeb };

// Open-loop web serving as a cluster node sees it: Poisson arrivals pushed
// in from outside, so thermal spans end at arbitrary nanoseconds rather than
// on cpuburn's regular timeslice boundaries.
void drive_open_loop(sched::Machine& machine, workload::WebWorkload& web,
                     double rps, sim::SimTime end) {
  sim::Rng arrivals(42);
  std::uint32_t id = 0;
  for (sim::SimTime t = sim::from_sec(arrivals.exponential(1.0 / rps));
       t < end; t += sim::from_sec(arrivals.exponential(1.0 / rps))) {
    machine.run_until(t);
    web.inject_request(id++);
  }
  machine.run_until(end);
}

struct AdvanceResult {
  double wall_seconds = 0.0;
  double sim_seconds_per_sec = 0.0;
  double ns_per_substep = 0.0;
  std::uint64_t substeps = 0;
  std::uint64_t fast_forward_steps = 0;
  std::uint64_t matvecs = 0;
  std::uint64_t factorizations = 0;
  std::uint64_t solves = 0;
  std::uint64_t free_nodes = 0;
  double factorizations_per_sim_second = 0.0;
  std::uint64_t events_executed = 0;
  double events_per_sim_second = 0.0;
  std::uint64_t monitor_ticks = 0;
  std::uint64_t clock_refreshes = 0;
  std::uint64_t power_evals = 0;
};

AdvanceResult measure_machine_advance(AdvanceWorkload kind, bool reference,
                                      double sim_seconds) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  cfg.thermal_reference_stepper = reference;
  sched::Machine machine(cfg);
  workload::CpuBurnFleet fleet(4);
  workload::WebWorkload::Config web_cfg;
  web_cfg.connections = 0;  // open loop only
  workload::WebWorkload web(web_cfg);
  const bool cpuburn = kind == AdvanceWorkload::kCpuBurn;
  if (cpuburn) {
    fleet.deploy(machine);
  } else {
    web.deploy(machine);
  }
  const sim::SimTime end = sim::from_sec(sim_seconds);
  const auto t0 = std::chrono::steady_clock::now();
  if (cpuburn) {
    machine.run_until(end);
  } else {
    drive_open_loop(machine, web, 600.0, end);
  }
  const auto t1 = std::chrono::steady_clock::now();

  AdvanceResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.sim_seconds_per_sec =
      r.wall_seconds > 0.0 ? sim_seconds / r.wall_seconds : 0.0;
  const obs::CounterTotals t = machine.counters().totals();
  r.substeps = t.thermal_substeps;
  r.fast_forward_steps = t.thermal_fast_forward_steps;
  r.matvecs = t.thermal_matvecs;
  r.factorizations = t.thermal_factorizations;
  r.solves = t.thermal_solves;
  const thermal::RcNetwork& net = machine.thermal_network();
  for (thermal::NodeId n = 0; n < net.node_count(); ++n) {
    r.free_nodes += net.is_fixed(n) ? 0 : 1;
  }
  r.factorizations_per_sim_second =
      static_cast<double>(r.factorizations) / sim_seconds;
  r.events_executed = machine.simulator().events_executed();
  r.events_per_sim_second = static_cast<double>(r.events_executed) / sim_seconds;
  r.monitor_ticks = t.monitor_ticks;
  r.clock_refreshes = t.clock_refreshes;
  r.power_evals = t.core_power_evals;
  r.ns_per_substep =
      r.substeps > 0 ? r.wall_seconds * 1e9 / static_cast<double>(r.substeps)
                     : 0.0;
  return r;
}

struct EventQueueResult {
  double fired_per_sec = 0.0;
  double cancel_share = 0.0;
};

EventQueueResult measure_event_queue() {
  constexpr std::uint64_t kFired = 1'000'000;
  TimerChurn churn;
  const auto t0 = std::chrono::steady_clock::now();
  churn.run(kFired);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  EventQueueResult r;
  r.fired_per_sec = wall > 0.0 ? static_cast<double>(kFired) / wall : 0.0;
  r.cancel_share = static_cast<double>(churn.cancels()) /
                   static_cast<double>(churn.schedules());
  return r;
}

// ---------------------------------------------------------------------------
// Acceptance cell: warm-start sweep. Eight injection setpoints sharing one
// 240 s unactuated cpuburn×4 warmup, measured cold (each point re-simulates
// the warmup) and warm (one snapshot build, eight forks). The forked results
// must be bit-identical to the replayed ones, and sharing the prefix must cut
// end-to-end wall time at least in half.
// ---------------------------------------------------------------------------

struct WarmStartResult {
  int points = 0;
  double warmup_sim_seconds = 0.0;
  double cold_wall = 0.0;
  double warm_wall = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
};

WarmStartResult measure_warm_start() {
  constexpr double kWarmupSeconds = 240.0;
  const std::vector<double> probs = {0.05, 0.15, 0.25, 0.35,
                                     0.45, 0.55, 0.65, 0.75};
  harness::MeasurementConfig mc;
  mc.max_settle_iterations = 1;
  mc.settle_chunk = sim::from_sec(2);
  mc.post_settle_run = sim::from_sec(1);
  mc.measure_window = sim::from_sec(5);
  mc.sensor_poll = sim::from_ms(500);
  sched::MachineConfig cfg;
  harness::ExperimentRunner runner(cfg, mc);
  const auto factory = []() -> std::unique_ptr<workload::Workload> {
    return std::make_unique<workload::CpuBurnFleet>(4);
  };
  const sim::SimTime warmup = sim::from_sec(kWarmupSeconds);

  WarmStartResult r;
  r.points = static_cast<int>(probs.size());
  r.warmup_sim_seconds = kWarmupSeconds;

  std::vector<harness::RunResult> cold;
  auto t0 = std::chrono::steady_clock::now();
  for (const double p : probs) {
    cold.push_back(runner.measure_after_warmup(
        factory, harness::ActuationSpec::global(p, sim::from_ms(100)),
        warmup));
  }
  r.cold_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<harness::RunResult> warm;
  t0 = std::chrono::steady_clock::now();
  const sched::MachineSnapshot snap =
      runner.build_warmup_snapshot(factory, warmup);
  for (const double p : probs) {
    warm.push_back(runner.measure_warm(
        factory, harness::ActuationSpec::global(p, sim::from_ms(100)), snap));
  }
  r.warm_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  r.speedup = r.warm_wall > 0.0 ? r.cold_wall / r.warm_wall : 0.0;
  r.bit_identical = true;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (cold[i].avg_sensor_temp_c != warm[i].avg_sensor_temp_c ||
        cold[i].avg_exact_temp_c != warm[i].avg_exact_temp_c ||
        cold[i].throughput != warm[i].throughput ||
        cold[i].avg_power_w != warm[i].avg_power_w ||
        cold[i].injected_idle_fraction != warm[i].injected_idle_fraction ||
        cold[i].sim_seconds != warm[i].sim_seconds) {
      r.bit_identical = false;
      std::fprintf(stderr,
                   "warm-start MISMATCH at p=%.2f: "
                   "sensor %.17g vs %.17g, throughput %.17g vs %.17g\n",
                   probs[i], cold[i].avg_sensor_temp_c,
                   warm[i].avg_sensor_temp_c, cold[i].throughput,
                   warm[i].throughput);
    }
  }
  return r;
}

// A thermal span ends at every event and at every refresh point the clock
// takes in place of a monitor tick; each span evaluates every physical core.
std::uint64_t thermal_spans(const AdvanceResult& r) {
  return r.events_executed + r.clock_refreshes;
}

double power_evals_per_span(const AdvanceResult& r) {
  return thermal_spans(r) > 0 ? static_cast<double>(r.power_evals) /
                                    static_cast<double>(thermal_spans(r))
                              : 0.0;
}

void put_advance(std::FILE* f, const char* key, const AdvanceResult& r,
                 const char* trailing) {
  std::fprintf(
      f,
      "    \"%s\": {\n"
      "      \"wall_seconds\": %.6f,\n"
      "      \"sim_seconds_per_sec\": %.3f,\n"
      "      \"ns_per_substep\": %.3f,\n"
      "      \"substeps\": %llu,\n"
      "      \"fast_forward_steps\": %llu,\n"
      "      \"matvecs\": %llu,\n"
      "      \"factorizations\": %llu,\n"
      "      \"factorizations_per_sim_second\": %.4f,\n"
      "      \"solves\": %llu,\n"
      "      \"free_nodes\": %llu,\n"
      "      \"events_executed\": %llu,\n"
      "      \"events_per_sim_second\": %.1f,\n"
      "      \"monitor_ticks\": %llu,\n"
      "      \"clock_refreshes\": %llu,\n"
      "      \"thermal_spans\": %llu,\n"
      "      \"power_evals\": %llu,\n"
      "      \"power_evals_per_span\": %.6f\n"
      "    }%s\n",
      key, r.wall_seconds, r.sim_seconds_per_sec, r.ns_per_substep,
      static_cast<unsigned long long>(r.substeps),
      static_cast<unsigned long long>(r.fast_forward_steps),
      static_cast<unsigned long long>(r.matvecs),
      static_cast<unsigned long long>(r.factorizations),
      r.factorizations_per_sim_second,
      static_cast<unsigned long long>(r.solves),
      static_cast<unsigned long long>(r.free_nodes),
      static_cast<unsigned long long>(r.events_executed),
      r.events_per_sim_second,
      static_cast<unsigned long long>(r.monitor_ticks),
      static_cast<unsigned long long>(r.clock_refreshes),
      static_cast<unsigned long long>(thermal_spans(r)),
      static_cast<unsigned long long>(r.power_evals), power_evals_per_span(r),
      trailing);
}

// Events per simulated second the default (fast-forward) config may run.
// cpuburn×4 needs ~40 timeslice ends and one schedcpu: the 5 ms leakage
// refresh happens inside the thermal clock, and the PROCHOT certificate
// parks the monitor tick after the first. The web cell adds the arrivals
// and their dispatch/completion events. Each budget keeps the headroom
// ratio the budgets had over the measured rate before the tick was parked
// (300/241 and 2900/2794.6), so it sits below what a re-armed 5 ms tick
// (+200/s) would cost.
constexpr double kCpuBurnEventBudget = 51.0;
constexpr double kWebEventBudget = 2690.0;

// Per-core power-model evaluations (power memo misses) per thermal span the
// default config may run. Each span evaluates every physical core, so a
// budget is 1.5x the cell's measured miss share times 4 cores: cpuburn×4
// misses 12 of 252,048 calls (its operating points settle after start-up),
// open-loop web 23.5%. Spans (events + clock refreshes) equal the event
// count of a machine that ticks at every refresh point, the base those
// shares were measured on.
constexpr double kCpuBurnPowerEvalBudget = 1.5 * 4.8e-5 * 4;
constexpr double kWebPowerEvalBudget = 1.5 * 0.235 * 4;

int write_engine_json() {
  const char* env = std::getenv("DIMETRODON_BENCH_JSON");
  const std::string path = (env != nullptr && *env) ? env : "BENCH_engine.json";
  constexpr double kSimSeconds = 300.0;  // the paper's Fig. 2 horizon
  constexpr double kWebSimSeconds = 60.0;
  const auto speedup_of = [](const AdvanceResult& ref,
                             const AdvanceResult& fast) {
    return ref.sim_seconds_per_sec > 0.0
               ? fast.sim_seconds_per_sec / ref.sim_seconds_per_sec
               : 0.0;
  };

  std::fprintf(stderr, "measuring %g s cpuburn×4 machine advance "
               "(reference stepper)...\n", kSimSeconds);
  const AdvanceResult ref =
      measure_machine_advance(AdvanceWorkload::kCpuBurn, true, kSimSeconds);
  std::fprintf(stderr, "measuring %g s cpuburn×4 machine advance "
               "(fast-forward)...\n", kSimSeconds);
  const AdvanceResult fast =
      measure_machine_advance(AdvanceWorkload::kCpuBurn, false, kSimSeconds);
  const EventQueueResult queue = measure_event_queue();
  const double speedup = speedup_of(ref, fast);
  std::fprintf(stderr, "measuring %g s open-loop web machine advance "
               "(reference stepper, then fast-forward)...\n", kWebSimSeconds);
  const AdvanceResult web_ref = measure_machine_advance(
      AdvanceWorkload::kOpenLoopWeb, true, kWebSimSeconds);
  const AdvanceResult web_fast = measure_machine_advance(
      AdvanceWorkload::kOpenLoopWeb, false, kWebSimSeconds);
  const double web_speedup = speedup_of(web_ref, web_fast);
  std::fprintf(stderr, "measuring warm-start sweep (8 points, 240 s shared "
               "warmup)...\n");
  const WarmStartResult warm = measure_warm_start();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"dimetrodon-bench-engine v8\",\n"
               "  \"machine_advance\": {\n"
               "    \"workload\": \"cpuburn x4\",\n"
               "    \"sim_seconds\": %.1f,\n",
               kSimSeconds);
  put_advance(f, "reference", ref, ",");
  put_advance(f, "fast_forward", fast, ",");
  std::fprintf(f,
               "    \"speedup\": %.3f,\n"
               "    \"events_budget_per_sim_second\": %.1f,\n"
               "    \"power_evals_budget_per_span\": %.6f\n"
               "  },\n"
               "  \"open_loop_web\": {\n"
               "    \"workload\": \"open-loop web, Poisson 600 rps\",\n"
               "    \"sim_seconds\": %.1f,\n",
               speedup, kCpuBurnEventBudget, kCpuBurnPowerEvalBudget,
               kWebSimSeconds);
  put_advance(f, "reference", web_ref, ",");
  put_advance(f, "fast_forward", web_fast, ",");
  std::fprintf(f,
               "    \"speedup\": %.3f,\n"
               "    \"events_budget_per_sim_second\": %.1f,\n"
               "    \"power_evals_budget_per_span\": %.6f\n"
               "  },\n"
               "  \"event_queue\": {\n"
               "    \"workload\": \"%d self-rescheduling timers, "
               "cancelled timeouts\",\n"
               "    \"fired_per_sec\": %.0f,\n"
               "    \"cancel_share\": %.3f\n"
               "  },\n",
               web_speedup, kWebEventBudget, kWebPowerEvalBudget,
               TimerChurn::kTimers,
               queue.fired_per_sec, queue.cancel_share);
  std::fprintf(f,
               "  \"warm_start\": {\n"
               "    \"points\": %d,\n"
               "    \"warmup_sim_seconds\": %.1f,\n"
               "    \"cold_wall_seconds\": %.6f,\n"
               "    \"warm_wall_seconds\": %.6f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"bit_identical\": %s\n"
               "  }\n"
               "}\n",
               warm.points, warm.warmup_sim_seconds, warm.cold_wall,
               warm.warm_wall, warm.speedup,
               warm.bit_identical ? "true" : "false");
  std::fclose(f);
  std::fprintf(stderr,
               "machine advance: reference %.2f sim-s/s, fast-forward %.2f "
               "sim-s/s (%.1fx), %.1f events/sim-s -> %s\n",
               ref.sim_seconds_per_sec, fast.sim_seconds_per_sec, speedup,
               fast.events_per_sim_second, path.c_str());
  std::fprintf(stderr,
               "open-loop web: reference %.2f sim-s/s, fast-forward %.2f "
               "sim-s/s (%.1fx), %llu factorizations, %.1f events/sim-s\n",
               web_ref.sim_seconds_per_sec, web_fast.sim_seconds_per_sec,
               web_speedup,
               static_cast<unsigned long long>(web_fast.factorizations),
               web_fast.events_per_sim_second);
  std::fprintf(stderr,
               "event queue: %.0f fired/s over %d timers, %.0f%% of "
               "schedules cancelled\n",
               queue.fired_per_sec, TimerChurn::kTimers,
               100.0 * queue.cancel_share);
  std::fprintf(stderr,
               "warm start: cold %.3fs, warm %.3fs (%.2fx, identical=%d)\n",
               warm.cold_wall, warm.warm_wall, warm.speedup,
               warm.bit_identical ? 1 : 0);

  // Acceptance bars — a regression here fails the bench binary (and CI).
  int rc = 0;
  for (const auto& [cell, r, budget] :
       {std::tuple{"machine advance", fast, kCpuBurnEventBudget},
        std::tuple{"open-loop web", web_fast, kWebEventBudget}}) {
    if (r.events_per_sim_second > budget) {
      // The default config parks its PROCHOT monitor tick; a tick that is
      // re-armed (a certificate that fails to hold) adds 200 events/s.
      std::fprintf(stderr,
                   "BAR FAILED: %s ran %.1f events per simulated second "
                   "(budget: %.1f)\n",
                   cell, r.events_per_sim_second, budget);
      rc = 1;
    }
  }
  for (const auto& [cell, r, budget] :
       {std::tuple{"machine advance", fast, kCpuBurnPowerEvalBudget},
        std::tuple{"open-loop web", web_fast, kWebPowerEvalBudget}}) {
    if (power_evals_per_span(r) > budget) {
      // The power memo re-evaluates a core only when its operating point
      // or activity changed; a key that never hits shows up here.
      std::fprintf(stderr,
                   "BAR FAILED: %s ran %.6f power evaluations per thermal "
                   "span (budget: %.6f)\n",
                   cell, power_evals_per_span(r), budget);
      rc = 1;
    }
  }
  for (const auto& [cell, r] : {std::pair{"machine advance", fast},
                                 std::pair{"open-loop web", web_fast}}) {
    if (r.solves > r.free_nodes * r.factorizations) {
      // The step operator's unit solves are the only solves there are: a
      // solve per substep would show up here.
      std::fprintf(stderr,
                   "BAR FAILED: %s ran %llu thermal solves (budget: %llu "
                   "free nodes x %llu factorizations)\n",
                   cell, static_cast<unsigned long long>(r.solves),
                   static_cast<unsigned long long>(r.free_nodes),
                   static_cast<unsigned long long>(r.factorizations));
      rc = 1;
    }
  }
  if (web_fast.factorizations > 1) {
    // Thermal time lives on one substep grid: irregular arrival-driven
    // spans must not cost LU factorizations beyond the grid's one.
    std::fprintf(stderr,
                 "BAR FAILED: open-loop web run made %llu factorizations "
                 "(budget: 1 per run)\n",
                 static_cast<unsigned long long>(web_fast.factorizations));
    rc = 1;
  }
  if (!warm.bit_identical) {
    std::fprintf(stderr,
                 "BAR FAILED: warm-start fork is not bit-identical to the "
                 "replayed warmup\n");
    rc = 1;
  }
  if (warm.speedup < 2.0) {
    std::fprintf(stderr,
                 "BAR FAILED: warm-start speedup %.2fx below the 2x bar\n",
                 warm.speedup);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_engine_json();
}
