// Repository benchmark: host cost of three fixed batches of simulated work.
//
//   fleet-1000       one Cluster::run of a 1000-node governed fleet day
//   fleet-100-churn  one ScenarioEngine::run of a 100-node churn script
//   paper-grid       one SweepEngine::run of the paper's single-machine grids
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out <file>]
//
// The timed call is repeated, each time on a freshly built workload, until
// `--seconds` of host time is spent; timings are reported as medians. With
// `--trace 0` the report holds the end-to-end metrics; with `--trace 1` a
// separate pass times calls into each layer from this file and reports the
// per-layer metrics, plus spans written to `--trace-out` as a Chrome trace.
// Every run is checked (no throw or RunError, request conservation, equal
// modelled outputs across repetitions, lane counts and tracing, no cache
// hits); a run that fails a check counts in "failed".
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/histogram.hpp"
#include "cluster/cluster.hpp"
#include "cluster/fleet_spec.hpp"
#include "runner/sweep_engine.hpp"
#include "scenario/engine.hpp"
#include "workload/cpuburn.hpp"
#include "workload/spec.hpp"
#include "workload/web.hpp"

using namespace dimetrodon;

namespace {

// --- host clocks ------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU seconds, all threads.
double cpu_now() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // kilobytes on Linux
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

// --- sample statistics ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Sample count, minimum, and the highest nearest-rank percentile that still
/// has ten samples beyond it, when there are enough samples for one.
std::string describe_samples(std::vector<double> v) {
  char buf[160];
  const std::size_t n = v.size();
  if (n == 0) return "no samples";
  std::sort(v.begin(), v.end());
  if (n < 11) {
    std::snprintf(buf, sizeof buf,
                  "median of n=%zu; min %.6g; no tail percentile (needs n>=11)",
                  n, v.front());
    return buf;
  }
  const double q = 100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n);
  std::snprintf(buf, sizeof buf, "median of n=%zu; min %.6g; p%.1f = %.6g", n,
                v.front(), q, v[n - 11]);
  return buf;
}

// --- spans --------------------------------------------------------------------

/// In-memory span log for the traced pass: name, start, end and the
/// enclosing span, written as a Chrome trace when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    long parent = -1;
  };

  std::size_t open(std::string name) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back({std::move(name), wall_now(), 0.0, parent});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_.at(id).end_s = wall_now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %ld}}%s\n",
                   s.name.c_str(), 1e6 * (s.start_s - t0),
                   1e6 * (s.end_s - s.start_s), i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

SpanLog* g_spans = nullptr;  // non-null only in the traced pass

/// Records one span in the traced pass; a no-op otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (g_spans != nullptr) id_ = g_spans->open(name);
  }
  ~ScopedSpan() {
    if (g_spans != nullptr) g_spans->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::size_t id_ = 0;
};

// --- pick timing --------------------------------------------------------------

/// Times every pick of the wrapped policy. Picks are aggregated into a count,
/// a sum and a percentile histogram rather than one span each.
class TimedBalancer final : public cluster::LoadBalancer {
 public:
  explicit TimedBalancer(std::unique_ptr<cluster::LoadBalancer> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  std::size_t pick(const cluster::FleetView& fleet) override {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t id = inner_->pick(fleet);
    ns_.add(std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count());
    return id;
  }
  const analysis::PercentileHistogram& ns() const { return ns_; }

 private:
  std::unique_ptr<cluster::LoadBalancer> inner_;
  analysis::PercentileHistogram ns_{1.0, 1e9};
};

// --- checks -------------------------------------------------------------------

/// Runs attempted and failed. A run fails when any of its checks fails.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Count one run; `problems` lists its failed checks (empty = passed).
  /// The first few failures are printed.
  void record(const std::string& run, const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    if (++failed > 5) return;
    for (const std::string& p : problems) {
      std::printf("CHECK FAILED [%s]: %s\n", run.c_str(), p.c_str());
    }
  }
};

bool same_qos(const workload::WebWorkload::QosStats& a,
              const workload::WebWorkload::QosStats& b) {
  return a.good == b.good && a.tolerable == b.tolerable && a.fail == b.fail &&
         a.total == b.total && a.mean_latency_s == b.mean_latency_s &&
         a.max_latency_s == b.max_latency_s &&
         a.p50_latency_s == b.p50_latency_s &&
         a.p95_latency_s == b.p95_latency_s &&
         a.p99_latency_s == b.p99_latency_s;
}

/// Bitwise equality of a cluster run's modelled outputs.
bool same_cluster_result(const cluster::ClusterResult& a,
                         const cluster::ClusterResult& b) {
  if (a.offered != b.offered || a.completed != b.completed ||
      a.throughput_rps != b.throughput_rps || !same_qos(a.qos, b.qos) ||
      a.fleet_peak_sensor_c != b.fleet_peak_sensor_c ||
      a.fleet_peak_exact_c != b.fleet_peak_exact_c ||
      a.fleet_mean_sensor_c != b.fleet_mean_sensor_c ||
      a.fleet_peak_inlet_c != b.fleet_peak_inlet_c || a.drains != b.drains ||
      a.total_energy_j != b.total_energy_j || !(a.counters == b.counters) ||
      a.nodes.size() != b.nodes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const cluster::NodeStats& x = a.nodes[i];
    const cluster::NodeStats& y = b.nodes[i];
    if (x.routed != y.routed || x.completed != y.completed ||
        x.peak_sensor_c != y.peak_sensor_c ||
        x.mean_sensor_c != y.mean_sensor_c || x.drains != y.drains ||
        x.governor_trips != y.governor_trips) {
      return false;
    }
  }
  return true;
}

/// Bitwise equality of a sweep point's modelled outputs.
bool same_record(const runner::RunRecord& a, const runner::RunRecord& b) {
  const harness::RunResult& x = a.result;
  const harness::RunResult& y = b.result;
  if (x.label != y.label || x.idle_sensor_temp_c != y.idle_sensor_temp_c ||
      x.idle_exact_temp_c != y.idle_exact_temp_c ||
      x.avg_sensor_temp_c != y.avg_sensor_temp_c ||
      x.avg_exact_temp_c != y.avg_exact_temp_c ||
      x.throughput != y.throughput || x.avg_power_w != y.avg_power_w ||
      x.injected_idle_fraction != y.injected_idle_fraction ||
      x.sim_seconds != y.sim_seconds || !(x.counters == y.counters) ||
      x.qos.has_value() != y.qos.has_value()) {
    return false;
  }
  return !x.qos || same_qos(*x.qos, *y.qos);
}

// --- workload definitions -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  /// Fleet lanes and sweep threads: min(4, hardware threads).
  std::size_t lanes = 1;
};

constexpr double kPerNodeRps = 600.0;  // ~0.75 utilization of 4 cores @ 5 ms
constexpr double kWebDemandS = 0.0050;

struct FleetShape {
  std::size_t racks = 0;
  std::size_t per_rack = 0;
  sim::SimTime day = 0;  // diurnal period == run duration
  std::size_t nodes() const { return racks * per_rack; }
};

FleetShape fleet_1000_shape(bool smoke) {
  return smoke ? FleetShape{2, 10, sim::from_ms(100)}
               : FleetShape{100, 10, sim::from_sec(1)};
}

FleetShape churn_shape(bool smoke) {
  return smoke ? FleetShape{3, 4, sim::from_ms(400)}
               : FleetShape{10, 10, sim::from_sec(8)};
}

control::GovernorSpec hysteresis_governor() {
  control::GovernorSpec g;
  g.kind = control::GovernorKind::kHysteresis;
  g.hysteresis.trip_c = 46.0;
  g.hysteresis.release_c = 43.0;
  g.hysteresis.hot_probability = 0.5;
  return g;
}

/// The fig9 fleet shape: racks of nodes with CRAC coupling, a rack-position
/// cooling gradient, 600 rps per node shaped by a +/-60% diurnal day with a
/// 1.8x flash crowd, and 20 ms telemetry. Arrivals are open-loop Poisson in
/// simulated time.
cluster::FleetSpec fleet_spec(const FleetShape& shape,
                              const sched::MachineConfig& base,
                              cluster::PolicyKind policy,
                              const Options& opt, std::size_t lanes) {
  workload::WebWorkload::Config web = cluster::ClusterConfig::open_loop_web();
  web.demand_mean_s = kWebDemandS;
  const cluster::TrafficShape traffic =
      cluster::TrafficShape::diurnal(shape.day, 0.6)
          .with_flash(shape.day * 5 / 8, shape.day / 8, 1.8);
  cluster::FleetSpec spec =
      cluster::FleetSpec::racks(shape.racks)
          .nodes_per_rack(shape.per_rack)
          .with_machine(base)
          .with_web(web)
          .with_cooling(0.9, 0.5)
          .with_crac(cluster::RackParams{})
          .with_load(kPerNodeRps * static_cast<double>(shape.nodes()))
          .with_traffic(traffic)
          .with_telemetry(sim::from_ms(20))
          .with_policy(policy, 0.25)
          .with_seed(opt.seed)
          .with_fleet_threads(lanes)
          .for_duration(shape.day);
  return spec;
}

cluster::ClusterRunSpec fleet_1000_spec(const Options& opt, std::size_t lanes) {
  sched::MachineConfig base;
  base.enable_meter = false;
  return fleet_spec(fleet_1000_shape(opt.smoke), base,
                    cluster::PolicyKind::kCoolestNode, opt, lanes)
      .with_governor(hysteresis_governor())
      .build();
}

/// Drain, remove (re-homes queued requests), snapshot-warmed join, undrain,
/// a rack-by-rack injection rollout and a CRAC heat wave, timed as fractions
/// of the day.
scenario::ScenarioScript churn_script(const FleetShape& shape) {
  const sim::SimTime d = shape.day;
  cluster::NodeSpec joiner;
  joiner.fan_speed_fraction = 0.85;
  joiner.injection_probability = 0.3;
  scenario::ScenarioScript s;
  s.drain(d * 15 / 100, 1)
      .remove(d * 25 / 100, static_cast<std::uint32_t>(shape.per_rack - 1))
      .join(d * 35 / 100, joiner, d * 20 / 100)
      .undrain(d * 45 / 100, 1)
      .rolling_injection(d * 50 / 100, d / 100, shape.nodes(), shape.per_rack,
                         0.35)
      .heat_wave(d * 70 / 100, cluster::RackParams{}.crac_supply_c, 40.0,
                 d * 5 / 100, d * 5 / 100, 4);
  return s;
}

scenario::ScenarioSpec churn_spec(const Options& opt, std::size_t lanes) {
  sched::MachineConfig base;
  base.enable_meter = false;
  // fig10's compressed heatsink and PROCHOT band, so an ambient excursion
  // reaches the die within a short run.
  base.floorplan.hs_capacitance = 15.0;
  base.prochot_c = 62.0;
  base.prochot_release_c = 55.0;
  const FleetShape shape = churn_shape(opt.smoke);
  scenario::ScenarioSpec spec;
  spec.base = fleet_spec(shape, base, cluster::PolicyKind::kInjectionAware,
                         opt, lanes)
                  .with_injection_gradient(0.6)
                  .build();
  spec.script = churn_script(shape);
  return spec;
}

harness::MeasurementConfig grid_measurement(bool smoke) {
  harness::MeasurementConfig mc;
  if (smoke) {
    mc.max_settle_iterations = 1;
    mc.settle_chunk = sim::from_sec(1);
    mc.post_settle_run = sim::from_ms(200);
    mc.measure_window = sim::from_sec(2);
  }
  return mc;
}

/// The paper's single-machine experiments as one sweep: the fig3 p x L
/// cpuburn grid, the fig4 technique comparison, the table1 SPEC profiles, a
/// warm-start block whose points share warmup prefixes, and fig6-style web
/// QoS points (the grid's only request latencies).
std::vector<runner::RunSpec> paper_grid_specs(const Options& opt) {
  const harness::MeasurementConfig mc = grid_measurement(opt.smoke);
  std::vector<runner::RunSpec> specs;
  const auto add = [&](const std::string& key,
                       harness::ExperimentRunner::WorkloadFactory factory,
                       runner::ActuationSpec act, sim::SimTime warmup = 0) {
    runner::RunSpec s;
    s.workload_key = key;
    s.workload = std::move(factory);
    s.actuation = act;
    s.measurement = mc;
    s.warmup = warmup;
    s.seed = opt.seed;
    specs.push_back(std::move(s));
  };
  const auto cpuburn = [] {
    return std::make_unique<workload::CpuBurnFleet>(4);
  };
  const auto spec_fleet = [](const std::string& name) {
    const workload::SpecProfile profile = *workload::find_spec_profile(name);
    return harness::ExperimentRunner::WorkloadFactory([profile] {
      return std::make_unique<workload::SpecFleet>(profile, 4);
    });
  };
  const auto web = [] { return std::make_unique<workload::WebWorkload>(); };
  using Act = runner::ActuationSpec;

  const std::vector<double> fig3_p =
      opt.smoke ? std::vector<double>{0.5} : std::vector<double>{.1, .25, .5, .75};
  const std::vector<double> fig3_l =
      opt.smoke ? std::vector<double>{10}
                : std::vector<double>{1, 2, 5, 10, 25, 50, 75, 100};
  add("cpuburn:4", cpuburn, Act::none());
  for (const double l : fig3_l) {
    for (const double p : fig3_p) {
      add("cpuburn:4", cpuburn, Act::global(p, sim::from_ms(l)));
    }
  }

  // fig4: Dimetrodon (Bernoulli and stratified) vs the VFS ladder vs p4tcc.
  const std::vector<double> fig4_p =
      opt.smoke ? std::vector<double>{0.25} : std::vector<double>{.25, .5, .9};
  const std::vector<double> fig4_l =
      opt.smoke ? std::vector<double>{5} : std::vector<double>{5, 25, 100};
  for (const double p : fig4_p) {
    for (const double l : fig4_l) {
      add("cpuburn:4", cpuburn, Act::global_stratified(p, sim::from_ms(l)));
    }
  }
  const std::size_t vfs_levels = sched::MachineConfig{}.dvfs.num_levels();
  for (std::size_t level = 1; level < vfs_levels; level += opt.smoke ? 4 : 1) {
    add("cpuburn:4", cpuburn, Act::vfs(level));
  }
  for (int step = 7; step >= 2; step -= opt.smoke ? 5 : 1) {
    add("cpuburn:4", cpuburn, Act::tcc(static_cast<std::size_t>(step)));
  }

  // table1: each SPEC profile's baseline and a p x L grid.
  const std::vector<std::string> table1 =
      opt.smoke ? std::vector<std::string>{"gcc"}
                : std::vector<std::string>{"calculix", "namd", "dealII",
                                           "bzip2", "gcc", "astar"};
  const std::vector<double> t1_p =
      opt.smoke ? std::vector<double>{0.5} : std::vector<double>{.25, .5, .75};
  const std::vector<double> t1_l =
      opt.smoke ? std::vector<double>{10}
                : std::vector<double>{5, 10, 25, 50, 100};
  for (const std::string& name : table1) {
    const std::string key = "spec:" + name + ":4";
    add(key, spec_fleet(name), Act::none());
    for (const double p : t1_p) {
      for (const double l : t1_l) {
        add(key, spec_fleet(name), Act::global(p, sim::from_ms(l)));
      }
    }
  }

  // Warm start: points sharing a (workload, seed, warmup) prefix fork from
  // one snapshot. SPEC behaviors cannot be snapshotted, so both prefixes
  // are cpuburn.
  const auto cpuburn2 = [] {
    return std::make_unique<workload::CpuBurnFleet>(2);
  };
  const sim::SimTime warmup = opt.smoke ? sim::from_ms(500) : sim::from_sec(20);
  const std::vector<double> warm_p =
      opt.smoke ? std::vector<double>{0.5}
                : std::vector<double>{.1, .25, .5, .75};
  for (const double p : warm_p) {
    for (const double l : {5.0, 25.0}) {
      add("cpuburn:4", cpuburn, Act::global(p, sim::from_ms(l)), warmup);
    }
    add("cpuburn:2", cpuburn2, Act::global(p, sim::from_ms(10)), warmup);
  }

  // fig6: closed-loop web serving under injection.
  add("web:440", web, Act::none());
  const std::vector<std::pair<double, double>> web_points =
      opt.smoke ? std::vector<std::pair<double, double>>{{0.25, 10}}
                : std::vector<std::pair<double, double>>{
                      {0.25, 10}, {0.5, 10}, {0.75, 10}, {0.5, 50}, {0.75, 50}};
  for (const auto& [p, l] : web_points) {
    add("web:440", web, Act::global(p, sim::from_ms(l)));
  }
  return specs;
}

// --- one timed run per workload -----------------------------------------------

/// Host cost and modelled outputs of one timed call.
struct RunSample {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::string> problems;  // failed checks

  // Fleet runs.
  cluster::ClusterResult fleet;
  // Observed only where the benchmark owns the Cluster object.
  bool cluster_visible = false;
  std::uint64_t outstanding = 0;
  std::uint64_t machine_advances = 0;
  std::uint64_t sim_events = 0;
  // Traced fleet runs: pick timings.
  std::uint64_t picks = 0;
  double pick_sum_ns = 0.0;
  double pick_p99_ns = 0.0;

  // Sweep runs.
  runner::SweepResult sweep;
};

void check_fleet_conservation(RunSample& s) {
  const cluster::ClusterResult& r = s.fleet;
  std::uint64_t node_completed = 0;
  for (const cluster::NodeStats& n : r.nodes) node_completed += n.completed;
  if (node_completed != r.completed) {
    s.problems.push_back("per-node completions do not sum to the fleet's");
  }
  const std::uint64_t shed = r.counters.requests_shed;
  if (s.cluster_visible) {
    if (r.offered != r.completed + s.outstanding + shed) {
      s.problems.push_back(
          "offered != completed + outstanding + shed (" +
          std::to_string(r.offered) + " != " + std::to_string(r.completed) +
          " + " + std::to_string(s.outstanding) + " + " +
          std::to_string(shed) + ")");
    }
  } else if (r.completed + shed > r.offered) {
    s.problems.push_back("completed + shed exceeds offered");
  }
  if (r.offered == 0 || r.completed == 0) {
    s.problems.push_back("the fleet served no requests");
  }
}

/// Read the cluster-side counters the result does not carry, and check the
/// fleet advanced on the lanes it was given.
void observe_cluster(cluster::Cluster& c, std::size_t lanes, RunSample& s) {
  s.cluster_visible = true;
  if (c.fleet_lanes() != lanes) {
    s.problems.push_back("fleet resolved " + std::to_string(c.fleet_lanes()) +
                         " lanes, asked for " + std::to_string(lanes));
  }
  s.machine_advances = c.machine_advances();
  for (std::size_t i = 0; i < c.num_nodes(); ++i) {
    s.outstanding += c.outstanding(i);
    s.sim_events += c.machine(i).simulator().events_executed();
  }
}

void observe_picks(const TimedBalancer& b, RunSample& s) {
  s.picks = b.ns().count();
  s.pick_sum_ns = b.ns().sum();
  s.pick_p99_ns = b.ns().percentile(99.0);
}

/// Median host seconds of `repeats` calls of `build`. Set-up repeats within
/// a run so that its time is a median too; the scenario and grid specs take
/// microseconds to build, so they repeat more often than a 1000-node cluster.
template <typename Fn>
double repeated_setup_s(int repeats, Fn build) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = wall_now();
    build();
    samples.push_back(wall_now() - t0);
  }
  return median(samples);
}

RunSample run_fleet_1000(const Options& opt, std::size_t lanes, bool traced) {
  RunSample s;
  std::unique_ptr<cluster::Cluster> c;
  TimedBalancer* timed = nullptr;
  sim::SimTime duration = 0;
  {
    ScopedSpan span("setup: FleetSpec + Cluster construction");
    s.setup_s = repeated_setup_s(5, [&] {
      c.reset();  // one fleet in memory at a time
      cluster::ClusterRunSpec crs = fleet_1000_spec(opt, lanes);
      duration = crs.duration;
      std::unique_ptr<cluster::LoadBalancer> policy =
          cluster::make_policy(crs.policy, crs.injection_threshold);
      if (traced) {
        auto wrapped = std::make_unique<TimedBalancer>(std::move(policy));
        timed = wrapped.get();
        policy = std::move(wrapped);
      }
      c = std::make_unique<cluster::Cluster>(std::move(crs.cluster),
                                             std::move(policy));
    });
  }
  const double t1 = wall_now();
  const double c1 = cpu_now();
  {
    ScopedSpan span("Cluster::run");
    s.fleet = c->run(duration);
  }
  s.wall_s = wall_now() - t1;
  s.cpu_s = cpu_now() - c1;
  observe_cluster(*c, lanes, s);
  if (timed != nullptr) observe_picks(*timed, s);
  check_fleet_conservation(s);
  return s;
}

/// Drives the script through the Cluster admin surface exactly as
/// ScenarioEngine::run does, so picks can be timed through the balancer.
/// The checks require its modelled outputs to equal the engine's bit for
/// bit.
cluster::ClusterResult replay_script(cluster::Cluster& c,
                                     const scenario::ScenarioSpec& spec) {
  std::vector<const scenario::Directive*> order;
  for (const scenario::Directive& d : spec.script.directives) {
    order.push_back(&d);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const scenario::Directive* a,
                      const scenario::Directive* b) { return a->at < b->at; });
  const sim::SimTime duration = spec.base.duration;
  cluster::ClusterResult result;
  sim::SimTime t = 0;
  for (const scenario::Directive* d : order) {
    if (d->at < 0 || d->at > duration) continue;
    if (d->at > t) {
      ScopedSpan span("Cluster::run (segment)");
      result = c.run(d->at - t);
      t = d->at;
    }
    ScopedSpan span("scenario directive");
    std::uint32_t node = d->node;
    using K = scenario::DirectiveKind;
    switch (d->kind) {
      case K::kDrain: c.admin_drain(d->node); break;
      case K::kUndrain: c.admin_undrain(d->node); break;
      case K::kRemove: c.admin_remove(d->node); break;
      case K::kJoin:
        node = static_cast<std::uint32_t>(c.admin_join(d->join_spec, d->warmup));
        break;
      case K::kSetInjection:
        c.admin_set_injection(d->node, d->probability, d->quantum);
        break;
      case K::kRetuneGovernor: c.admin_retune_governor(d->node, d->governor); break;
      case K::kSetFan: c.admin_set_fan(d->node, d->fan_fraction); break;
      case K::kCracSet: c.set_crac_supply(d->crac_c); break;
      case K::kFailpoint: break;
    }
    c.tracer().scenario_directive(
        d->at, static_cast<std::uint8_t>(d->kind), node,
        static_cast<std::uint64_t>(d - spec.script.directives.data()));
  }
  ScopedSpan span("Cluster::run (segment)");
  return c.run(duration - t);
}

RunSample run_churn(const Options& opt, std::size_t lanes, bool traced) {
  RunSample s;
  if (!traced) {
    std::unique_ptr<scenario::ScenarioEngine> engine;
    {
      ScopedSpan span("setup: ScenarioSpec + ScenarioEngine construction");
      s.setup_s = repeated_setup_s(15, [&] {
        engine =
            std::make_unique<scenario::ScenarioEngine>(churn_spec(opt, lanes));
      });
    }
    const double t1 = wall_now();
    const double c1 = cpu_now();
    {
      ScopedSpan span("ScenarioEngine::run");
      s.fleet = engine->run().result;
    }
    s.wall_s = wall_now() - t1;
    s.cpu_s = cpu_now() - c1;
    check_fleet_conservation(s);
    return s;
  }
  // ScenarioEngine::run builds and destroys its cluster, so the traced timed
  // call does too; traced and untraced walls then cover the same work.
  const scenario::ScenarioSpec spec = churn_spec(opt, lanes);
  const double t1 = wall_now();
  const double c1 = cpu_now();
  {
    ScopedSpan span("scenario script replay");
    std::unique_ptr<cluster::Cluster> c;
    auto wrapped = std::make_unique<TimedBalancer>(cluster::make_policy(
        spec.base.policy, spec.base.injection_threshold));
    const TimedBalancer& timed = *wrapped;
    {
      ScopedSpan build("Cluster construction");
      c = std::make_unique<cluster::Cluster>(spec.base.cluster,
                                             std::move(wrapped));
    }
    s.fleet = replay_script(*c, spec);
    observe_cluster(*c, lanes, s);
    observe_picks(timed, s);
    c.reset();  // the engine's cluster dies inside its run() as well
  }
  s.wall_s = wall_now() - t1;
  s.cpu_s = cpu_now() - c1;
  check_fleet_conservation(s);
  return s;
}

RunSample run_paper_grid(const Options& opt, std::size_t threads) {
  RunSample s;
  std::vector<runner::RunSpec> specs;
  std::unique_ptr<runner::SweepEngine> engine;
  {
    ScopedSpan span("setup: grid specs + SweepEngine construction");
    s.setup_s = repeated_setup_s(15, [&] {
      specs = paper_grid_specs(opt);
      runner::SweepEngineConfig cfg;
      cfg.threads = threads;
      cfg.use_cache = false;
      cfg.progress = false;
      cfg.metrics_json_path.clear();
      engine = std::make_unique<runner::SweepEngine>(sched::MachineConfig{},
                                                     cfg);
    });
  }
  const double t1 = wall_now();
  const double c1 = cpu_now();
  {
    ScopedSpan span("SweepEngine::run");
    s.sweep = engine->run(specs);
  }
  s.wall_s = wall_now() - t1;
  s.cpu_s = cpu_now() - c1;

  const runner::MetricsSnapshot& m = s.sweep.metrics;
  for (const runner::RunError& e : s.sweep.errors) {
    s.problems.push_back("RunError on point " + std::to_string(e.spec_index) +
                         " (" + e.spec_label + "): " + e.what);
  }
  if (m.cache_hits != 0) {
    s.problems.push_back("the result cache answered " +
                         std::to_string(m.cache_hits) + " point(s)");
  }
  if (m.executed != specs.size()) {
    s.problems.push_back("simulated " + std::to_string(m.executed) + " of " +
                         std::to_string(specs.size()) + " points");
  }
  return s;
}

RunSample run_once(const Options& opt, std::size_t lanes, bool traced) {
  if (opt.workload == "fleet-1000") return run_fleet_1000(opt, lanes, traced);
  if (opt.workload == "fleet-100-churn") return run_churn(opt, lanes, traced);
  return run_paper_grid(opt, lanes);
}

/// run_once behind an exception boundary: a throw is a failed run.
RunSample run_guarded(const Options& opt, std::size_t lanes, bool traced) {
  try {
    return run_once(opt, lanes, traced);
  } catch (const std::exception& e) {
    RunSample s;
    s.problems.push_back(std::string("threw: ") + e.what());
    return s;
  } catch (...) {
    RunSample s;
    s.problems.push_back("threw a non-std exception");
    return s;
  }
}

bool same_outputs(const RunSample& a, const RunSample& b) {
  if (a.sweep.records.size() != b.sweep.records.size()) return false;
  for (std::size_t i = 0; i < a.sweep.records.size(); ++i) {
    if (!same_record(a.sweep.records[i], b.sweep.records[i])) return false;
  }
  return same_cluster_result(a.fleet, b.fleet);
}

// --- modelled results -----------------------------------------------------------

bool is_fleet(const Options& opt) { return opt.workload != "paper-grid"; }

/// Label of the grid's web point whose p99 is reported: fig6's lightest
/// injection setting. Heavier settings have tails too seed-sensitive to
/// guard.
constexpr const char* kGridP99Point = "dimetrodon[p=0.25,L=10ms]";

/// Simulated p99 latency: the fleet's, or that of the grid's kGridP99Point
/// web point.
double sim_p99_s(const RunSample& s) {
  if (s.sweep.records.empty()) return s.fleet.qos.p99_latency_s;
  for (const runner::RunRecord& r : s.sweep.records) {
    if (r.result.qos && r.result.label == kGridP99Point) {
      return r.result.qos->p99_latency_s;
    }
  }
  return 0.0;
}

/// Hottest exact die temperature: the fleet's peak, or the grid's hottest
/// window average.
double sim_peak_c(const RunSample& s) {
  if (s.sweep.records.empty()) return s.fleet.fleet_peak_exact_c;
  double hottest = 0.0;
  for (const runner::RunRecord& r : s.sweep.records) {
    hottest = std::max(hottest, r.result.avg_exact_temp_c);
  }
  return hottest;
}

// --- reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

void report(const Options& opt, const Checks& checks,
            const std::vector<Metric>& metrics) {
  std::printf("\n%s (seed %llu, %s pass)\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  failed_runs: %zu of %zu attempted\n", checks.failed,
              checks.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false", checks.attempted,
              checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Repeat `one` until the time budget is spent (at least `min_runs` times),
/// stopping early when another run would overshoot the budget.
template <typename Fn>
void repeat_for(const Options& opt, std::size_t min_runs, Fn one) {
  const double start = wall_now();
  std::size_t runs = 0;
  double longest = 0.0;
  while (true) {
    const double t0 = wall_now();
    one();
    ++runs;
    longest = std::max(longest, wall_now() - t0);
    const double spent = wall_now() - start;
    if (runs >= min_runs && spent + longest > opt.seconds) break;
  }
}

/// End-to-end pass: the timed call on a fresh build each time, tracing off.
std::vector<Metric> untraced_pass(const Options& opt, Checks& checks) {
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> cpu;
  RunSample first;
  bool have_first = false;
  std::size_t index = 0;
  repeat_for(opt, opt.smoke ? 1 : 3, [&] {
    RunSample s = run_guarded(opt, opt.lanes, false);
    if (s.problems.empty()) {
      if (!have_first) {
        first = s;
        have_first = true;
      } else if (!same_outputs(first, s)) {
        s.problems.push_back("modelled outputs differ from the first run's");
      }
      setup.push_back(s.setup_s);
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
    }
    checks.record("run " + std::to_string(index++), s.problems);
  });
  return {
      {"wall_s", median(wall), "s", describe_samples(wall)},
      {"cpu_s", median(cpu), "s", describe_samples(cpu)},
      {"peak_rss_mb", peak_rss_kb() / 1024.0, "MB", "process peak"},
      {"setup_s", median(setup), "s", describe_samples(setup)},
      {"sim_p99_s", sim_p99_s(first), "sim_s", "modelled"},
      {"sim_peak_c", sim_peak_c(first), "C", "modelled"},
  };
}

/// Per-layer pass: each repetition runs the workload untraced at full lanes,
/// traced (picks timed) at full lanes and untraced at one lane, and requires
/// all three to agree bit for bit. Spans are recorded around all three.
std::vector<Metric> traced_pass(const Options& opt, Checks& checks) {
  const double rss_start_kb = current_rss_kb();
  std::vector<double> pick_ns, pick_p99, pick_share, other_s, speedup,
      lane_util, overhead, sweep_s, sim_rate, runner_util;
  RunSample traced_first;
  bool have = false;
  std::size_t index = 0;
  repeat_for(opt, 1, [&] {
    const std::string tag = "repetition " + std::to_string(index++);
    const auto spanned = [&](const char* name, std::size_t lanes, bool traced) {
      ScopedSpan span(name);
      return run_guarded(opt, lanes, traced);
    };
    RunSample untraced = spanned("untraced run", opt.lanes, false);
    RunSample traced = spanned("traced run", opt.lanes, true);
    RunSample serial = spanned("1-lane run", 1, false);
    const bool ok = untraced.problems.empty() && traced.problems.empty() &&
                    serial.problems.empty();
    if (ok && !same_outputs(untraced, traced)) {
      traced.problems.push_back("traced outputs differ from untraced");
    }
    if (ok && !same_outputs(untraced, serial)) {
      serial.problems.push_back("1-lane outputs differ from " +
                                std::to_string(opt.lanes) + "-lane");
    }
    if (ok && have && !same_outputs(traced_first, traced)) {
      traced.problems.push_back("outputs differ from the first repetition's");
    }
    checks.record(tag + " untraced", untraced.problems);
    checks.record(tag + " traced", traced.problems);
    checks.record(tag + " 1-lane", serial.problems);
    if (!untraced.problems.empty() || !traced.problems.empty() ||
        !serial.problems.empty()) {
      return;
    }
    if (!have) {
      traced_first = traced;
      have = true;
    }
    const double pick_s = 1e-9 * traced.pick_sum_ns;
    pick_ns.push_back(traced.picks > 0 ? traced.pick_sum_ns /
                                             static_cast<double>(traced.picks)
                                       : 0.0);
    pick_p99.push_back(traced.pick_p99_ns);
    pick_share.push_back(pick_s / traced.wall_s);
    other_s.push_back(traced.wall_s - pick_s);
    overhead.push_back(traced.wall_s - untraced.wall_s);
    if (is_fleet(opt)) {
      speedup.push_back(serial.wall_s / untraced.wall_s);
      lane_util.push_back(untraced.cpu_s / (static_cast<double>(opt.lanes) *
                                            untraced.wall_s));
    } else {
      const runner::MetricsSnapshot& m = untraced.sweep.metrics;
      sweep_s.push_back(m.wall_seconds);
      sim_rate.push_back(m.sim_seconds_per_second);
      runner_util.push_back(untraced.cpu_s / (static_cast<double>(opt.lanes) *
                                              untraced.wall_s));
    }
  });

  // Counts are exact; they come from the first traced repetition.
  const RunSample& t = traced_first;
  const cluster::ClusterResult& r = t.fleet;
  const runner::MetricsSnapshot& m = t.sweep.metrics;
  const obs::CounterTotals& k = is_fleet(opt) ? r.counters : m.counters;
  // Rates are per simulated node-second: fleet nodes x run length, or the
  // grid's measurement windows (the counters cover only those windows).
  double node_s = 0.0;
  double arrivals = 0.0;
  if (is_fleet(opt)) {
    node_s = r.duration_s * static_cast<double>(r.nodes.size());
    arrivals = static_cast<double>(r.offered);
  } else {
    std::size_t windows = 0;
    for (const runner::RunRecord& rec : t.sweep.records) {
      if (rec.ok()) ++windows;
    }
    node_s = static_cast<double>(windows) *
             sim::to_sec(grid_measurement(opt.smoke).measure_window);
    arrivals = static_cast<double>(k.requests_completed);
  }
  const auto per_node_s = [&](double count) {
    return node_s > 0.0 ? count / node_s : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double nodes = is_fleet(opt) ? static_cast<double>(r.nodes.size()) : 0;
  const double picks = static_cast<double>(t.picks);
  const std::string reps = "n=" + std::to_string(std::max<std::size_t>(
                                      pick_ns.size(), sweep_s.size())) +
                           " repetitions";
  return {
      {"cluster.pick_ns", median(pick_ns), "ns/pick",
       "mean pick time over " + std::to_string(t.picks) + " picks; " + reps},
      {"cluster.pick_p99_ns", median(pick_p99), "ns/pick", reps},
      {"cluster.pick_share", median(pick_share), "fraction", reps},
      {"cluster.picks_per_arrival", ratio(picks, arrivals), "ratio", ""},
      {"cluster.other_s", median(other_s), "s", reps},
      {"cluster.lane_speedup", median(speedup), "x",
       "1-lane wall / " + std::to_string(opt.lanes) + "-lane wall"},
      {"cluster.lane_util", median(lane_util), "fraction", ""},
      {"cluster.advances_per_arrival",
       ratio(static_cast<double>(t.machine_advances), arrivals), "ratio", ""},
      {"cluster.rss_kb_per_node",
       ratio(peak_rss_kb() - rss_start_kb, nodes), "KB/node",
       "(peak RSS - RSS before the first build) / nodes"},
      {"thermal.factorizations_per_node_s",
       per_node_s(static_cast<double>(k.thermal_factorizations)), "1/node-s",
       ""},
      {"thermal.evictions_per_node_s",
       per_node_s(static_cast<double>(k.thermal_evictions)), "1/node-s", ""},
      {"thermal.matvecs_per_node_s",
       per_node_s(static_cast<double>(k.thermal_matvecs)), "1/node-s", ""},
      {"thermal.ff_fraction",
       ratio(static_cast<double>(k.thermal_fast_forward_steps),
             static_cast<double>(k.thermal_substeps)),
       "fraction", ""},
      {"sched.events_per_node_s", per_node_s(static_cast<double>(t.sim_events)),
       "1/node-s", "fleets only"},
      {"sched.dispatches_per_node_s",
       per_node_s(static_cast<double>(k.dispatches)), "1/node-s", ""},
      {"sched.injections_per_node_s",
       per_node_s(static_cast<double>(k.injections)), "1/node-s", ""},
      {"workload.arrivals_per_node_s", per_node_s(arrivals), "1/node-s",
       is_fleet(opt) ? "offered" : "web completions"},
      {"control.governor_samples_per_node_s",
       per_node_s(static_cast<double>(k.governor_samples)), "1/node-s", ""},
      {"control.duty_changes_per_node_s",
       per_node_s(static_cast<double>(k.duty_changes)), "1/node-s", ""},
      {"scenario.directives", static_cast<double>(k.scenario_directives),
       "count", ""},
      {"scenario.requests_rehomed", static_cast<double>(k.requests_rehomed),
       "count", ""},
      {"scenario.node_joins", static_cast<double>(k.node_joins), "count", ""},
      {"runner.sweep_s", median(sweep_s), "s/sweep", reps},
      {"runner.sim_s_per_s", median(sim_rate), "sim_s/s", reps},
      {"runner.lane_util", median(runner_util), "fraction", ""},
      {"runner.snapshot_builds", static_cast<double>(k.snapshot_builds),
       "count", ""},
      {"runner.snapshot_forks", static_cast<double>(k.snapshot_forks), "count",
       ""},
      {"harness.sim_s_per_run",
       ratio(m.sim_seconds_done, static_cast<double>(m.executed)), "sim_s/run",
       ""},
      {"trace.overhead_s", median(overhead), "s",
       "traced wall - untraced wall; " + reps},
  };
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet-1000|fleet-100-churn|paper-grid> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage(("unknown or incomplete argument: " + arg).c_str());
    }
  }
  if (opt.workload != "fleet-1000" && opt.workload != "fleet-100-churn" &&
      opt.workload != "paper-grid") {
    return usage("unknown --workload");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  opt.lanes = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);

  Checks checks;
  SpanLog spans;
  if (opt.trace) g_spans = &spans;
  const std::vector<Metric> metrics =
      opt.trace ? traced_pass(opt, checks) : untraced_pass(opt, checks);
  if (opt.trace && !opt.trace_out.empty() && !spans.write_chrome(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  report(opt, checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}
