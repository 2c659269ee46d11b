// SweepEngine contract tests: parallel == serial bit-for-bit, the on-disk
// cache round-trips records and is invalidated by any spec change, and
// damaged cache entries are recomputed rather than trusted.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "runner/result_cache.hpp"
#include "runner/sweep_engine.hpp"
#include "runner/thread_pool.hpp"
#include "sim/rng.hpp"
#include "workload/cpuburn.hpp"

namespace dimetrodon::runner {
namespace {

namespace fs = std::filesystem;

// Small settle/window so one measured run is a few tens of milliseconds.
harness::MeasurementConfig fast_measurement() {
  harness::MeasurementConfig mc;
  mc.max_settle_iterations = 2;
  mc.settle_chunk = sim::from_sec(4);
  mc.post_settle_run = sim::from_sec(1);
  mc.measure_window = sim::from_sec(5);
  return mc;
}

RunSpec cpuburn_spec(double p, sim::SimTime quantum, std::uint64_t seed) {
  RunSpec spec;
  spec.workload_key = "cpuburn:2";
  spec.workload = [] { return std::make_unique<workload::CpuBurnFleet>(2); };
  spec.actuation = p > 0.0 ? ActuationSpec::global(p, quantum)
                           : ActuationSpec::none();
  spec.measurement = fast_measurement();
  spec.seed = seed;
  return spec;
}

// The 12-point grid the determinism tests sweep: 4 configurations x 3
// derived seed streams.
std::vector<RunSpec> test_grid() {
  std::vector<RunSpec> specs;
  const std::vector<std::pair<double, double>> grid = {
      {0.0, 0.0}, {0.25, 10.0}, {0.5, 25.0}, {0.75, 50.0}};
  for (const auto& [p, l_ms] : grid) {
    for (std::uint64_t stream = 0; stream < 3; ++stream) {
      specs.push_back(cpuburn_spec(p, sim::from_ms(l_ms),
                                   sim::derive_stream_seed(0xabc, stream)));
    }
  }
  return specs;
}

SweepEngineConfig quiet_config(std::size_t threads, std::string cache_dir) {
  SweepEngineConfig cfg;
  cfg.threads = threads;
  cfg.use_cache = !cache_dir.empty();
  cfg.cache_dir = std::move(cache_dir);
  cfg.progress = false;
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dimetrodon_" + name);
  fs::remove_all(dir);
  return dir.string();
}

void expect_identical(const harness::RunResult& a,
                      const harness::RunResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.idle_sensor_temp_c, b.idle_sensor_temp_c);
  EXPECT_EQ(a.idle_exact_temp_c, b.idle_exact_temp_c);
  EXPECT_EQ(a.avg_sensor_temp_c, b.avg_sensor_temp_c);
  EXPECT_EQ(a.avg_exact_temp_c, b.avg_exact_temp_c);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.injected_idle_fraction, b.injected_idle_fraction);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.qos.has_value(), b.qos.has_value());
  if (a.qos.has_value() && b.qos.has_value()) {
    EXPECT_EQ(a.qos->total, b.qos->total);
    EXPECT_EQ(a.qos->mean_latency_s, b.qos->mean_latency_s);
    EXPECT_EQ(a.qos->p50_latency_s, b.qos->p50_latency_s);
    EXPECT_EQ(a.qos->p95_latency_s, b.qos->p95_latency_s);
    EXPECT_EQ(a.qos->p99_latency_s, b.qos->p99_latency_s);
  }
  EXPECT_TRUE(a.counters == b.counters);
}

TEST(SweepEngine, ParallelMatchesSerialBitForBit) {
  const auto specs = test_grid();
  SweepEngine serial(sched::MachineConfig{}, quiet_config(1, ""));
  SweepEngine parallel(sched::MachineConfig{}, quiet_config(4, ""));

  const auto serial_records = serial.run(specs);
  const auto parallel_records = parallel.run(specs);

  ASSERT_EQ(serial_records.size(), specs.size());
  ASSERT_EQ(parallel_records.size(), specs.size());
  EXPECT_EQ(serial.last_metrics().executed, specs.size());
  EXPECT_EQ(parallel.last_metrics().executed, specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial_records[i].result, parallel_records[i].result);
  }
}

TEST(SweepEngine, SecondRunServedEntirelyFromCache) {
  const auto specs = test_grid();
  const std::string dir = fresh_dir("cache_roundtrip");
  SweepEngine engine(sched::MachineConfig{}, quiet_config(2, dir));

  const auto cold = engine.run(specs);
  EXPECT_EQ(engine.last_metrics().executed, specs.size());
  EXPECT_EQ(engine.last_metrics().cache_hits, 0u);

  const auto warm = engine.run(specs);
  EXPECT_EQ(engine.last_metrics().executed, 0u);
  EXPECT_EQ(engine.last_metrics().cache_hits, specs.size());
  EXPECT_EQ(engine.last_metrics().cache_hit_rate, 1.0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(cold[i].result, warm[i].result);
  }
  fs::remove_all(dir);
}

TEST(SweepEngine, CacheSharedAcrossEngineInstances) {
  const auto specs = test_grid();
  const std::string dir = fresh_dir("cache_shared");
  SweepEngine first(sched::MachineConfig{}, quiet_config(1, dir));
  const auto cold = first.run(specs);

  SweepEngine second(sched::MachineConfig{}, quiet_config(4, dir));
  const auto warm = second.run(specs);
  EXPECT_EQ(second.last_metrics().executed, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(cold[i].result, warm[i].result);
  }
  fs::remove_all(dir);
}

TEST(SweepEngine, KeyChangesWithEverySpecField) {
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, ""));
  const RunSpec base = cpuburn_spec(0.5, sim::from_ms(25), 0x5eed);
  const CacheKey key = engine.key_for(base);

  RunSpec changed_p = base;
  changed_p.actuation = ActuationSpec::global(0.25, sim::from_ms(25));
  EXPECT_FALSE(engine.key_for(changed_p) == key);

  RunSpec changed_l = base;
  changed_l.actuation = ActuationSpec::global(0.5, sim::from_ms(50));
  EXPECT_FALSE(engine.key_for(changed_l) == key);

  RunSpec changed_kind = base;
  changed_kind.actuation = ActuationSpec::global_stratified(0.5,
                                                           sim::from_ms(25));
  EXPECT_FALSE(engine.key_for(changed_kind) == key);

  RunSpec changed_seed = base;
  changed_seed.seed = 0x5eee;
  EXPECT_FALSE(engine.key_for(changed_seed) == key);

  RunSpec changed_window = base;
  changed_window.measurement.measure_window = sim::from_sec(6);
  EXPECT_FALSE(engine.key_for(changed_window) == key);

  RunSpec changed_poll = base;
  changed_poll.measurement.sensor_poll = sim::from_ms(250);
  EXPECT_FALSE(engine.key_for(changed_poll) == key);

  RunSpec changed_workload = base;
  changed_workload.workload_key = "cpuburn:4";
  EXPECT_FALSE(engine.key_for(changed_workload) == key);

  RunSpec changed_machine = base;
  changed_machine.machine = sched::MachineConfig{};
  changed_machine.machine->idle_cstate = power::CState::kC1;
  EXPECT_FALSE(engine.key_for(changed_machine) == key);

  // An override identical to the engine base is still the same simulation.
  RunSpec same_machine = base;
  same_machine.machine = sched::MachineConfig{};
  EXPECT_TRUE(engine.key_for(same_machine) == key);

  // A different engine base config changes every key.
  sched::MachineConfig other_base;
  other_base.idle_cstate = power::CState::kC1;
  SweepEngine other(other_base, quiet_config(1, ""));
  EXPECT_FALSE(other.key_for(base) == key);
}

TEST(SweepEngine, WarmupIsPartOfTheCacheKey) {
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, ""));
  const RunSpec base = cpuburn_spec(0.5, sim::from_ms(25), 0x5eed);
  RunSpec warm = base;
  warm.warmup = sim::from_sec(120);
  EXPECT_NE(engine.canonical(base), engine.canonical(warm));
  RunSpec warmer = warm;
  warmer.warmup = sim::from_sec(240);
  EXPECT_NE(engine.canonical(warm), engine.canonical(warmer));
  // The prefix identity ignores actuation/measurement: two warm specs that
  // differ only in injection probability share one snapshot...
  RunSpec other_p = warm;
  other_p.actuation = ActuationSpec::global(0.25, sim::from_ms(25));
  EXPECT_EQ(canonical_warm_prefix(warm, engine.base_config()),
            canonical_warm_prefix(other_p, engine.base_config()));
  // ...but a different seed, workload, or warmup does not.
  RunSpec other_seed = warm;
  other_seed.seed = 0xbeef;
  EXPECT_NE(canonical_warm_prefix(warm, engine.base_config()),
            canonical_warm_prefix(other_seed, engine.base_config()));
  EXPECT_NE(canonical_warm_prefix(warm, engine.base_config()),
            canonical_warm_prefix(warmer, engine.base_config()));
}

std::vector<RunSpec> warm_grid(sim::SimTime warmup) {
  std::vector<RunSpec> specs;
  for (const double p : {0.0, 0.25, 0.5, 0.75}) {
    RunSpec s = cpuburn_spec(p, sim::from_ms(25), 0x77);
    s.warmup = warmup;
    specs.push_back(std::move(s));
  }
  return specs;
}

TEST(SweepEngine, WarmSpecsShareOnePrefixSnapshot) {
  const auto specs = warm_grid(sim::from_sec(90));
  SweepEngine engine(sched::MachineConfig{}, quiet_config(2, ""));
  const auto result = engine.run(specs);
  ASSERT_TRUE(result.all_ok());
  // One warmup simulation fed all four measured points.
  EXPECT_EQ(engine.snapshots().size(), 1u);
  EXPECT_EQ(result.metrics.counters.snapshot_builds, 1u);
  EXPECT_EQ(result.metrics.counters.snapshot_forks, specs.size());
}

TEST(SweepEngine, WarmSweepMatchesDirectHarnessBitForBit) {
  // Engine-level fork ≡ replay: a warm sweep point equals the harness
  // running the same warmup inline, with no engine or snapshot cache in the
  // loop — caching is unobservable in results.
  const auto specs = warm_grid(sim::from_sec(90));
  SweepEngine parallel(sched::MachineConfig{}, quiet_config(4, ""));
  const auto swept = parallel.run(specs);
  ASSERT_TRUE(swept.all_ok());
  sched::MachineConfig cfg;
  cfg.seed = 0x77;
  harness::ExperimentRunner runner(cfg, fast_measurement());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    const auto direct = runner.measure_after_warmup(
        specs[i].workload, specs[i].actuation, specs[i].warmup);
    expect_identical(swept[i].result, direct);
  }
}

TEST(SweepEngine, CustomTagIsTheCustomRunIdentity) {
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, ""));
  RunSpec a;
  a.kind = RunSpec::Kind::kCustom;
  a.custom_tag = "experiment[x=1]";
  a.seed = 7;
  RunSpec b = a;
  b.custom_tag = "experiment[x=2]";
  EXPECT_FALSE(engine.key_for(a) == engine.key_for(b));
  b.custom_tag = a.custom_tag;
  EXPECT_TRUE(engine.key_for(a) == engine.key_for(b));
}

TEST(SweepEngine, CustomRunsCacheSamplesAndExtras) {
  const std::string dir = fresh_dir("cache_custom");
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, dir));
  RunSpec spec;
  spec.kind = RunSpec::Kind::kCustom;
  spec.custom_tag = "custom-cache-roundtrip";
  spec.seed = 42;
  spec.custom = [](const RunSpec& s, const sched::MachineConfig& cfg,
                   const RunContext&) {
    RunRecord rec;
    rec.samples = {1.5, 2.5, static_cast<double>(cfg.seed)};
    rec.extra = {{"seed", static_cast<double>(s.seed)}, {"pi", 3.14159}};
    rec.window.completion_seconds = 9.75;
    return rec;
  };

  const auto cold = engine.run({spec}).at(0);
  EXPECT_EQ(engine.last_metrics().executed, 1u);
  const auto warm = engine.run({spec}).at(0);
  EXPECT_EQ(engine.last_metrics().cache_hits, 1u);
  EXPECT_EQ(warm.samples, cold.samples);
  EXPECT_EQ(warm.extra, cold.extra);
  EXPECT_EQ(warm.window.completion_seconds, cold.window.completion_seconds);
  EXPECT_EQ(warm.metric("pi"), 3.14159);
  fs::remove_all(dir);
}

// Damaged cache entries must load as misses and be recomputed (and the
// recompute repairs the entry in place).
class CacheDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each TEST_F as its own parallel process.
    dir_ = fresh_dir(std::string("cache_damage_") +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    spec_ = cpuburn_spec(0.5, sim::from_ms(10), 0x5eed);
    engine_ = std::make_unique<SweepEngine>(sched::MachineConfig{},
                                            quiet_config(1, dir_));
    engine_->run({spec_});
    ASSERT_EQ(engine_->last_metrics().executed, 1u);
    ResultCache cache(dir_, true);
    path_ = cache.path_for(engine_->key_for(spec_));
    ASSERT_TRUE(fs::exists(path_));
  }

  void TearDown() override { fs::remove_all(dir_); }

  void overwrite(const std::string& content) {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  std::string read_file() {
    std::ifstream in(path_);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  // Damage the file, then expect a recompute followed by a repaired hit.
  void expect_recomputed() {
    engine_->run({spec_});
    EXPECT_EQ(engine_->last_metrics().executed, 1u);
    EXPECT_EQ(engine_->last_metrics().cache_hits, 0u);
    engine_->run({spec_});
    EXPECT_EQ(engine_->last_metrics().cache_hits, 1u);
  }

  std::string dir_;
  std::string path_;
  RunSpec spec_;
  std::unique_ptr<SweepEngine> engine_;
};

TEST_F(CacheDamageTest, TruncatedFileIsRecomputed) {
  const std::string full = read_file();
  overwrite(full.substr(0, full.size() / 2));
  expect_recomputed();
}

TEST_F(CacheDamageTest, GarbageFileIsRecomputed) {
  overwrite("not a cache file at all\n");
  expect_recomputed();
}

TEST_F(CacheDamageTest, FlippedPayloadByteIsRecomputed) {
  std::string full = read_file();
  const auto pos = full.find("avg_sensor_temp_c");
  ASSERT_NE(pos, std::string::npos);
  full[pos] = 'X';  // breaks the payload checksum
  overwrite(full);
  expect_recomputed();
}

TEST_F(CacheDamageTest, WrongSpecEchoIsTreatedAsCollision) {
  // Same key file, but the embedded canonical spec disagrees — as a true
  // 128-bit collision would. Must be a miss, never a wrong result.
  std::string full = read_file();
  const auto pos = full.find("seed=5eed");
  ASSERT_NE(pos, std::string::npos);
  full.replace(pos, 9, "seed=5eef");
  overwrite(full);
  expect_recomputed();
}

TEST(ResultCacheSerialization, RoundTripsAllRecordFields) {
  RunRecord rec;
  rec.result.label = "p=0.50 L=25ms";
  rec.result.avg_sensor_temp_c = 51.0625;
  rec.result.throughput = 0.875;
  rec.result.sim_seconds = 123.456;
  workload::WebWorkload::QosStats qos;
  qos.good = 10;
  qos.tolerable = 12;
  qos.fail = 1;
  qos.total = 13;
  qos.mean_latency_s = 0.625;
  qos.max_latency_s = 5.5;
  // v5 fields: streaming percentiles.
  qos.p50_latency_s = 0.375;
  qos.p95_latency_s = 2.25;
  qos.p99_latency_s = 4.125;
  rec.result.qos = qos;
  rec.result.counters.injections = 42;
  rec.result.counters.injected_idle_ns = 123456789;
  rec.result.counters.requests_completed = 7;
  rec.window.completion_seconds = 7.5;
  rec.window.meter_energy_j = 1234.5;
  rec.samples = {0.1, 0.2, 0.3};
  rec.extra = {{"alpha", 1.0 / 3.0}, {"beta", -0.0}};

  const auto payload = ResultCache::serialize_record(rec);
  const auto parsed = ResultCache::parse_record(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->result.label, rec.result.label);
  EXPECT_EQ(parsed->result.avg_sensor_temp_c, rec.result.avg_sensor_temp_c);
  EXPECT_EQ(parsed->result.throughput, rec.result.throughput);
  EXPECT_EQ(parsed->result.sim_seconds, rec.result.sim_seconds);
  ASSERT_TRUE(parsed->result.qos.has_value());
  EXPECT_EQ(parsed->result.qos->good, rec.result.qos->good);
  EXPECT_EQ(parsed->result.qos->tolerable, rec.result.qos->tolerable);
  EXPECT_EQ(parsed->result.qos->fail, rec.result.qos->fail);
  EXPECT_EQ(parsed->result.qos->total, rec.result.qos->total);
  EXPECT_EQ(parsed->result.qos->mean_latency_s, rec.result.qos->mean_latency_s);
  EXPECT_EQ(parsed->result.qos->max_latency_s, rec.result.qos->max_latency_s);
  EXPECT_EQ(parsed->result.qos->p50_latency_s, rec.result.qos->p50_latency_s);
  EXPECT_EQ(parsed->result.qos->p95_latency_s, rec.result.qos->p95_latency_s);
  EXPECT_EQ(parsed->result.qos->p99_latency_s, rec.result.qos->p99_latency_s);
  EXPECT_TRUE(parsed->result.counters == rec.result.counters);
  EXPECT_EQ(parsed->window.completion_seconds, rec.window.completion_seconds);
  EXPECT_EQ(parsed->window.meter_energy_j, rec.window.meter_energy_j);
  EXPECT_EQ(parsed->samples, rec.samples);
  EXPECT_EQ(parsed->extra, rec.extra);

  // Any truncation of the payload is a parse failure, not a partial record.
  for (const std::size_t cut : {payload.size() / 4, payload.size() / 2,
                                payload.size() - 2}) {
    EXPECT_FALSE(ResultCache::parse_record(payload.substr(0, cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(ResultCacheSerialization, CanonicalSpecRoundTripsHexDoubles) {
  // %a hexfloats make the canonical text bit-exact: two nearby doubles that
  // print identically under %f must still produce distinct canonical specs.
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, ""));
  RunSpec a = cpuburn_spec(0.1, sim::from_ms(25), 1);
  RunSpec b = cpuburn_spec(0.1 + 1e-17, sim::from_ms(25), 1);
  EXPECT_NE(engine.canonical(a), engine.canonical(b));
  EXPECT_FALSE(engine.key_for(a) == engine.key_for(b));
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ZeroThreadsExecutesInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  int count = 0;  // no synchronization needed: inline on this thread
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { ++count; });
  }
  EXPECT_EQ(count, 50);
  pool.wait_idle();
  EXPECT_EQ(pool.steal_count(), 0u);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 20 * (round + 1));
  }
}

TEST(SweepMetrics, CountsHitsAndExecutions) {
  SweepMetrics metrics(4);
  metrics.on_run_started();
  metrics.on_cache_hit();
  metrics.on_run_started();
  metrics.on_run_started();
  metrics.on_run_executed(10.0);
  const auto s = metrics.snapshot();
  EXPECT_EQ(s.total_runs, 4u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.in_flight, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.executed, 1u);
  EXPECT_EQ(s.cache_hit_rate, 0.5);
  EXPECT_EQ(s.sim_seconds_done, 10.0);
  const auto json = SweepMetrics::to_json(s);
  EXPECT_NE(json.find("\"total_runs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hits\": 1"), std::string::npos);
}

}  // namespace
}  // namespace dimetrodon::runner
