#include "runner/sweep_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ios>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "runner/env.hpp"
#include "runner/fault_injection.hpp"
#include "runner/thread_pool.hpp"

namespace dimetrodon::runner {

namespace {

/// Failures worth another attempt: injected transients and the filesystem
/// error classes. Simulation errors are deterministic — the same seed
/// replays to the same throw — so everything else fails immediately.
bool is_transient(const std::exception& e) {
  return dynamic_cast<const fault::TransientError*>(&e) != nullptr ||
         dynamic_cast<const std::system_error*>(&e) != nullptr ||
         dynamic_cast<const std::ios_base::failure*>(&e) != nullptr;
}

/// Human-readable identity of a grid point for RunError reports.
std::string spec_label(const RunSpec& spec) {
  if (spec.kind == RunSpec::Kind::kCustom) return spec.custom_tag;
  std::string label = spec.workload_key;
  label += " / ";
  label += spec.actuation.label();
  return label;
}

}  // namespace

SweepEngineConfig SweepEngineConfig::from_env(const std::string& bench_name) {
  SweepEngineConfig cfg;
  if (const auto t = env_size_t("DIMETRODON_SWEEP_THREADS")) {
    cfg.threads = *t;
  }
  if (const auto c = env_bool("DIMETRODON_SWEEP_CACHE")) {
    cfg.use_cache = *c;
  }
  if (const char* d = std::getenv("DIMETRODON_SWEEP_CACHE_DIR")) {
    if (*d == '\0') {
      warn_env_once("DIMETRODON_SWEEP_CACHE_DIR", d, "a non-empty path");
    } else {
      cfg.cache_dir = d;
    }
  }
  if (const auto p = env_bool("DIMETRODON_SWEEP_PROGRESS")) {
    cfg.progress = *p;
  }
  if (const auto r = env_size_t("DIMETRODON_SWEEP_RETRIES")) {
    cfg.run_retry_limit = static_cast<std::uint32_t>(*r);
  }
  if (!bench_name.empty()) {
    cfg.metrics_json_path = "bench_results/" + bench_name + "_metrics.json";
  }
  return cfg;
}

SweepEngine::SweepEngine(sched::MachineConfig base, SweepEngineConfig config)
    : base_(std::move(base)),
      config_(std::move(config)),
      cache_(config_.cache_dir, config_.use_cache,
             config_.cache_write_retry_limit, config_.retry_backoff_ms) {}

SnapshotCache::Snapshot SnapshotCache::get_or_build(
    const std::string& prefix,
    const std::function<sched::MachineSnapshot()>& build, bool* built) {
  if (built != nullptr) *built = false;
  std::promise<Snapshot> promise;
  std::shared_future<Snapshot> fut;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(prefix);
    if (it != map_.end()) {
      fut = it->second;
    } else {
      fut = promise.get_future().share();
      map_.emplace(prefix, fut);
      builder = true;
    }
  }
  if (!builder) return fut.get();  // blocks until the builder publishes
  try {
    auto snap = std::make_shared<const sched::MachineSnapshot>(build());
    promise.set_value(snap);
    if (built != nullptr) *built = true;
    return snap;
  } catch (...) {
    // Concurrent waiters see the exception through the future; drop the
    // entry so a later run retries instead of inheriting a poisoned one.
    promise.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(mu_);
      map_.erase(prefix);
    }
    throw;
  }
}

std::size_t SnapshotCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

RunRecord SweepEngine::execute(const RunSpec& spec,
                               const sched::MachineConfig& base,
                               SnapshotCache* snapshots,
                               bool* snapshot_built, const RunContext& ctx) {
  if (snapshot_built != nullptr) *snapshot_built = false;
  sched::MachineConfig cfg = spec.machine ? *spec.machine : base;
  cfg.seed = spec.seed;
  if (spec.kind == RunSpec::Kind::kCustom) {
    if (!spec.custom) {
      throw std::logic_error("kCustom RunSpec without a custom function");
    }
    return spec.custom(spec, cfg, ctx);
  }
  if (!spec.workload) {
    throw std::logic_error("kMeasure RunSpec without a workload factory");
  }
  harness::ExperimentRunner runner(cfg, spec.measurement);
  RunRecord rec;
  if (spec.warmup > 0) {
    // Warm start: get-or-build the shared warmup-prefix snapshot, then
    // ALWAYS fork the measured run from it (the builder run forks too, so
    // whether the snapshot came from this call or a cached one is
    // unobservable in the results).
    SnapshotCache::Snapshot snap;
    const auto build = [&] {
      return runner.build_warmup_snapshot(spec.workload, spec.warmup);
    };
    if (snapshots != nullptr) {
      snap = snapshots->get_or_build(canonical_warm_prefix(spec, base), build,
                                     snapshot_built);
    } else {
      snap = std::make_shared<const sched::MachineSnapshot>(build());
      if (snapshot_built != nullptr) *snapshot_built = true;
    }
    rec.result = runner.measure_warm(spec.workload, spec.actuation, *snap);
    return rec;
  }
  rec.result = runner.measure(spec.workload, spec.actuation);
  return rec;
}

SweepResult SweepEngine::run(const std::vector<RunSpec>& specs) {
  SweepResult sweep;
  sweep.records.resize(specs.size());
  std::vector<RunRecord>& results = sweep.records;
  SweepMetrics metrics(specs.size());

  std::size_t threads = config_.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // The pool keeps its full width even when the grid is narrower: runs can
  // fan nested work (cluster fleet advancement) onto the spare lanes via
  // the RunContext. threads==1 executes the grid on the submitting thread
  // in spec order — the serial reference.
  ThreadPool pool(threads <= 1 ? 0 : threads);

  // Nested-parallelism arbitration, passed to every run: a 1-run sweep owns
  // the whole pool, a grid that oversubscribes the pool (2x or more) keeps
  // runs serial inside, anything between shares — work stealing fills the
  // tail as grid lanes drain. Strictly non-semantic (results are
  // bit-identical for every hint), so the heuristic is free to evolve.
  RunContext ctx;
  ctx.pool = pool.num_threads() > 0 ? &pool : nullptr;
  if (pool.num_threads() == 0) {
    ctx.lanes_hint = 1;
  } else if (specs.size() <= 1) {
    ctx.lanes_hint = threads;
  } else if (specs.size() >= 2 * threads) {
    ctx.lanes_hint = 1;
  } else {
    ctx.lanes_hint = 0;
  }

  std::atomic<bool> done{false};
  std::thread reporter;
  if (config_.progress) {
    reporter = std::thread([&] {
      // Redraw ~1 Hz, but poll finer so a fast (all-cached) sweep isn't
      // held up by the reporter.
      int ticks = 0;
      while (!done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (done.load(std::memory_order_relaxed)) break;
        if (++ticks % 20 == 0) {
          std::fprintf(stderr, "[runner] %s\n",
                       SweepMetrics::progress_line(metrics.snapshot()).c_str());
        }
      }
    });
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    pool.submit([&, i] {
      const RunSpec& spec = specs[i];
      metrics.on_run_started();
      const std::string canon = canonical_spec(spec, base_);
      const CacheKey key = CacheKey::of(canon);
      if (auto hit = cache_.load(key, canon)) {
        results[i] = std::move(*hit);
        metrics.add_counters(results[i].result.counters);
        metrics.on_cache_hit();
        return;
      }
      // Exception boundary: a throw from anywhere below — the simulator, a
      // custom run function, or an injected failpoint — becomes a RunError
      // on this record, never a dead sweep. Transient failures get
      // config_.run_retry_limit extra attempts with deterministic linear
      // backoff; everything else fails on the first attempt.
      const auto t0 = std::chrono::steady_clock::now();
      RunError err;
      err.spec_index = i;
      err.spec_label = spec_label(spec);
      err.key_hex = key.hex();
      err.seed = spec.seed;
      bool failed = false;
      bool snapshot_built = false;
      for (std::uint32_t attempt = 1;; ++attempt) {
        err.attempts = attempt;
        try {
          fault::maybe_throw("run.execute", key.hi);
          results[i] =
              execute(spec, base_, &snapshots_, &snapshot_built, ctx);
          break;
        } catch (const std::exception& e) {
          err.what = e.what();
          err.transient = is_transient(e);
        } catch (...) {
          err.what = "(non-std exception)";
          err.transient = false;
        }
        if (err.transient && attempt <= config_.run_retry_limit) {
          metrics.on_run_retried();
          std::this_thread::sleep_for(std::chrono::milliseconds(
              config_.retry_backoff_ms * attempt));
          continue;
        }
        failed = true;
        break;
      }
      if (failed) {
        err.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        results[i] = RunRecord{};  // drop any partial attempt state
        results[i].error = err;
        metrics.on_run_failed(std::move(err));
        return;  // failed runs never reach the cache
      }
      const StoreOutcome stored = cache_.store(key, canon, results[i]);
      metrics.on_cache_write_retries(stored.retries);
      metrics.add_counters(results[i].result.counters);
      if (spec.warmup > 0) {
        // Engine-level warm-start accounting: the machine itself never
        // touches these, so they live in the sweep totals, not the record.
        obs::CounterTotals warm{};
        warm.snapshot_builds = snapshot_built ? 1 : 0;
        warm.snapshot_forks = 1;
        metrics.add_counters(warm);
      }
      metrics.on_run_executed(results[i].sim_seconds_estimate());
    });
  }
  pool.wait_idle();

  done.store(true, std::memory_order_relaxed);
  if (reporter.joinable()) reporter.join();

  for (const RunRecord& rec : results) {
    if (!rec.ok()) sweep.errors.push_back(*rec.error);
  }
  sweep.metrics = metrics.snapshot();
  last_metrics_ = sweep.metrics;
  if (config_.progress) {
    std::fprintf(stderr,
                 "[runner] done: %zu runs (%zu simulated, %zu cached, "
                 "%zu failed) in %.1fs on %zu threads | %.0f sim-s/s\n",
                 last_metrics_.completed, last_metrics_.executed,
                 last_metrics_.cache_hits, last_metrics_.failed,
                 last_metrics_.wall_seconds, threads,
                 last_metrics_.sim_seconds_per_second);
    for (const RunError& e : sweep.errors) {
      std::fprintf(stderr,
                   "[runner] FAILED run #%zu (%s, seed=%llx) after %u "
                   "attempt(s): %s\n",
                   e.spec_index, e.spec_label.c_str(),
                   static_cast<unsigned long long>(e.seed), e.attempts,
                   e.what.c_str());
    }
  }
  if (!config_.metrics_json_path.empty()) {
    metrics.write_json(config_.metrics_json_path);
  }
  return sweep;
}

}  // namespace dimetrodon::runner
