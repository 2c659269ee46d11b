#pragma once

#include <memory>
#include <vector>

#include "workload/workload.hpp"

namespace dimetrodon::workload {

/// Wall-clock records of the cool process's bursts (shared between the
/// behavior, which lives inside the machine, and the workload handle).
struct CoolBurstLog {
  struct Entry {
    sim::SimTime started;
    sim::SimTime finished;
  };
  std::vector<Entry> completed;
  sim::SimTime current_start = -1;
};

/// The paper's "cool" process for the per-thread control demonstration
/// (§3.6): "a loop that executed cpuburn for six seconds, slept for one
/// minute, and repeated". Periodic, short-running, low average heat.
class CoolProcessBehavior final : public sched::ThreadBehavior {
 public:
  struct Config {
    double burn_seconds = 6.0;
    sim::SimTime sleep = sim::from_sec(60.0);
    double activity = 1.0;
  };

  CoolProcessBehavior() : config_() {}
  explicit CoolProcessBehavior(Config config) : config_(config) {}
  CoolProcessBehavior(Config config, std::shared_ptr<CoolBurstLog> log)
      : config_(config), log_(std::move(log)) {}

  sched::Burst next_burst(sim::SimTime now, sim::Rng& rng) override {
    (void)rng;
    if (log_) log_->current_start = now;
    return sched::Burst{config_.burn_seconds, config_.activity};
  }
  sched::BurstOutcome on_burst_complete(sim::SimTime now,
                                        sim::Rng& rng) override {
    (void)rng;
    if (log_ && log_->current_start >= 0) {
      log_->completed.push_back(CoolBurstLog::Entry{log_->current_start, now});
      log_->current_start = -1;
    }
    return sched::BurstOutcome::SleepFor(config_.sleep);
  }

 private:
  Config config_;
  std::shared_ptr<CoolBurstLog> log_;
};

/// Workload wrapper for a single cool process.
class CoolProcess final : public Workload {
 public:
  explicit CoolProcess(CoolProcessBehavior::Config config = {})
      : config_(config) {}

  void deploy(sched::Machine& machine) override {
    threads_.push_back(machine.create_thread(
        "cool", sched::ThreadClass::kUser, 0,
        std::make_unique<CoolProcessBehavior>(config_, log_)));
  }
  double progress(const sched::Machine& machine) const override {
    return machine.thread(threads_.front()).work_completed();
  }
  sched::ThreadId thread_id() const { return threads_.front(); }

  /// Mean wall-clock stretch of completed bursts relative to the nominal
  /// burn time (1.0 = ran uninterrupted) — the "cool process throughput"
  /// axis of the paper's Figure 5 inverts this.
  double mean_burst_stretch() const {
    if (log_->completed.empty()) return 1.0;
    double sum = 0.0;
    for (const auto& e : log_->completed) {
      sum += sim::to_sec(e.finished - e.started) / config_.burn_seconds;
    }
    return sum / static_cast<double>(log_->completed.size());
  }

 private:
  CoolProcessBehavior::Config config_;
  std::shared_ptr<CoolBurstLog> log_ = std::make_shared<CoolBurstLog>();
};

}  // namespace dimetrodon::workload
