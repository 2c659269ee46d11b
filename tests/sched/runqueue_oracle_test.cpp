// Differential oracle for the bitmap run queue. Seeded random operation
// mixes run through RunQueue and through the 64-std::deque implementation it
// replaced (copied below as DequeRunQueue), and through BsdScheduler and
// UleScheduler against mirrors of both schedulers built on the deque queue.
// Threads mix estcpu, nice, kernel class, hard affinity and injection pins,
// so buckets fill, empty and refill; every pick, peek, remove, drain and
// queue listing must agree with the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/runqueue.hpp"
#include "sched/scheduler.hpp"
#include "sched/ule_scheduler.hpp"
#include "sim/rng.hpp"

namespace dimetrodon::sched {
namespace {

constexpr std::size_t kCores = 4;
constexpr std::size_t kThreads = 32;

/// The run queue as it was before the occupancy bitmap: 64 deques scanned
/// in bucket order. The reference every new-queue result is checked against.
class DequeRunQueue {
 public:
  void enqueue(Thread* t) {
    bucket(*t).push_back(t);
    ++size_;
  }
  void enqueue_front(Thread* t) {
    bucket(*t).push_front(t);
    ++size_;
  }
  Thread* pick(CoreId core) {
    for (auto& b : buckets_) {
      for (auto it = b.begin(); it != b.end(); ++it) {
        if ((*it)->runnable_on(core)) {
          Thread* t = *it;
          b.erase(it);
          --size_;
          return t;
        }
      }
    }
    return nullptr;
  }
  Thread* peek(CoreId core) const {
    for (const auto& b : buckets_) {
      for (Thread* t : b) {
        if (t->runnable_on(core)) return t;
      }
    }
    return nullptr;
  }
  bool remove(Thread* t) {
    for (auto& b : buckets_) {
      auto it = std::find(b.begin(), b.end(), t);
      if (it != b.end()) {
        b.erase(it);
        --size_;
        return true;
      }
    }
    return false;
  }
  void drain_all(std::vector<Thread*>& out) {
    for (auto& b : buckets_) {
      for (Thread* t : b) out.push_back(t);
      b.clear();
    }
    size_ = 0;
  }
  void queued_in_order(std::vector<Thread*>& out) const {
    for (const auto& b : buckets_) {
      for (Thread* t : b) out.push_back(t);
    }
  }
  std::size_t size() const { return size_; }

 private:
  std::deque<Thread*>& bucket(const Thread& t) {
    return buckets_[static_cast<std::size_t>(RunQueue::priority_of(t) / 4)];
  }

  std::array<std::deque<Thread*>, RunQueue::kNumBuckets> buckets_{};
  std::size_t size_ = 0;
};

/// BsdScheduler's policy over the deque queue.
class DequeBsdScheduler final : public Scheduler {
 public:
  void enqueue(Thread& t) override { queue_.enqueue(&t); }
  void enqueue_front(Thread& t) override { queue_.enqueue_front(&t); }
  Thread* pick_next(CoreId core, sim::SimTime) override {
    return queue_.pick(core);
  }
  void quantum_expired(Thread& t, double ran, sim::SimTime) override {
    charge(t, ran);
    queue_.enqueue(&t);
  }
  void thread_stopped(Thread& t, double ran, sim::SimTime) override {
    charge(t, ran);
  }
  void dequeue(Thread& t) override { queue_.remove(&t); }
  void periodic(std::size_t runnable, sim::SimTime) override {
    const double load = static_cast<double>(runnable);
    const double decay = (2.0 * load) / (2.0 * load + 1.0);
    std::vector<Thread*> drained;
    queue_.drain_all(drained);
    for (Thread* t : drained) {
      t->set_estcpu(t->estcpu() * decay);
      queue_.enqueue(t);
    }
  }
  void apply_sleep_decay(Thread& t, double slept) override {
    if (slept <= 0.0) return;
    t.set_estcpu(t.estcpu() *
                 std::pow(config_.sleep_decay_per_second, slept));
  }
  sim::SimTime timeslice() const override { return config_.timeslice; }
  std::size_t runnable_count() const override { return queue_.size(); }
  void snapshot_queue(std::vector<Thread*>& out) const override {
    queue_.queued_in_order(out);
  }

 private:
  void charge(Thread& t, double ran) {
    t.set_estcpu(t.estcpu() + config_.estcpu_per_cpu_second * ran);
  }

  BsdSchedulerConfig config_;
  DequeRunQueue queue_;
};

/// UleScheduler's policy (default config) over per-CPU deque queues.
class DequeUleScheduler final : public Scheduler {
 public:
  explicit DequeUleScheduler(std::size_t cpus) : queues_(cpus) {}

  void enqueue(Thread& t) override {
    t.set_estcpu(2.0 * score(t));
    CoreId cpu = home_cpu(t);
    if (cpu == kNoCore) {
      cpu = static_cast<CoreId>(next_cpu_);
      next_cpu_ = (next_cpu_ + 1) % queues_.size();
    }
    queues_[cpu].enqueue(&t);
  }
  void enqueue_front(Thread& t) override {
    t.set_estcpu(2.0 * score(t));
    CoreId cpu = home_cpu(t);
    if (cpu == kNoCore) cpu = 0;
    queues_[cpu].enqueue_front(&t);
  }
  Thread* pick_next(CoreId core, sim::SimTime) override {
    if (Thread* t = queues_[core].pick(core)) return t;
    std::size_t victim = queues_.size();
    std::size_t best_load = 0;
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      if (q == core) continue;
      if (queues_[q].peek(core) != nullptr && queues_[q].size() > best_load) {
        best_load = queues_[q].size();
        victim = q;
      }
    }
    if (victim == queues_.size()) return nullptr;
    Thread* t = queues_[victim].pick(core);
    if (t != nullptr) ++steals_;
    return t;
  }
  void quantum_expired(Thread& t, double ran, sim::SimTime) override {
    history(t).run += ran;
    enqueue(t);
  }
  void thread_stopped(Thread& t, double ran, sim::SimTime) override {
    history(t).run += ran;
  }
  void dequeue(Thread& t) override {
    for (auto& q : queues_) {
      if (q.remove(&t)) return;
    }
  }
  void periodic(std::size_t, sim::SimTime) override {
    const UleSchedulerConfig config;
    for (auto& h : histories_) {
      h.run *= config.history_decay;
      h.sleep *= config.history_decay;
    }
  }
  void apply_sleep_decay(Thread& t, double slept) override {
    if (slept > 0.0) history(t).sleep += slept;
  }
  sim::SimTime timeslice() const override { return sim::from_ms(100); }
  std::size_t runnable_count() const override {
    std::size_t n = 0;
    for (const auto& q : queues_) n += q.size();
    return n;
  }
  std::uint64_t steals() const { return steals_; }

 private:
  struct History {
    double run = 0.0;
    double sleep = 0.0;
  };
  History& history(const Thread& t) {
    if (histories_.size() <= t.id()) histories_.resize(t.id() + 1);
    return histories_[t.id()];
  }
  double score(const Thread& t) {
    const History& h = history(t);
    constexpr double kScale = 50.0;
    if (h.run < 1e-9 && h.sleep < 1e-9) return 25.0;
    if (h.sleep >= h.run) return kScale * h.run / std::max(h.sleep, 1e-9);
    return kScale + kScale * (1.0 - h.sleep / std::max(h.run, 1e-9));
  }
  CoreId home_cpu(const Thread& t) const {
    if (t.injection_pin() != kNoCore && t.injection_pin() < queues_.size()) {
      return t.injection_pin();
    }
    if (t.affinity() != kNoCore && t.affinity() < queues_.size()) {
      return t.affinity();
    }
    if (t.last_core() != kNoCore && t.last_core() < queues_.size()) {
      return t.last_core();
    }
    return kNoCore;
  }

  std::vector<DequeRunQueue> queues_;
  std::vector<History> histories_;
  std::uint64_t steals_ = 0;
  std::size_t next_cpu_ = 0;
};

class Noop final : public ThreadBehavior {
  Burst next_burst(sim::SimTime, sim::Rng&) override { return {1.0, 1.0}; }
  BurstOutcome on_burst_complete(sim::SimTime, sim::Rng&) override {
    return BurstOutcome::Exit();
  }
};

/// kThreads threads drawn from `seed`: every 6th is a kernel thread, nice
/// spans [-10, 20], estcpu spans every user bucket, and some carry a hard
/// affinity. Two sets built from one seed are identical.
std::vector<std::unique_ptr<Thread>> make_threads(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::unique_ptr<Thread>> out;
  for (std::size_t i = 0; i < kThreads; ++i) {
    const ThreadClass cls =
        i % 6 == 0 ? ThreadClass::kKernel : ThreadClass::kUser;
    const int nice = static_cast<int>(rng.uniform_int(-10, 20));
    auto t = std::make_unique<Thread>(
        static_cast<ThreadId>(i), std::string("t") + std::to_string(i), cls,
        nice, std::make_unique<Noop>(), sim::Rng(i));
    t->set_estcpu(rng.uniform(0.0, 600.0));
    if (rng.bernoulli(0.2)) {
      t->set_affinity(static_cast<CoreId>(rng.uniform_int(0, kCores - 1)));
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<ThreadId> ids(const std::vector<Thread*>& ts) {
  std::vector<ThreadId> out;
  out.reserve(ts.size());
  for (const Thread* t : ts) out.push_back(t->id());
  return out;
}

ThreadId id_or_none(const Thread* t) {
  return t == nullptr ? kInvalidThread : t->id();
}

template <class Queue>
std::vector<ThreadId> listing(const Queue& q) {
  std::vector<Thread*> out;
  q.queued_in_order(out);
  return ids(out);
}

// --- RunQueue against DequeRunQueue ------------------------------------------

TEST(RunQueueOracleTest, RandomMixesMatchTheDequeQueue) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto threads = make_threads(seed);
    sim::Rng rng(seed * 7919);
    RunQueue q;
    DequeRunQueue oracle;
    std::vector<bool> queued(kThreads, false);
    std::size_t snapshots = 0;
    std::size_t max_size = 0;

    for (int op = 0; op < 20000; ++op) {
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform_int(0, kThreads - 1));
      Thread* t = threads[i].get();
      const auto core = static_cast<CoreId>(rng.uniform_int(0, kCores - 1));
      const double u = rng.uniform();
      if (u < 0.30) {
        if (queued[i]) continue;
        // Re-bucket and re-pin while off the queue, as the schedulers do.
        if (rng.bernoulli(0.5)) t->set_estcpu(rng.uniform(0.0, 600.0));
        t->set_injection_pin(rng.bernoulli(0.15) ? core : kNoCore);
        const bool front = rng.bernoulli(0.25);
        if (front) {
          q.enqueue_front(t);
          oracle.enqueue_front(t);
        } else {
          q.enqueue(t);
          oracle.enqueue(t);
        }
        queued[i] = true;
      } else if (u < 0.55) {
        Thread* got = q.pick(core);
        ASSERT_EQ(id_or_none(got), id_or_none(oracle.pick(core)))
            << "pick on core " << core << " at op " << op;
        if (got != nullptr) queued[got->id()] = false;
      } else if (u < 0.70) {
        ASSERT_EQ(id_or_none(q.peek(core)), id_or_none(oracle.peek(core)))
            << "peek on core " << core << " at op " << op;
      } else if (u < 0.85) {
        // Present or absent alike.
        const bool removed = q.remove(t);
        ASSERT_EQ(removed, oracle.remove(t)) << "remove at op " << op;
        ASSERT_EQ(removed, static_cast<bool>(queued[i]));
        queued[i] = false;
      } else if (u < 0.88) {
        std::vector<Thread*> got;
        std::vector<Thread*> want;
        q.drain_all(got);
        oracle.drain_all(want);
        ASSERT_EQ(ids(got), ids(want)) << "drain_all at op " << op;
        ASSERT_TRUE(q.empty());
        // schedcpu-style refill: decay, then re-bucket every thread.
        for (std::size_t k = 0; k < got.size(); ++k) {
          got[k]->set_estcpu(got[k]->estcpu() * 0.8);
          q.enqueue(got[k]);
          oracle.enqueue(want[k]);
        }
      } else if (u < 0.90) {
        // Snapshot round trip: re-enqueue the listing into a fresh queue.
        std::vector<Thread*> order;
        q.queued_in_order(order);
        RunQueue restored;
        for (Thread* s : order) restored.enqueue(s);
        ASSERT_EQ(listing(restored), listing(q));
        q = std::move(restored);
        ++snapshots;
      } else {
        ASSERT_EQ(listing(q), listing(oracle)) << "listing at op " << op;
      }
      ASSERT_EQ(q.size(), oracle.size()) << "size at op " << op;
      ASSERT_EQ(q.empty(), oracle.size() == 0);
      max_size = std::max(max_size, q.size());
    }
    EXPECT_EQ(listing(q), listing(oracle));
    EXPECT_GT(snapshots, 0u);
    EXPECT_GT(max_size, kThreads / 2);  // buckets really filled
  }
}

TEST(RunQueueOracleTest, OccupancyBitmapSurvivesEmptyingEveryBucket) {
  auto threads = make_threads(11);
  RunQueue q;
  DequeRunQueue oracle;
  for (int round = 0; round < 3; ++round) {
    for (auto& t : threads) {
      q.enqueue(t.get());
      oracle.enqueue(t.get());
    }
    ASSERT_EQ(listing(q), listing(oracle));
    // Empty the queue through pick on every core, then through remove.
    for (CoreId core = 0; core < kCores; ++core) {
      while (Thread* t = q.pick(core)) {
        ASSERT_EQ(t, oracle.pick(core));
      }
      ASSERT_EQ(oracle.pick(core), nullptr);
    }
    for (auto& t : threads) ASSERT_EQ(q.remove(t.get()), oracle.remove(t.get()));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(oracle.size(), 0u);
    for (CoreId core = 0; core < kCores; ++core) {
      EXPECT_EQ(q.peek(core), nullptr);
    }
  }
}

// --- schedulers against their deque mirrors ----------------------------------

/// Drives `sut` and `ref` (each on its own, identical thread set) through one
/// seeded lifecycle stream: wakeups with sleep credit, injection-displaced
/// front inserts, picks on every core, quantum expiries, stops, dequeues of
/// present and absent threads and the once-a-second schedcpu pass. When
/// `fresh` is set, the queue also takes snapshot round trips through
/// snapshot_queue into a freshly constructed scheduler, which replaces `sut`.
void drive_schedulers(std::unique_ptr<Scheduler>& sut, Scheduler& ref,
                      std::uint64_t seed,
                      const std::function<std::unique_ptr<Scheduler>()>& fresh,
                      std::vector<std::unique_ptr<Thread>>& sut_threads,
                      std::vector<std::unique_ptr<Thread>>& ref_threads) {
  enum class St { kIdle, kQueued, kRunning };
  std::vector<St> state(kThreads, St::kIdle);
  std::vector<CoreId> ran_on(kThreads, kNoCore);
  sim::Rng rng(seed * 104729);
  std::size_t snapshots = 0;
  std::size_t picks = 0;

  const auto listing_of = [](const Scheduler& s) {
    std::vector<Thread*> out;
    s.snapshot_queue(out);
    return ids(out);
  };

  for (int op = 0; op < 12000; ++op) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, kThreads - 1));
    Thread& a = *sut_threads[i];
    Thread& b = *ref_threads[i];
    const auto core = static_cast<CoreId>(rng.uniform_int(0, kCores - 1));
    const double u = rng.uniform();
    if (u < 0.30) {
      if (state[i] != St::kIdle) continue;
      const double slept = rng.exponential(0.5);
      sut->apply_sleep_decay(a, slept);
      ref.apply_sleep_decay(b, slept);
      sut->enqueue(a);
      ref.enqueue(b);
      state[i] = St::kQueued;
    } else if (u < 0.55) {
      Thread* got = sut->pick_next(core, 0);
      Thread* want = ref.pick_next(core, 0);
      ASSERT_EQ(id_or_none(got), id_or_none(want))
          << "pick_next on core " << core << " at op " << op;
      if (got != nullptr) {
        state[got->id()] = St::kRunning;
        ran_on[got->id()] = core;
        got->set_last_core(core);
        want->set_last_core(core);
        got->set_injection_pin(kNoCore);
        want->set_injection_pin(kNoCore);
        ++picks;
      }
    } else if (u < 0.70) {
      if (state[i] != St::kRunning) continue;
      const double ran = rng.uniform(0.0, 0.1);
      sut->quantum_expired(a, ran, 0);
      ref.quantum_expired(b, ran, 0);
      state[i] = St::kQueued;
    } else if (u < 0.78) {
      if (state[i] != St::kRunning) continue;
      // Displaced by an injected idle quantum: pinned, back at the front.
      a.set_injection_pin(ran_on[i]);
      b.set_injection_pin(ran_on[i]);
      sut->enqueue_front(a);
      ref.enqueue_front(b);
      state[i] = St::kQueued;
    } else if (u < 0.86) {
      if (state[i] != St::kRunning) continue;
      const double ran = rng.uniform(0.0, 0.1);
      sut->thread_stopped(a, ran, 0);
      ref.thread_stopped(b, ran, 0);
      state[i] = St::kIdle;
    } else if (u < 0.93) {
      if (state[i] == St::kRunning) continue;
      sut->dequeue(a);  // absent when idle: a no-op on both
      ref.dequeue(b);
      state[i] = St::kIdle;
    } else if (u < 0.96) {
      const std::size_t n = sut->runnable_count();
      sut->periodic(n, 0);
      ref.periodic(n, 0);
    } else if (fresh) {
      std::vector<Thread*> order;
      sut->snapshot_queue(order);
      std::unique_ptr<Scheduler> restored = fresh();
      for (Thread* t : order) restored->enqueue(*t);
      ASSERT_EQ(listing_of(*restored), ids(order));
      sut = std::move(restored);
      ++snapshots;
    }
    ASSERT_EQ(sut->runnable_count(), ref.runnable_count())
        << "runnable_count at op " << op;
    if (fresh) {
      ASSERT_EQ(listing_of(*sut), listing_of(ref)) << "queue at op " << op;
    }
  }
  EXPECT_GT(picks, 1000u);
  if (fresh) {
    EXPECT_GT(snapshots, 0u);
  }
  for (std::size_t k = 0; k < kThreads; ++k) {
    EXPECT_EQ(sut_threads[k]->estcpu(), ref_threads[k]->estcpu())
        << "thread " << k;
  }
}

TEST(RunQueueOracleTest, BsdSchedulerMatchesItsDequeMirror) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto sut_threads = make_threads(seed);
    auto ref_threads = make_threads(seed);
    std::unique_ptr<Scheduler> sut = std::make_unique<BsdScheduler>();
    DequeBsdScheduler ref;
    drive_schedulers(sut, ref, seed,
                     [] { return std::make_unique<BsdScheduler>(); },
                     sut_threads, ref_threads);
  }
}

TEST(RunQueueOracleTest, UleSchedulerMatchesItsDequeMirror) {
  // ULE keeps per-thread histories beyond its queues, so it opts out of
  // machine snapshots (snapshot_queue throws); its stream runs without
  // round trips and is compared through picks, counts and steals.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto sut_threads = make_threads(seed);
    auto ref_threads = make_threads(seed);
    std::unique_ptr<Scheduler> sut = std::make_unique<UleScheduler>(kCores);
    DequeUleScheduler ref(kCores);
    drive_schedulers(sut, ref, seed, nullptr, sut_threads, ref_threads);
    const auto& ule = static_cast<const UleScheduler&>(*sut);
    EXPECT_EQ(ule.steals(), ref.steals());
    EXPECT_GT(ule.steals(), 0u);
  }
}

}  // namespace
}  // namespace dimetrodon::sched
