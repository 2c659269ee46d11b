#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace dimetrodon::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueueTest, DeliversInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&](SimTime) { order.push_back(3); });
  q.schedule(10, [&](SimTime) { order.push_back(1); });
  q.schedule(20, [&](SimTime) { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i](SimTime) { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(77, [](SimTime t) { EXPECT_EQ(t, 77); });
  EXPECT_EQ(q.pop_and_run(), 77);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(5, [&](SimTime) { ran = true; });
  EXPECT_TRUE(h.active());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.active());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  EventHandle h = q.schedule(5, [](SimTime) {});
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, DefaultHandleIsInactive) {
  EventHandle h;
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, SizeTracksCancellation) {
  EventQueue q;
  EventHandle a = q.schedule(1, [](SimTime) {});
  EventHandle b = q.schedule(2, [](SimTime) {});
  EXPECT_EQ(q.size(), 2u);
  a.cancel();
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_EQ(q.size(), 0u);
  (void)b;
}

TEST(EventQueueTest, HandleInactiveAfterFiring) {
  EventQueue q;
  EventHandle h = q.schedule(1, [](SimTime) {});
  q.pop_and_run();
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, CancelledHeadSkipped) {
  EventQueue q;
  bool first = false;
  bool second = false;
  EventHandle h = q.schedule(1, [&](SimTime) { first = true; });
  q.schedule(2, [&](SimTime) { second = true; });
  h.cancel();
  EXPECT_EQ(q.next_time(), 2);
  q.pop_and_run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&](SimTime) {
    ++fired;
    q.schedule(2, [&](SimTime) { ++fired; });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelHeavyChurnHoldsBoundedMemory) {
  // Timer churn: one long-lived event plus thousands of schedule/cancel
  // cycles. Lazy cancellation alone would grow the heap with every cycle;
  // compaction must keep the carcass population proportional to the live
  // count, not to cancellation history.
  EventQueue q;
  bool fired = false;
  q.schedule(1'000'000, [&](SimTime) { fired = true; });
  std::size_t peak = 0;
  for (int i = 0; i < 20000; ++i) {
    EventHandle h = q.schedule(500'000 + i, [](SimTime) {});
    h.cancel();
    peak = std::max(peak, q.heap_entries());
  }
  // 1 live event; the compaction threshold (64 entries, majority cancelled)
  // bounds the transient carcass population far below the 20001 entries an
  // unbounded lazy queue would hold.
  EXPECT_LE(peak, 128u);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CompactionPreservesDeliveryOrder) {
  // Force repeated compactions among live events scheduled in shuffled time
  // order with interleaved cancellations, then check delivery is still the
  // exact (time, insertion) order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 500; ++i) {
    const SimTime t = (i * 7919) % 1009;
    q.schedule(t, [&order, i](SimTime) { order.push_back(i); });
    // Two cancelled events per live one keeps carcasses the majority, so
    // the threshold trips many times during this loop.
    doomed.push_back(q.schedule(t, [](SimTime) { ADD_FAILURE(); }));
    doomed.push_back(q.schedule(t + 1, [](SimTime) { ADD_FAILURE(); }));
    doomed[doomed.size() - 2].cancel();
    doomed.back().cancel();
  }
  std::vector<int> expected(500);
  for (int i = 0; i < 500; ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (a * 7919) % 1009 < (b * 7919) % 1009;
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, SizeAndHandlesSurviveCompaction) {
  EventQueue q;
  std::vector<EventHandle> live;
  for (int i = 0; i < 40; ++i) {
    live.push_back(q.schedule(10 + i, [](SimTime) {}));
  }
  // Enough cancellations to cross the 64-entry threshold with a cancelled
  // majority; the next schedule() compacts.
  for (int i = 0; i < 60; ++i) {
    q.schedule(5, [](SimTime) { ADD_FAILURE(); }).cancel();
  }
  q.schedule(1000, [](SimTime) {});
  // Without compaction the heap would hold all 101 entries; the sweep during
  // the cancel storm kept it to the live events plus the post-sweep stragglers.
  EXPECT_LE(q.heap_entries(), 61u);
  EXPECT_EQ(q.size(), 41u);
  for (const EventHandle& h : live) EXPECT_TRUE(h.active());
  EXPECT_EQ(q.next_time(), 10);
}

TEST(EventQueueTest, TimeAndSeqAccessorsTrackLiveEvents) {
  EventQueue q;
  EventHandle a = q.schedule(10, [](SimTime) {});
  EventHandle b = q.schedule(10, [](SimTime) {});
  EXPECT_EQ(a.time(), 10);
  EXPECT_EQ(b.time(), 10);
  // Same timestamp: the earlier schedule() wins the tie, and seq() exposes
  // that rank so the snapshot layer can re-arm in the captured order.
  EXPECT_LT(a.seq(), b.seq());
  a.cancel();
  EXPECT_EQ(a.time(), kTimeInfinity);
  EXPECT_EQ(a.seq(), 0u);
  q.pop_and_run();
  EXPECT_EQ(b.time(), kTimeInfinity);
}

TEST(EventQueueTest, ClearMakesAllHandlesInert) {
  EventQueue q;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(q.schedule(i, [&fired](SimTime) { ++fired; }));
  }
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  for (auto& h : handles) {
    EXPECT_FALSE(h.active());
    EXPECT_FALSE(h.cancel());  // inert, exactly like an already-fired event
  }
  // The queue is fully usable afterwards, and seq keeps counting up.
  EventHandle next = q.schedule(5, [&fired](SimTime) { ++fired; });
  EXPECT_TRUE(next.active());
  q.pop_and_run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, RecycledSlotDoesNotResurrectOldHandle) {
  // The control arena recycles slots; a stale handle whose slot was reused
  // must stay inert (generation mismatch) rather than aliasing the new
  // event. Cancel-heavy churn guarantees slot reuse within a few rounds.
  EventQueue q;
  EventHandle stale = q.schedule(1, [](SimTime) { FAIL() << "cancelled"; });
  stale.cancel();
  int fired = 0;
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 8; ++i) {
    fresh.push_back(q.schedule(2 + i, [&fired](SimTime) { ++fired; }));
  }
  // The stale handle must not observe or affect the recycled slot's event.
  EXPECT_FALSE(stale.active());
  EXPECT_FALSE(stale.cancel());
  EXPECT_EQ(q.size(), 8u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 8);
  // And fired handles on recycled slots are inert too.
  for (auto& h : fresh) EXPECT_FALSE(h.active());
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  SimTime last = -1;
  // Deterministic pseudo-shuffled insertion times.
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = (i * 7919) % 104729;
    q.schedule(t, [&last](SimTime at) {
      EXPECT_GE(at, last);
      last = at;
    });
  }
  std::size_t count = 0;
  while (!q.empty()) {
    q.pop_and_run();
    ++count;
  }
  EXPECT_EQ(count, 5000u);
}

TEST(EventQueueTest, ReleasesCapturesAtCancelFireAndClear) {
  // The callback lives in the control slot, not in the heap entry: a
  // cancelled event's carcass may linger in the heap, but its closure (and
  // everything it captured) must be gone the moment cancel() returns.
  auto token = std::make_shared<int>(0);
  EventQueue q;
  EventHandle a = q.schedule(5, [token](SimTime) {});
  q.schedule(6, [token](SimTime) {});
  q.schedule(7, [token](SimTime) {});
  EXPECT_EQ(token.use_count(), 4);
  EXPECT_TRUE(a.cancel());
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_EQ(q.heap_entries(), 3u);  // the carcass is still queued
  EXPECT_EQ(q.pop_and_run(), 6);
  EXPECT_EQ(token.use_count(), 2);
  q.clear();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTest, DestroyingTheQueueDropsClosuresThatPinTheArena) {
  // A closure holding a handle keeps the shared arena alive; destroying the
  // queue must still release it, or closure and arena would pin each other.
  auto token = std::make_shared<int>(0);
  EventHandle outer;
  {
    EventQueue q;
    auto self = std::make_shared<EventHandle>();
    *self = q.schedule(1, [self, token](SimTime) {});
    outer = *self;
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(outer.active());
  EXPECT_FALSE(outer.cancel());
}

// Inline callbacks: the slot stores a closure of up to 32 bytes in place.
// A trivially copyable one has no manager at all; one that owns something
// is moved and destroyed by its manager; a larger one lives on the heap.
using detail::InlineCallback;

TEST(EventQueueInlineCallbackTest, TriviallyCopyableClosureRunsInline) {
  // The shape of the machine's closures: `[this, &core]`.
  struct Owner {
    int fired = 0;
    SimTime last = -1;
  } owner;
  int core = 7;
  auto fn = [o = &owner, &core](SimTime t) {
    o->fired += core;
    o->last = t;
  };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  static_assert(InlineCallback::fits_inline<decltype(fn)>());
  EventQueue q;
  for (SimTime t = 1; t <= 200; ++t) q.schedule(t, fn);  // grows the arena
  EventHandle h = q.schedule(150, fn);
  EXPECT_TRUE(h.cancel());
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(owner.fired, 200 * 7);
  EXPECT_EQ(owner.last, 200);

  // A moved-from callback is empty; the moved-to one runs the closure.
  InlineCallback a(fn);
  InlineCallback b(std::move(a));
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  b(999);
  EXPECT_EQ(owner.last, 999);
}

TEST(EventQueueInlineCallbackTest, OwningCaptureIsReleasedAtCancelFireAndClear) {
  auto token = std::make_shared<int>(0);
  auto fn = [token](SimTime) {};
  static_assert(!std::is_trivially_copyable_v<decltype(fn)>);
  static_assert(InlineCallback::fits_inline<decltype(fn)>());
  // Machine::call_at's std::function takes the same managed inline path.
  static_assert(
      InlineCallback::fits_inline<std::function<void(SimTime)>>());
  EventQueue q;
  EventHandle cancelled = q.schedule(5, fn);
  q.schedule(6, std::function<void(SimTime)>(fn));
  q.schedule(7, fn);
  // Arena growth relocates the pending closures through their managers,
  // which must neither copy nor drop a capture.
  for (SimTime t = 100; t < 400; ++t) q.schedule(t, [](SimTime) {});
  EXPECT_EQ(token.use_count(), 5);
  EXPECT_TRUE(cancelled.cancel());
  EXPECT_EQ(token.use_count(), 4);
  EXPECT_EQ(q.pop_and_run(), 6);
  EXPECT_EQ(token.use_count(), 3);
  q.clear();
  EXPECT_EQ(token.use_count(), 2);  // `fn` itself
}

TEST(EventQueueInlineCallbackTest, ClosureLargerThanTheBufferLivesOnTheHeap) {
  auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 8> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * i;
  std::uint64_t sum = 0;
  auto fn = [payload, token, &sum](SimTime) {
    for (const std::uint64_t v : payload) sum += v;
  };
  static_assert(sizeof(fn) > InlineCallback::kCapacity);
  static_assert(!InlineCallback::fits_inline<decltype(fn)>());
  EventQueue q;
  EventHandle cancelled = q.schedule(1, fn);
  q.schedule(2, fn);
  q.schedule(3, fn);
  for (SimTime t = 100; t < 400; ++t) q.schedule(t, [](SimTime) {});
  EXPECT_EQ(token.use_count(), 5);
  EXPECT_TRUE(cancelled.cancel());
  EXPECT_EQ(token.use_count(), 4);
  EXPECT_EQ(q.pop_and_run(), 2);
  EXPECT_EQ(sum, 140u);  // 0 + 1 + 4 + ... + 49
  EXPECT_EQ(token.use_count(), 3);
  q.clear();
  EXPECT_EQ(token.use_count(), 2);
}

TEST(EventQueueTest, HandlesKeepTheArenaAliveAfterTheQueue) {
  // The queue and each handle own one reference to the arena; the last
  // owner frees it, whichever that is.
  EventHandle fired;
  EventHandle pending;
  EventHandle copy;
  {
    EventQueue q;
    fired = q.schedule(1, [](SimTime) {});
    pending = q.schedule(2, [](SimTime) {});
    copy = pending;
    EXPECT_EQ(q.pop_and_run(), 1);
    EXPECT_FALSE(fired.active());
    EXPECT_TRUE(copy.active());
    EXPECT_EQ(copy.time(), 2);
  }
  EXPECT_FALSE(pending.active());
  EXPECT_FALSE(copy.cancel());
  EXPECT_EQ(copy.time(), kTimeInfinity);
  fired = EventHandle();
  pending = copy;
  copy = EventHandle();
  EXPECT_FALSE(pending.active());
}

// Differential test on production-shaped streams: seeded random mixes of
// schedule / cancel / pop / clear, with same-nanosecond ties, long timeouts
// that are mostly cancelled (about 40% of all events), and callbacks that
// schedule follow-ups or cancel other pending timers — the shape of a
// machine's timer traffic. The oracle is an ordered set of (at, id): ids
// ascend in schedule order, as seq does, so its head is the event the queue
// must fire next.
class QueueOracle {
 public:
  explicit QueueOracle(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i) {
      const double r = rng_.uniform();
      if (r < 0.40) {
        schedule();
      } else if (r < 0.69) {
        cancel_recent();
      } else if (r < 0.999) {
        pop();
      } else {
        clear();
      }
      EXPECT_EQ(q_.size(), pending_.size());
    }
    while (!pending_.empty() && !::testing::Test::HasFailure()) pop();
    EXPECT_EQ(q_.next_time(), kTimeInfinity);
    EXPECT_TRUE(q_.empty());
  }

  std::size_t scheduled() const { return at_.size(); }
  std::size_t cancelled() const { return cancelled_; }
  std::size_t clears() const { return clears_; }

 private:
  SimTime delay() {
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return rng_.uniform_int(0, 2);  // same-ns ties
      case 1:
        return rng_.uniform_int(0, 1'000);
      case 2:
        return rng_.uniform_int(1'000, 100'000);
      default:
        return rng_.uniform_int(1'000'000, 5'000'000);  // timeouts
    }
  }

  void schedule() {
    const SimTime when = now_ + delay();
    const std::size_t id = at_.size();
    auto token = std::make_shared<int>(0);
    at_.push_back(when);
    tokens_.push_back(token);
    handles_.push_back(q_.schedule(
        when, [this, id, token](SimTime t) { fire(id, t); }));
    pending_.emplace(when, id);
    // Compaction bound: once carcasses would be the majority of a heap of
    // 64 or more entries, schedule() sweeps them first.
    EXPECT_LE(q_.heap_entries(), std::max<std::size_t>(64, 2 * q_.size()));
  }

  // Cancel one of the most recent events; some have already fired or been
  // cancelled, and cancelling those must be an inert no-op.
  void cancel_recent() {
    if (at_.empty()) return;
    const auto back = static_cast<std::int64_t>(std::min<std::size_t>(
        at_.size() - 1, 31));
    const std::size_t id = at_.size() - 1 -
                           static_cast<std::size_t>(rng_.uniform_int(0, back));
    const bool was_pending = pending_.erase({at_[id], id}) == 1;
    EXPECT_EQ(handles_[id].cancel(), was_pending) << "event " << id;
    if (was_pending) {
      ++cancelled_;
      EXPECT_EQ(tokens_[id].use_count(), 1) << "closure outlived cancel()";
    }
  }

  void pop() {
    if (pending_.empty()) {
      EXPECT_EQ(q_.next_time(), kTimeInfinity);
      return;
    }
    const auto [when, id] = *pending_.begin();
    pending_.erase(pending_.begin());
    EXPECT_EQ(q_.next_time(), when);
    EXPECT_EQ(handles_[id].time(), when);
    const std::size_t before = fired_.size();
    EXPECT_EQ(q_.pop_and_run(), when);
    ASSERT_EQ(fired_.size(), before + 1);
    EXPECT_EQ(fired_[before], id) << "at t=" << when;
    EXPECT_EQ(tokens_[id].use_count(), 1) << "closure outlived its firing";
  }

  void fire(std::size_t id, SimTime t) {
    fired_.push_back(id);
    now_ = t;
    EXPECT_EQ(t, at_[id]);
    EXPECT_FALSE(handles_[id].active());  // released before it runs
    const double r = rng_.uniform();
    if (r < 0.35) {
      schedule();
    } else if (r < 0.5) {
      cancel_recent();
    }
  }

  void clear() {
    q_.clear();
    for (const auto& [when, id] : pending_) {
      EXPECT_FALSE(handles_[id].active());
      EXPECT_EQ(tokens_[id].use_count(), 1);
    }
    cancelled_ += pending_.size();
    pending_.clear();
    ++clears_;
  }

  Rng rng_;
  EventQueue q_;
  SimTime now_ = 0;
  std::vector<SimTime> at_;  // by event id
  std::vector<EventHandle> handles_;
  std::vector<std::shared_ptr<int>> tokens_;
  std::set<std::pair<SimTime, std::size_t>> pending_;
  std::vector<std::size_t> fired_;
  std::size_t cancelled_ = 0;
  std::size_t clears_ = 0;
};

TEST(EventQueueOracleTest, RandomMixesFireInSortedOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    QueueOracle oracle(seed);
    oracle.run(40'000);
    if (HasFailure()) return;
    // The mix is the one the test claims: a production-like cancel share,
    // and clear() exercised mid-stream.
    const double share = static_cast<double>(oracle.cancelled()) /
                         static_cast<double>(oracle.scheduled());
    EXPECT_GT(share, 0.3);
    EXPECT_LT(share, 0.5);
    EXPECT_GT(oracle.clears(), 0u);
  }
}

}  // namespace
}  // namespace dimetrodon::sim
