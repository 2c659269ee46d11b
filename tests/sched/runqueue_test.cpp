#include "sched/runqueue.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace dimetrodon::sched {
namespace {

std::unique_ptr<Thread> make_thread(ThreadId id, ThreadClass cls = ThreadClass::kUser,
                                    int nice = 0) {
  // Behavior unused by run-queue logic.
  class Noop final : public ThreadBehavior {
    Burst next_burst(sim::SimTime, sim::Rng&) override { return {1.0, 1.0}; }
    BurstOutcome on_burst_complete(sim::SimTime, sim::Rng&) override {
      return BurstOutcome::Exit();
    }
  };
  return std::make_unique<Thread>(id, std::string("t") + std::to_string(id),
                                  cls, nice, std::make_unique<Noop>(),
                                  sim::Rng(id));
}

TEST(RunQueueTest, FifoWithinSamePriority) {
  RunQueue q;
  auto a = make_thread(1);
  auto b = make_thread(2);
  q.enqueue(a.get());
  q.enqueue(b.get());
  EXPECT_EQ(q.pick(0), a.get());
  EXPECT_EQ(q.pick(0), b.get());
  EXPECT_TRUE(q.empty());
}

TEST(RunQueueTest, KernelThreadsBeatUserThreads) {
  RunQueue q;
  auto user = make_thread(1, ThreadClass::kUser);
  auto kernel = make_thread(2, ThreadClass::kKernel);
  q.enqueue(user.get());
  q.enqueue(kernel.get());
  EXPECT_EQ(q.pick(0), kernel.get());
}

TEST(RunQueueTest, HigherEstcpuSinksBelow) {
  RunQueue q;
  auto hog = make_thread(1);
  hog->set_estcpu(100.0);
  auto fresh = make_thread(2);
  q.enqueue(hog.get());
  q.enqueue(fresh.get());
  EXPECT_EQ(q.pick(0), fresh.get());
}

TEST(RunQueueTest, NicePenalizesPriority) {
  RunQueue q;
  auto nice = make_thread(1, ThreadClass::kUser, 10);
  auto normal = make_thread(2, ThreadClass::kUser, 0);
  q.enqueue(nice.get());
  q.enqueue(normal.get());
  EXPECT_EQ(q.pick(0), normal.get());
}

TEST(RunQueueTest, EnqueueFrontPreservesTurn) {
  RunQueue q;
  auto a = make_thread(1);
  auto b = make_thread(2);
  q.enqueue(a.get());
  q.enqueue(b.get());
  Thread* first = q.pick(0);
  EXPECT_EQ(first, a.get());
  q.enqueue_front(first);  // returned after displaced dispatch
  EXPECT_EQ(q.pick(0), a.get());
}

TEST(RunQueueTest, PinnedThreadInvisibleToOtherCores) {
  RunQueue q;
  auto t = make_thread(1);
  t->set_injection_pin(2);
  q.enqueue(t.get());
  EXPECT_EQ(q.pick(0), nullptr);
  EXPECT_EQ(q.pick(1), nullptr);
  EXPECT_EQ(q.pick(2), t.get());
}

TEST(RunQueueTest, AffinityRespected) {
  RunQueue q;
  auto t = make_thread(1);
  t->set_affinity(3);
  q.enqueue(t.get());
  EXPECT_EQ(q.pick(0), nullptr);
  EXPECT_EQ(q.pick(3), t.get());
}

TEST(RunQueueTest, PickSkipsPinnedFindsNextEligible) {
  RunQueue q;
  auto pinned = make_thread(1);
  pinned->set_injection_pin(5);
  auto open = make_thread(2);
  q.enqueue(pinned.get());
  q.enqueue(open.get());
  EXPECT_EQ(q.pick(0), open.get());
  EXPECT_EQ(q.size(), 1u);
}

TEST(RunQueueTest, PeekDoesNotRemove) {
  RunQueue q;
  auto t = make_thread(1);
  q.enqueue(t.get());
  EXPECT_EQ(q.peek(0), t.get());
  EXPECT_EQ(q.size(), 1u);
}

TEST(RunQueueTest, RemoveSpecificThread) {
  RunQueue q;
  auto a = make_thread(1);
  auto b = make_thread(2);
  q.enqueue(a.get());
  q.enqueue(b.get());
  EXPECT_TRUE(q.remove(a.get()));
  EXPECT_FALSE(q.remove(a.get()));
  EXPECT_EQ(q.pick(0), b.get());
}

TEST(RunQueueTest, DrainAllEmptiesIncludingPinned) {
  RunQueue q;
  auto a = make_thread(1);
  auto b = make_thread(2);
  b->set_injection_pin(7);
  q.enqueue(a.get());
  q.enqueue(b.get());
  std::vector<Thread*> out;
  q.drain_all(out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(RunQueueTest, PriorityFormulaClamped) {
  auto t = make_thread(1, ThreadClass::kUser, 20);
  t->set_estcpu(1e6);
  EXPECT_EQ(RunQueue::priority_of(*t), RunQueue::kPriMax);
  auto k = make_thread(2, ThreadClass::kKernel);
  EXPECT_EQ(RunQueue::priority_of(*k), RunQueue::kPriKernel);
}

}  // namespace
}  // namespace dimetrodon::sched
