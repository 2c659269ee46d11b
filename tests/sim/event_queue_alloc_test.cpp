// Heap traffic of the event core, counted by replacing the global
// allocation functions for this test binary: steady-state timer churn with
// machine-shaped closures allocates nothing, and the control arena is freed
// with its last owner (the queue or a handle that outlives it).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/event_queue.hpp"

namespace {
std::atomic<std::int64_t> g_allocations{0};    // operator new calls
std::atomic<std::int64_t> g_live_allocations{0};  // new minus delete
}  // namespace

// AddressSanitizer supplies every allocation function; replacing only some
// of them would mismatch its bookkeeping, so the counting tests skip there
// (its leak checker still catches an arena that is never freed).
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kCountsAllocations = false;
#else
constexpr bool kCountsAllocations = true;

// Not inlined: a `new` expression must see a call to operator delete, not
// the free() inside it, or GCC warns of a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}
#endif

namespace dimetrodon::sim {
namespace {

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
std::int64_t live_allocations() {
  return g_live_allocations.load(std::memory_order_relaxed);
}

TEST(EventQueueAllocTest, SteadyStateTimerChurnAllocatesNothing) {
  if (!kCountsAllocations) GTEST_SKIP() << "allocator owned by the sanitizer";
  // 24-byte closures, the size of the machine's injection-resume timer
  // `[this, victim, where, quantum]`: too large for std::function's small
  // buffer, small enough for the slot's inline one.
  EventQueue q;
  std::vector<EventHandle> handles(32);
  std::uint64_t fired = 0;
  SimTime now = 0;
  const auto churn = [&] {
    for (int round = 0; round < 200; ++round) {
      for (std::size_t i = 0; i < handles.size(); ++i) {
        handles[i] = q.schedule(
            now + static_cast<SimTime>(i % 5),
            [&fired, weight = std::uint64_t{3}, id = std::uint32_t(i)](
                SimTime) { fired += weight + id; });
      }
      for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
      while (!q.empty()) now = q.pop_and_run();
    }
  };
  churn();  // warm-up: the arena and the heap reach their working size
  const std::uint64_t fired_warm = fired;
  const std::int64_t before = allocations();
  churn();
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(fired, 2 * fired_warm);
}

TEST(EventQueueAllocTest, ArenaIsFreedWithItsLastOwner) {
  if (!kCountsAllocations) GTEST_SKIP() << "allocator owned by the sanitizer";
  const std::int64_t live0 = live_allocations();
  {
    EventHandle outlives;
    {
      EventQueue q;
      outlives = q.schedule(1, [](SimTime) {});
      q.schedule(2, [](SimTime) {});
      EventHandle copy = outlives;
      EXPECT_TRUE(copy.active());
    }
    // The queue is gone; the handle still owns the (now empty) arena.
    EXPECT_GT(live_allocations(), live0);
    EXPECT_FALSE(outlives.active());
  }
  EXPECT_EQ(live_allocations(), live0);

  {
    EventQueue q;
    EventHandle h = q.schedule(1, [](SimTime) {});
    EXPECT_TRUE(h.cancel());
  }
  EXPECT_EQ(live_allocations(), live0);
}

}  // namespace
}  // namespace dimetrodon::sim
