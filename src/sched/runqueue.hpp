#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/thread.hpp"

namespace dimetrodon::sched {

/// 4.4BSD-style multi-level run queue: 64 buckets of 4 priority values each,
/// round robin within a bucket (the structure of FreeBSD 7.2's default
/// scheduler, which the paper modified). Priorities grow with accumulated CPU
/// usage (estcpu) and nice, so CPU hogs sink below interactive threads.
///
/// Layout follows FreeBSD's own `runq`: one occupancy word whose bit b is set
/// iff bucket b is non-empty (`rq_status` over `rq_queues`). Every walk
/// visits set bits only, lowest first, so a machine that uses a handful of
/// buckets never touches the rest. Buckets are plain vectors: an empty one
/// owns no heap memory, which keeps an idle fleet node's queue at its
/// inline size.
class RunQueue {
 public:
  static constexpr int kNumBuckets = 64;
  static constexpr int kPriKernel = 16;   // interrupt/kernel threads
  static constexpr int kPriUserBase = 120;  // PUSER-like base
  static constexpr int kPriMax = 255;

  /// BSD priority for a thread from its class, estcpu and nice.
  static int priority_of(const Thread& t);

  /// Insert at the tail of its priority bucket.
  void enqueue(Thread* t);

  /// Insert at the head of its priority bucket (used to return a thread that
  /// was displaced by an injected idle quantum without losing its turn).
  void enqueue_front(Thread* t);

  /// Pop the best thread eligible to run on `core` (honors pins/affinity).
  /// Returns nullptr if none.
  Thread* pick(CoreId core);

  /// Best eligible thread without removing it.
  Thread* peek(CoreId core) const;

  /// Remove a specific thread (e.g. it exited while queued). Returns true if
  /// it was present.
  bool remove(Thread* t);

  /// Remove every queued thread, appending them to `out` in priority order
  /// (used by the schedcpu decay pass, which must re-bucket all threads
  /// including pinned ones).
  void drain_all(std::vector<Thread*>& out);

  /// Append every queued thread to `out` in dequeue order (bucket-major,
  /// FIFO within bucket) without disturbing the queue. Re-enqueueing them in
  /// this order into an empty queue — after their estcpu/nice have been
  /// restored — reproduces the bucket contents exactly (snapshot support).
  void queued_in_order(std::vector<Thread*>& out) const {
    for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
      for (Thread* t : buckets_[first_bucket(bits)]) out.push_back(t);
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static std::size_t first_bucket(std::uint64_t bits) {
    return static_cast<std::size_t>(std::countr_zero(bits));
  }
  static std::size_t bucket_of(const Thread& t) {
    return static_cast<std::size_t>(priority_of(t) / 4);
  }
  /// Erase buckets_[b][pos], clearing b's occupancy bit if it empties.
  void erase_at(std::size_t b, std::size_t pos);

  std::array<std::vector<Thread*>, kNumBuckets> buckets_{};
  std::uint64_t occupied_ = 0;  // bit b set iff buckets_[b] is non-empty
  std::size_t size_ = 0;
};

}  // namespace dimetrodon::sched
