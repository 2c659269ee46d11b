#include "sched/runqueue.hpp"

#include <algorithm>
#include <cassert>

namespace dimetrodon::sched {

static_assert(RunQueue::kNumBuckets == 64,
              "the occupancy word has one bit per bucket");

int RunQueue::priority_of(const Thread& t) {
  if (t.thread_class() == ThreadClass::kKernel) return kPriKernel;
  // pri = PUSER + estcpu/4 + 2*nice, clamped — the classic 4.4BSD formula.
  const int pri = kPriUserBase + static_cast<int>(t.estcpu() / 4.0) +
                  2 * t.nice();
  return std::clamp(pri, kPriUserBase, kPriMax);
}

void RunQueue::enqueue(Thread* t) {
  assert(t != nullptr);
  const std::size_t b = bucket_of(*t);
  buckets_[b].push_back(t);
  occupied_ |= std::uint64_t{1} << b;
  ++size_;
}

void RunQueue::enqueue_front(Thread* t) {
  assert(t != nullptr);
  const std::size_t b = bucket_of(*t);
  buckets_[b].insert(buckets_[b].begin(), t);
  occupied_ |= std::uint64_t{1} << b;
  ++size_;
}

void RunQueue::erase_at(std::size_t b, std::size_t pos) {
  auto& bucket = buckets_[b];
  bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(pos));
  if (bucket.empty()) occupied_ &= ~(std::uint64_t{1} << b);
  --size_;
}

Thread* RunQueue::pick(CoreId core) {
  for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
    const std::size_t b = first_bucket(bits);
    const auto& bucket = buckets_[b];
    for (std::size_t pos = 0; pos < bucket.size(); ++pos) {
      Thread* t = bucket[pos];
      if (t->runnable_on(core)) {
        erase_at(b, pos);
        return t;
      }
    }
  }
  return nullptr;
}

Thread* RunQueue::peek(CoreId core) const {
  for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
    for (Thread* t : buckets_[first_bucket(bits)]) {
      if (t->runnable_on(core)) return t;
    }
  }
  return nullptr;
}

void RunQueue::drain_all(std::vector<Thread*>& out) {
  for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
    auto& bucket = buckets_[first_bucket(bits)];
    out.insert(out.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  occupied_ = 0;
  size_ = 0;
}

bool RunQueue::remove(Thread* t) {
  for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
    const std::size_t b = first_bucket(bits);
    const auto& bucket = buckets_[b];
    const auto it = std::find(bucket.begin(), bucket.end(), t);
    if (it != bucket.end()) {
      erase_at(b, static_cast<std::size_t>(it - bucket.begin()));
      return true;
    }
  }
  return false;
}

}  // namespace dimetrodon::sched
