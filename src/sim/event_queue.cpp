#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dimetrodon::sim {

namespace {
// Below this heap size compaction isn't worth the pass: the lazy drop at the
// head already bounds small queues.
constexpr std::size_t kCompactMinEntries = 64;
}  // namespace

namespace detail {

std::uint32_t ControlArena::alloc(SimTime at, std::uint64_t seq,
                                  InlineCallback&& fn) {
  std::uint32_t idx;
  if (free_head != kNoSlot) {
    idx = free_head;
    free_head = slots[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots.size());
    slots.emplace_back();
  }
  ControlSlot& s = slots[idx];
  s.at = at;
  s.seq = seq;
  s.fn = std::move(fn);
  s.next_free = kNoSlot;
  s.occupied = true;
  ++live;
  return idx;
}

void ControlArena::release(std::uint32_t idx) {
  ControlSlot& s = slots[idx];
  assert(s.occupied);
  s.occupied = false;
  ++s.gen;  // every outstanding (slot, gen) capture goes inert
  s.next_free = free_head;
  free_head = idx;
  --live;
  // Destroy the closure last, from a local: its captures' destructors may
  // re-enter the queue, and must find the slot already released.
  InlineCallback dead = std::move(s.fn);
}

}  // namespace detail

bool EventHandle::cancel() {
  if (!arena_ || !arena_->matches(slot_, gen_)) return false;
  arena_->release(slot_);
  arena_.reset();
  return true;
}

bool EventHandle::active() const {
  return arena_ && arena_->matches(slot_, gen_);
}

SimTime EventHandle::time() const {
  return active() ? arena_->slots[slot_].at : kTimeInfinity;
}

std::uint64_t EventHandle::seq() const {
  return active() ? arena_->slots[slot_].seq : 0;
}

EventHandle EventQueue::schedule_callback(SimTime at,
                                          detail::InlineCallback&& fn) {
  assert(at >= 0 && at != kTimeInfinity);
  maybe_compact();
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = arena_->alloc(at, seq, std::move(fn));
  const std::uint64_t gen = arena_->slots[slot].gen;
  heap_.push_back(Entry{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle(arena_, slot, gen);
}

void EventQueue::maybe_compact() {
  // Every heap entry is either pending (counted in arena live) or a stale
  // carcass awaiting its turn at the head; once carcasses are the majority
  // of a large heap, sweep them all at once. Amortized O(1) per schedule:
  // a compaction of n entries is paid for by the >= n/2 cancellations that
  // forced it.
  if (heap_.size() < kCompactMinEntries) return;
  const std::size_t cancelled = heap_.size() - arena_->live;
  if (cancelled * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  heap_.shrink_to_fit();
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::empty() {
  drop_cancelled_head();
  return heap_.empty();
}

SimTime EventQueue::next_time() {
  drop_cancelled_head();
  return heap_.empty() ? kTimeInfinity : heap_.front().at;
}

SimTime EventQueue::pop_and_run() {
  drop_cancelled_head();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  // Move the callback out before running it: it may schedule new events,
  // which can reuse this slot or reallocate the arena.
  detail::InlineCallback fn = std::move(arena_->slots[e.slot].fn);
  arena_->release(e.slot);  // fired: outstanding handles go inert
  fn(e.at);
  return e.at;
}

void EventQueue::clear() {
  for (const Entry& e : heap_) {
    if (entry_live(e)) arena_->release(e.slot);
  }
  heap_.clear();
  assert(arena_->live == 0);
}

}  // namespace dimetrodon::sim
