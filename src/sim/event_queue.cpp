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
  return insert(at, next_seq_++, std::move(fn));
}

EventHandle EventQueue::insert(SimTime at, std::uint64_t seq,
                               detail::InlineCallback&& fn) {
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

void EventQueue::park(SimTime at, SimTime period) {
  assert(!parked() && at >= 0 && at != kTimeInfinity && period > 0);
  parked_ = Parked{at, next_seq_++, period};
}

void EventQueue::park(EventHandle& h, SimTime period) {
  assert(!parked() && h.active() && period > 0);
  parked_ = Parked{h.time(), h.seq(), period};
  h.cancel();
}

SimTime EventQueue::pop_and_run() {
  // Simulator::run_until and step() have just called next_time(), so the
  // head is live and this is one inline test; a direct caller that
  // cancelled the head since still gets it dropped here.
  drop_dead_head();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  // The parked event fires before every event it precedes in (at, seq).
  while (parked_.at < e.at || (parked_.at == e.at && parked_.seq < e.seq)) {
    pass_parked_once();
  }
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
  parked_ = Parked{};
  assert(arena_->live == 0);
}

}  // namespace dimetrodon::sim
