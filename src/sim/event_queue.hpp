#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace dimetrodon::sim {

namespace detail {

inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// The callback of a scheduled event: a `void(SimTime)` callable (it
/// receives the firing timestamp) held in 32 bytes of inline storage plus an
/// invoke pointer and a manage pointer. A closure that fits the buffer lives
/// in it. If it is also trivially copyable — every closure the machine
/// schedules is: `[this]`, `[this, &core]`, `[this, id]` — the manage
/// pointer is null, a move is a memcpy and destruction is nothing. A
/// closure that fits but owns something (a std::function, a shared_ptr)
/// gets a manager that moves and destroys it; a larger one lives on the
/// heap behind a pointer in the buffer.
class InlineCallback {
 public:
  static constexpr std::size_t kCapacity = 32;
  /// Pointer alignment, like std::function's: an over-aligned closure goes
  /// to the heap, and a slot stays 80 bytes instead of padding to 96.
  static constexpr std::size_t kAlign = alignof(void*);

  InlineCallback() = default;
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_v<std::decay_t<F>&, SimTime>)
  explicit InlineCallback(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* b, SimTime t) { (*static_cast<Fn*>(b))(t); };
      if constexpr (!std::is_trivially_copyable_v<Fn>) {
        manage_ = [](Op op, void* b, void* dst) {
          Fn& held = *static_cast<Fn*>(b);
          if (op == Op::kMoveTo) ::new (dst) Fn(std::move(held));
          held.~Fn();
        };
      }
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* b, SimTime t) { (**static_cast<Fn**>(b))(t); };
      manage_ = [](Op op, void* b, void* dst) {
        Fn* held = *static_cast<Fn**>(b);
        if (op == Op::kMoveTo) {
          ::new (dst) Fn*(held);
        } else {
          delete held;
        }
      };
    }
  }

  InlineCallback(InlineCallback&& o) noexcept { take(o); }
  InlineCallback& operator=(InlineCallback&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  void operator()(SimTime t) { invoke_(buf_, t); }
  explicit operator bool() const { return invoke_ != nullptr; }

  /// Destroy the held closure (and everything it captured); leaves empty.
  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// True if a closure of type F is stored in the buffer, not on the heap.
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kCapacity && alignof(F) <= kAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  enum class Op : std::uint8_t { kMoveTo, kDestroy };
  using Invoke = void (*)(void* buf, SimTime t);
  /// kMoveTo move-constructs the held closure into `dst` and destroys the
  /// original; kDestroy destroys it.
  using Manage = void (*)(Op op, void* buf, void* dst);

  void take(InlineCallback& o) noexcept {
    if (o.manage_ != nullptr) {
      o.manage_(Op::kMoveTo, o.buf_, buf_);
    } else {
      std::memcpy(buf_, o.buf_, kCapacity);
    }
    invoke_ = std::exchange(o.invoke_, nullptr);
    manage_ = std::exchange(o.manage_, nullptr);
  }

  alignas(kAlign) unsigned char buf_[kCapacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

/// One control slot in the arena: the owner of a pending event's callback
/// and the authority on whether that event is still live. A slot is (re)used
/// by many events over its lifetime. A handle captures (slot, gen) at
/// schedule time and goes inert once the generation moves on (the event
/// fired or was cancelled); a heap entry captures (slot, seq) and is live
/// only while the slot is occupied by that same seq. `at`/`seq` are mirrored
/// here so a live handle can report its scheduled time and tie-break rank
/// without touching the heap.
struct ControlSlot {
  std::uint64_t gen = 0;
  SimTime at = 0;
  std::uint64_t seq = 0;
  InlineCallback fn;
  std::uint32_t next_free = kNoSlot;
  bool occupied = false;
};
static_assert(sizeof(ControlSlot) == 80);

/// Slab of control slots with an intrusive free list. Steady-state timer
/// churn (schedule/cancel/fire) recycles slots with zero allocation, and the
/// live count sits in one place. The queue and every handle each hold one
/// owner reference (ArenaRef), so handles may safely outlive the queue; the
/// arena is freed with its last owner.
struct ControlArena {
  std::vector<ControlSlot> slots;
  std::uint32_t free_head = kNoSlot;
  std::size_t live = 0;
  /// Plain, non-atomic: a queue and its handles live inside one machine,
  /// which runs on one thread at a time (the thread pool's task hand-off
  /// orders any move to another thread).
  std::uint32_t owners = 0;

  std::uint32_t alloc(SimTime at, std::uint64_t seq, InlineCallback&& fn);
  /// Bump gen, push on the free list, and destroy the slot's callback (and
  /// with it everything the closure captured) at once.
  void release(std::uint32_t idx);
  bool matches(std::uint32_t idx, std::uint64_t gen) const {
    return idx != kNoSlot && slots[idx].occupied && slots[idx].gen == gen;
  }
  bool holds(std::uint32_t idx, std::uint64_t seq) const {
    return slots[idx].occupied && slots[idx].seq == seq;
  }
};

/// Owner reference to a ControlArena: an intrusive, non-atomic count in
/// place of shared_ptr, whose count is a locked read-modify-write in any
/// binary that links threads.
class ArenaRef {
 public:
  ArenaRef() = default;
  explicit ArenaRef(ControlArena* a) : arena_(a) {
    if (arena_ != nullptr) ++arena_->owners;
  }
  ArenaRef(const ArenaRef& o) : ArenaRef(o.arena_) {}
  ArenaRef(ArenaRef&& o) noexcept : arena_(std::exchange(o.arena_, nullptr)) {}
  ArenaRef& operator=(ArenaRef o) noexcept {
    std::swap(arena_, o.arena_);
    return *this;
  }
  ~ArenaRef() { reset(); }

  void reset() {
    ControlArena* a = std::exchange(arena_, nullptr);
    if (a != nullptr && --a->owners == 0) delete a;
  }
  ControlArena* operator->() const { return arena_; }
  explicit operator bool() const { return arena_ != nullptr; }

 private:
  ControlArena* arena_ = nullptr;
};

}  // namespace detail

/// Handle to a scheduled event; allows O(1) cancellation. Cancelled events
/// stay in the heap but are skipped when popped.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event. Safe to call multiple times or on a default-constructed
  /// (empty) handle; returns true if the event was live and is now cancelled.
  bool cancel();

  /// True if this handle refers to an event that has neither fired nor been
  /// cancelled.
  bool active() const;

  /// Scheduled time of a live event; kTimeInfinity if not active().
  SimTime time() const;

  /// Tie-break rank of a live event: among events at equal time, lower seq
  /// fires first. 0 if not active(). The machine snapshot layer sorts by this
  /// when re-arming so restored ties fire in the captured order.
  std::uint64_t seq() const;

 private:
  friend class EventQueue;
  EventHandle(detail::ArenaRef arena, std::uint32_t slot, std::uint64_t gen)
      : arena_(std::move(arena)), slot_(slot), gen_(gen) {}

  detail::ArenaRef arena_;
  std::uint32_t slot_ = detail::kNoSlot;
  std::uint64_t gen_ = 0;
};

/// Min-heap of timestamped callbacks. Ties break by insertion order so event
/// delivery is fully deterministic.
///
/// The heap holds plain 24-byte (at, seq, slot) entries; the callback lives
/// in the entry's arena slot as an InlineCallback, so sifts move no
/// closures and scheduling a closure of up to 32 bytes allocates nothing.
/// An entry is live while its slot is occupied by the same seq.
///
/// Cancellation is lazy, but bounded: when cancelled carcasses outnumber
/// live events in a sufficiently large heap, the heap is compacted in place,
/// so timer-churn workloads (a web run cancelling millions of timeouts) hold
/// O(live) memory instead of growing with cancellation history. Compaction
/// preserves the (time, seq) total order, so delivery stays deterministic.
class EventQueue {
 public:
  EventQueue() : arena_(new detail::ControlArena) {}
  // Pending callbacks live in the arena, which outlasting handles keep
  // alive; dropping them here keeps a closure that captures a handle from
  // pinning the arena (and itself) forever.
  ~EventQueue() { clear(); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn`, any `void(SimTime)` callable, at absolute time `at`.
  /// Requires 0 <= at < kTimeInfinity (next_time() reserves kTimeInfinity
  /// for "empty").
  template <typename F>
  EventHandle schedule(SimTime at, F&& fn) {
    return schedule_callback(at, detail::InlineCallback(std::forward<F>(fn)));
  }

  /// True if no live events remain. (Lazily discards cancelled heap entries.)
  bool empty() {
    drop_dead_head();
    return heap_.empty();
  }

  /// Timestamp of the earliest live event; kTimeInfinity when empty.
  SimTime next_time() {
    drop_dead_head();
    return heap_.empty() ? kTimeInfinity : heap_.front().at;
  }

  /// Pop and run the earliest live event, returning its timestamp. The
  /// callback is moved out of its slot and the slot released before it runs.
  /// Delivery passing the parked place (see park()) draws its seq first.
  /// Requires !empty().
  SimTime pop_and_run();

  // --- parking a periodic event -------------------------------------------
  //
  // A self-rescheduling periodic event (period p) whose owner knows it to be
  // a no-op for a while can be parked instead of run. The queue then keeps
  // the event's (at, seq) place without a heap entry: each time delivery
  // passes that place, the queue draws the seq that the event's own
  // reschedule would have drawn there and moves the place on by p. So a
  // parked event costs no pop and no callback, and unpark() schedules it in
  // exactly the (at, seq) place it would hold had it run all along. One
  // parked event per queue.

  /// Park the periodic event whose next firing is `at`, drawing that
  /// firing's seq now, exactly as schedule() would. Requires !parked().
  void park(SimTime at, SimTime period);

  /// Cancel the live event `h` and park it in its own (at, seq) place.
  /// Requires h.active() and !parked().
  void park(EventHandle& h, SimTime period);

  /// Schedule `fn` in the parked place and stop parking. Requires parked().
  template <typename F>
  EventHandle unpark(F&& fn) {
    assert(parked());
    const Parked p = std::exchange(parked_, Parked{});
    return insert(p.at, p.seq, detail::InlineCallback(std::forward<F>(fn)));
  }

  bool parked() const { return parked_.at != kTimeInfinity; }
  /// The parked place; kTimeInfinity and 0 when nothing is parked.
  SimTime parked_time() const { return parked_.at; }
  std::uint64_t parked_seq() const { return parked_.seq; }

  /// Delivery has run everything up to and including time `t` (the end of
  /// Simulator::run_until): pass the parked place over every firing at or
  /// before `t`.
  void pass_parked_through(SimTime t) {
    while (parked_.at <= t) pass_parked_once();
  }

  /// Number of live (non-cancelled, unfired) events.
  std::size_t size() const { return arena_->live; }

  /// Heap entries actually held, live + cancelled-but-not-yet-dropped
  /// (memory-bound diagnostics; compaction keeps this O(size())).
  std::size_t heap_entries() const { return heap_.size(); }

  /// Drop every pending event (their handles go inert, as if cancelled) and
  /// the parked place. Used by snapshot restore, which re-arms the captured
  /// event set from scratch; seq numbering keeps counting up, so relative
  /// tie order of anything scheduled afterwards is unaffected.
  void clear();

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) == 24 && std::is_trivially_copyable_v<Entry>);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// The parked periodic event's next firing; at == kTimeInfinity when
  /// nothing is parked, so the delivery check is one compare.
  struct Parked {
    SimTime at = kTimeInfinity;
    std::uint64_t seq = 0;
    SimTime period = 0;
  };

  EventHandle schedule_callback(SimTime at, detail::InlineCallback&& fn);
  EventHandle insert(SimTime at, std::uint64_t seq,
                     detail::InlineCallback&& fn);
  bool entry_live(const Entry& e) const { return arena_->holds(e.slot, e.seq); }
  /// The live-head test stays inline; only a cancelled head goes out of line.
  void drop_dead_head() {
    if (!heap_.empty() && !entry_live(heap_.front())) drop_cancelled_head();
  }
  void drop_cancelled_head();
  void maybe_compact();
  /// The parked event's firing at parked_.at happens: draw its reschedule's
  /// seq and move on one period.
  void pass_parked_once() {
    parked_.seq = next_seq_++;
    parked_.at += parked_.period;
  }

  // Managed with std::push_heap/pop_heap rather than std::priority_queue:
  // compaction needs to walk and filter the underlying storage.
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  Parked parked_;
  detail::ArenaRef arena_;
};

}  // namespace dimetrodon::sim
