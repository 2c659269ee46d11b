#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace dimetrodon::sim {

namespace detail {

inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// Callback type of every scheduled event; receives the firing timestamp.
using EventCallback = std::function<void(SimTime)>;

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
  EventCallback fn;
  std::uint32_t next_free = kNoSlot;
  bool occupied = false;
};

/// Slab of control slots with an intrusive free list. Steady-state timer
/// churn (schedule/cancel/fire) recycles slots with zero allocation, and the
/// live count sits in one place. Held by shared_ptr so handles may safely
/// outlive the queue.
struct ControlArena {
  std::vector<ControlSlot> slots;
  std::uint32_t free_head = kNoSlot;
  std::size_t live = 0;

  std::uint32_t alloc(SimTime at, std::uint64_t seq, EventCallback fn);
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
  EventHandle(std::shared_ptr<detail::ControlArena> arena, std::uint32_t slot,
              std::uint64_t gen)
      : arena_(std::move(arena)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::ControlArena> arena_;
  std::uint32_t slot_ = detail::kNoSlot;
  std::uint64_t gen_ = 0;
};

/// Min-heap of timestamped callbacks. Ties break by insertion order so event
/// delivery is fully deterministic.
///
/// The heap holds plain 24-byte (at, seq, slot) entries; the callback lives
/// in the entry's arena slot, so sifts move no closures. An entry is live
/// while its slot is occupied by the same seq.
///
/// Cancellation is lazy, but bounded: when cancelled carcasses outnumber
/// live events in a sufficiently large heap, the heap is compacted in place,
/// so timer-churn workloads (a web run cancelling millions of timeouts) hold
/// O(live) memory instead of growing with cancellation history. Compaction
/// preserves the (time, seq) total order, so delivery stays deterministic.
class EventQueue {
 public:
  using Callback = detail::EventCallback;

  EventQueue() : arena_(std::make_shared<detail::ControlArena>()) {}
  // Pending callbacks live in the arena, which outlasting handles keep
  // alive; dropping them here keeps a closure that captures a handle from
  // pinning the arena (and itself) forever.
  ~EventQueue() { clear(); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at`. Requires 0 <= at < kTimeInfinity
  /// (next_time() reserves kTimeInfinity for "empty").
  EventHandle schedule(SimTime at, Callback fn);

  /// True if no live events remain. (Lazily discards cancelled heap entries.)
  bool empty();

  /// Timestamp of the earliest live event; kTimeInfinity when empty.
  SimTime next_time();

  /// Pop and run the earliest live event, returning its timestamp. The
  /// callback is moved out of its slot and the slot released before it runs.
  /// Requires !empty().
  SimTime pop_and_run();

  /// Number of live (non-cancelled, unfired) events.
  std::size_t size() const { return arena_->live; }

  /// Heap entries actually held, live + cancelled-but-not-yet-dropped
  /// (memory-bound diagnostics; compaction keeps this O(size())).
  std::size_t heap_entries() const { return heap_.size(); }

  /// Drop every pending event (their handles go inert, as if cancelled).
  /// Used by snapshot restore, which re-arms the captured event set from
  /// scratch; seq numbering keeps counting up, so relative tie order of
  /// anything scheduled afterwards is unaffected.
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

  bool entry_live(const Entry& e) const { return arena_->holds(e.slot, e.seq); }
  void drop_cancelled_head();
  void maybe_compact();

  // Managed with std::push_heap/pop_heap rather than std::priority_queue:
  // compaction needs to walk and filter the underlying storage.
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::shared_ptr<detail::ControlArena> arena_;
};

}  // namespace dimetrodon::sim
