// A discrete-event calendar: a binary min-heap of plain-data (time,
// sequence, slot) nodes with O(log n) insertion and extraction and O(1)
// lazy cancellation. Ties in time are broken by insertion order, so runs
// are deterministic.
//
// Callbacks live off-heap in a slot table recycled through a free list;
// sifting moves only the 24-byte nodes. An EventId packs a slot index with
// that slot's generation, which advances whenever the slot is released
// (its event fired, its cancelled node was skimmed, or the queue was
// cleared), so a stale id can never reach the event that later reuses
// its slot.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace dynvote {

/// Opaque handle identifying a scheduled event; used for cancellation.
using EventId = std::uint64_t;

/// Sentinel returned when no event was scheduled.
inline constexpr EventId kInvalidEventId = 0;

/// Priority queue of timed callbacks.
///
/// Not thread-safe: the simulator is single-threaded by design (discrete
/// event simulation has a total order of events).
class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `callback` to fire at absolute time `when`. Returns a handle
  /// that can be passed to Cancel().
  EventId Schedule(SimTime when, Callback callback);

  /// Cancels a scheduled event. Returns true if the event existed and had
  /// not yet fired. Cancellation is lazy: the entry stays in the heap and
  /// is dropped when popped.
  bool Cancel(EventId id);

  /// True iff no live events remain.
  bool Empty() const { return live_ == 0; }

  /// Number of live (scheduled, uncancelled, unfired) events.
  std::size_t Size() const { return live_; }

  /// Time of the earliest live event. Must not be called when Empty().
  SimTime PeekTime();

  /// Pops and runs the earliest live event. Returns its time. Must not be
  /// called when Empty().
  SimTime RunNext();

  /// Removes all events. Ids issued before the call cancel nothing.
  void Clear();

 private:
  /// Heap node: 24 bytes, ordered by (when, seq). `seq` is unique, so the
  /// order is total and any correct heap pops the same sequence.
  struct Node {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Node) == 24);
  /// Off-heap state of one event. A slot is owned by exactly one heap node
  /// from Schedule until that node is popped (fired or skimmed), and sits
  /// on the free list otherwise.
  struct Slot {
    Callback callback;
    std::uint32_t generation = 1;  // never 0, so no id equals kInvalidEventId
    bool live = false;             // scheduled, not yet fired or cancelled
  };

  /// Heap comparator: std::push_heap/pop_heap keep the greatest element
  /// on top, so "greater" means "fires later".
  static bool After(const Node& a, const Node& b) {
    return a.when > b.when || (a.when == b.when && a.seq > b.seq);
  }

  /// Drops cancelled nodes from the heap top, recycling their slots.
  void SkimCancelled();
  /// Removes heap_[0], restoring the heap property.
  void PopTop();
  /// Returns `slot` to the free list under a new generation.
  void Release(std::uint32_t slot);

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dynvote
