#include "sim/event_queue.h"

#include <algorithm>

#include "util/logging.h"

namespace dynvote {

EventId EventQueue::Schedule(SimTime when, Callback callback) {
  DYNVOTE_CHECK_MSG(callback != nullptr, "scheduled a null callback");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.callback = std::move(callback);
  s.live = true;
  ++live_;

  heap_.push_back(Node{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), After);
  return (EventId{s.generation} << 32) | slot;
}

bool EventQueue::Cancel(EventId id) {
  // Only ids that are still live (scheduled, unfired, uncancelled) may be
  // cancelled; anything else — never issued, already fired, already
  // cancelled, issued before Clear() — is a no-op. A fired or cleared
  // slot has moved to a new generation, so its old ids miss even after
  // the slot is reused.
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.generation != generation) return false;
  s.live = false;
  --live_;
  return true;
}

void EventQueue::Release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.callback = nullptr;
  s.live = false;
  if (++s.generation == 0) s.generation = 1;
  free_.push_back(slot);
}

void EventQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), After);
  heap_.pop_back();
}

void EventQueue::SkimCancelled() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    const std::uint32_t slot = heap_.front().slot;
    PopTop();
    Release(slot);
  }
}

SimTime EventQueue::PeekTime() {
  SkimCancelled();
  DYNVOTE_CHECK_MSG(!heap_.empty(), "PeekTime on empty queue");
  return heap_.front().when;
}

SimTime EventQueue::RunNext() {
  SkimCancelled();
  DYNVOTE_CHECK_MSG(!heap_.empty(), "RunNext on empty queue");
  const Node top = heap_.front();
  PopTop();
  // Move the callback out and recycle the slot before running it: the
  // callback may schedule (reusing this slot) or clear the queue.
  Callback cb = std::move(slots_[top.slot].callback);
  --live_;
  Release(top.slot);
  cb(top.when);
  return top.when;
}

void EventQueue::Clear() {
  // Every node owns its slot, cancelled or not; releasing them all moves
  // each to a new generation, so no earlier id can cancel a later event.
  for (const Node& node : heap_) Release(node.slot);
  heap_.clear();
  live_ = 0;
}

}  // namespace dynvote
