// Randomized differential test: EventQueue against a trivially correct
// reference implementation (sorted multimap), over long interleavings of
// schedule / cancel / run / clear operations.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace dynvote {
namespace {

class ReferenceQueue {
 public:
  EventId Schedule(SimTime when) {
    EventId id = next_id_++;
    by_time_.emplace(std::make_pair(when, id), id);
    return id;
  }

  bool Cancel(EventId id) {
    for (auto it = by_time_.begin(); it != by_time_.end(); ++it) {
      if (it->second == id) {
        by_time_.erase(it);
        return true;
      }
    }
    return false;
  }

  void Clear() { by_time_.clear(); }

  bool Empty() const { return by_time_.empty(); }
  std::size_t Size() const { return by_time_.size(); }

  /// Pops the earliest event (FIFO within equal times thanks to the id
  /// tie-break) and returns (time, id).
  std::pair<SimTime, EventId> Pop() {
    auto it = by_time_.begin();
    auto out = std::make_pair(it->first.first, it->second);
    by_time_.erase(it);
    return out;
  }

 private:
  // key: (time, id) — id order equals insertion order, giving FIFO.
  std::map<std::pair<SimTime, EventId>, EventId> by_time_;
  EventId next_id_ = 1;
};

// Runs `steps` random operations against EventQueue and the reference
// and returns the largest number of pending events seen. Both queues are
// cleared at every step whose index is `clear_period` - 1 modulo
// `clear_period`; the other steps schedule, cancel or run in the ratio
// 5 : 2 : 3, under which about 0.16 events pile up per step.
//
// The two queues issue ids from different encodings (the reference
// counts; EventQueue packs slot and generation), so each reference id is
// mapped to the queue id issued in the same step. Cancels aim at
// scheduled ids and at spent ones — fired (their slot is usually reused
// by then), cancelled, or issued before a Clear() — which both queues
// must refuse; every fired event must be the one the reference pops.
std::size_t RunAgainstReference(std::uint64_t seed, int steps,
                                int clear_period) {
  Rng rng(seed);
  EventQueue queue;
  ReferenceQueue reference;
  std::map<EventId, EventId> to_queue;  // reference id -> queue id
  std::vector<EventId> issued;          // reference ids, in issue order
  std::vector<EventId> spent;           // fired / cancelled / cleared
  EventId fired_ref = kInvalidEventId;
  std::size_t max_size = 0;

  for (int step = 0; step < steps; ++step) {
    int op = static_cast<int>(rng.NextBounded(10));
    if (step % clear_period == clear_period - 1) {
      // Every id issued so far is spent.
      queue.Clear();
      reference.Clear();
      spent.insert(spent.end(), issued.begin(), issued.end());
      issued.clear();
    } else if (op < 5) {  // schedule
      SimTime when = static_cast<SimTime>(rng.NextBounded(1000));
      EventId ref_id = reference.Schedule(when);
      EventId id = queue.Schedule(
          when, [&fired_ref, ref_id](SimTime) { fired_ref = ref_id; });
      EXPECT_NE(id, kInvalidEventId);
      to_queue[ref_id] = id;
      issued.push_back(ref_id);
    } else if (op < 7) {  // cancel something (scheduled, spent, or bogus)
      EventId ref_target;
      EventId target;
      double pick = rng.NextDouble();
      if (!issued.empty() && pick < 0.6) {
        ref_target = issued[rng.NextBounded(issued.size())];
        target = to_queue.at(ref_target);
      } else if (!spent.empty() && pick < 0.9) {
        ref_target = spent[rng.NextBounded(spent.size())];
        target = to_queue.at(ref_target);
      } else {
        ref_target = target = 999999 + rng.NextBounded(100);  // never issued
      }
      bool cancelled = queue.Cancel(target);
      EXPECT_EQ(cancelled, reference.Cancel(ref_target))
          << "cancel divergence at step " << step;
      if (cancelled) spent.push_back(ref_target);
    } else {  // run next
      EXPECT_EQ(queue.Empty(), reference.Empty());
      if (queue.Empty()) continue;
      auto [ref_time, ref_id] = reference.Pop();
      EXPECT_EQ(queue.PeekTime(), ref_time) << "step " << step;
      SimTime t = queue.RunNext();
      EXPECT_EQ(t, ref_time) << "step " << step;
      EXPECT_EQ(fired_ref, ref_id) << "step " << step;
      spent.push_back(ref_id);
    }
    EXPECT_EQ(queue.Size(), reference.Size()) << "step " << step;
    if (::testing::Test::HasFailure()) return max_size;
    max_size = std::max(max_size, queue.Size());
  }

  // Drain: remaining events must come out in identical order.
  while (!reference.Empty()) {
    auto [ref_time, ref_id] = reference.Pop();
    EXPECT_EQ(queue.RunNext(), ref_time);
    EXPECT_EQ(fired_ref, ref_id);
    if (::testing::Test::HasFailure()) return max_size;
  }
  EXPECT_TRUE(queue.Empty());
  return max_size;
}

TEST(EventQueueFuzzTest, MatchesReferenceOverRandomOps) {
  // Two clears only, so the heap grows thousands of events deep and lazy
  // cancels are skimmed from deep inside it.
  const std::size_t max_size = RunAgainstReference(0xD1FF, 50000, 20000);
  EXPECT_GE(max_size, 1000u);
}

TEST(EventQueueFuzzTest, MatchesReferenceWithFrequentClears) {
  // A clear about every hundred steps: ids from before a Clear() are
  // spent often, while their slots are reused by the next events.
  RunAgainstReference(0xC1EA, 20000, 97);
}

}  // namespace
}  // namespace dynvote
