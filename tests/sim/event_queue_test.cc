#include "sim/event_queue.h"

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dynvote {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(3.0, [&](SimTime) { order.push_back(3); });
  q.Schedule(1.0, [&](SimTime) { order.push_back(1); });
  q.Schedule(2.0, [&](SimTime) { order.push_back(2); });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoWithinTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(1.0, [&, i](SimTime) { order.push_back(i); });
  }
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CallbackReceivesScheduledTime) {
  EventQueue q;
  SimTime seen = -1.0;
  q.Schedule(4.5, [&](SimTime t) { seen = t; });
  EXPECT_EQ(q.RunNext(), 4.5);
  EXPECT_EQ(seen, 4.5);
}

TEST(EventQueueTest, PeekDoesNotPop) {
  EventQueue q;
  q.Schedule(2.0, [](SimTime) {});
  EXPECT_EQ(q.PeekTime(), 2.0);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventId id = q.Schedule(1.0, [&](SimTime) { ++fired; });
  q.Schedule(2.0, [&](SimTime) { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelUpdatesSizeImmediately) {
  EventQueue q;
  EventId id = q.Schedule(1.0, [](SimTime) {});
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.Schedule(1.0, [](SimTime) {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelAfterFireFails) {
  EventQueue q;
  EventId id = q.Schedule(1.0, [](SimTime) {});
  q.RunNext();
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CancelInvalidAndUnknownIdsFail) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, CancelledHeadSkipped) {
  EventQueue q;
  int fired = -1;
  EventId first = q.Schedule(1.0, [&](SimTime) { fired = 1; });
  q.Schedule(2.0, [&](SimTime) { fired = 2; });
  q.Cancel(first);
  EXPECT_EQ(q.PeekTime(), 2.0);
  q.RunNext();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.Schedule(1.0, [&](SimTime t) {
    fired.push_back(t);
    q.Schedule(t + 1.0, [&](SimTime t2) { fired.push_back(t2); });
  });
  while (!q.Empty() && fired.size() < 3) q.RunNext();
  EXPECT_EQ(fired, (std::vector<SimTime>{1.0, 2.0}));
}

TEST(EventQueueTest, ClearDropsEverything) {
  EventQueue q;
  int fired = 0;
  q.Schedule(1.0, [&](SimTime) { ++fired; });
  q.Schedule(2.0, [&](SimTime) { ++fired; });
  q.Clear();
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  // Insert in a scrambled order; expect monotone execution times.
  for (int i = 0; i < 1000; ++i) {
    q.Schedule(static_cast<SimTime>((i * 7919) % 997), [](SimTime) {});
  }
  SimTime last = -1.0;
  while (!q.Empty()) {
    SimTime t = q.RunNext();
    EXPECT_GE(t, last);
    last = t;
  }
}

TEST(EventQueueTest, TiesFireInScheduleOrderUnderRandomLoad) {
  // Property: across random schedules drawn from a coarse timestamp grid
  // (so ties are common), events sharing a timestamp always fire in the
  // order they were scheduled — the FIFO tie-break the calendar queue
  // and the batched engine's bit-identity contract both lean on. The
  // generator is a fixed LCG, so the test is a pure function of its
  // source.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  for (int trial = 0; trial < 8; ++trial) {
    EventQueue q;
    std::vector<std::pair<SimTime, int>> fired;  // (when, schedule index)
    std::vector<SimTime> scheduled_when(500);
    for (int i = 0; i < 500; ++i) {
      SimTime when = static_cast<SimTime>(next() % 23);
      scheduled_when[i] = when;
      q.Schedule(when, [&fired, when, i](SimTime) {
        fired.push_back({when, i});
      });
    }
    while (!q.Empty()) q.RunNext();

    ASSERT_EQ(fired.size(), 500u);
    for (std::size_t i = 1; i < fired.size(); ++i) {
      ASSERT_LE(fired[i - 1].first, fired[i].first);
      if (fired[i - 1].first == fired[i].first) {
        ASSERT_LT(fired[i - 1].second, fired[i].second)
            << "tie at t=" << fired[i].first
            << " fired out of schedule order (trial " << trial << ")";
      }
    }
  }
}

TEST(EventQueueTest, SameTimeRescheduleFiresAfterIncumbents) {
  // An event scheduled *during* a callback at the current timestamp gets
  // a later sequence number than everything already queued at that time,
  // so it fires after all incumbents.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&](SimTime t) {
    order.push_back(0);
    q.Schedule(t, [&](SimTime) { order.push_back(9); });
  });
  q.Schedule(1.0, [&](SimTime) { order.push_back(1); });
  q.Schedule(1.0, [&](SimTime) { order.push_back(2); });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(EventQueueTest, CancellationDoesNotPerturbTieOrder) {
  // Cancelling one member of a tie group leaves the survivors' relative
  // order untouched.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.Schedule(2.0, [&order, i](SimTime) {
      order.push_back(i);
    }));
  }
  EXPECT_TRUE(q.Cancel(ids[0]));
  EXPECT_TRUE(q.Cancel(ids[3]));
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5}));
}

// --- generation-tagged ids ------------------------------------------------
// An EventId names a slot of the callback table plus the slot's
// generation. Slots are recycled, so these tests pin down that an old id
// never reaches the event that reuses its slot.

TEST(EventQueueTest, FiredIdDoesNotCancelItsSlotsNextEvent) {
  EventQueue q;
  EventId fired_id = q.Schedule(1.0, [](SimTime) {});
  q.RunNext();
  int fired = 0;
  EventId reuser = q.Schedule(2.0, [&](SimTime) { ++fired; });
  EXPECT_NE(reuser, fired_id);
  EXPECT_FALSE(q.Cancel(fired_id));
  EXPECT_EQ(q.Size(), 1u);
  q.RunNext();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelledIdDoesNotCancelItsSlotsNextEvent) {
  EventQueue q;
  EventId cancelled = q.Schedule(1.0, [](SimTime) {});
  EXPECT_TRUE(q.Cancel(cancelled));
  q.Schedule(3.0, [](SimTime) {});
  q.RunNext();  // skims the cancelled node, freeing its slot
  int fired = 0;
  q.Schedule(4.0, [&](SimTime) { ++fired; });
  EXPECT_FALSE(q.Cancel(cancelled));
  q.RunNext();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, IdIssuedBeforeClearCancelsNothing) {
  EventQueue q;
  std::vector<EventId> before;
  for (int i = 0; i < 4; ++i) {
    before.push_back(q.Schedule(1.0 + i, [](SimTime) {}));
  }
  q.Clear();
  int fired = 0;
  for (int i = 0; i < 4; ++i) {
    q.Schedule(1.0 + i, [&](SimTime) { ++fired; });  // reuse every slot
  }
  for (EventId id : before) EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.Size(), 4u);
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(fired, 4);
}

TEST(EventQueueTest, SizeAndEmptyCountOnlyLiveEventsWhileCancelledNodesWait) {
  EventQueue q;
  EventId a = q.Schedule(1.0, [](SimTime) {});
  EventId b = q.Schedule(2.0, [](SimTime) {});
  EventId c = q.Schedule(3.0, [](SimTime) {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_TRUE(q.Cancel(c));
  // Both cancelled nodes are still in the heap (cancellation is lazy).
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_FALSE(q.Empty());
  EXPECT_TRUE(q.Cancel(b));
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_TRUE(q.Empty());
  int fired = 0;
  q.Schedule(5.0, [&](SimTime) { ++fired; });
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PeekTime(), 5.0);
  EXPECT_EQ(q.RunNext(), 5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, EqualTimestampsStayFifoAcrossSlotReuse) {
  // A hold model on a coarse grid: each step fires one event and
  // schedules two at or after it, so slots are recycled constantly and a
  // later-scheduled event often holds a lower slot than its tie-mates.
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  EventQueue q;
  int scheduled = 0;
  std::vector<std::pair<SimTime, int>> fired;  // (when, schedule index)
  std::function<void(SimTime)> schedule_at = [&](SimTime when) {
    const int index = scheduled++;
    q.Schedule(when, [&fired, when, index](SimTime) {
      fired.push_back({when, index});
    });
  };
  for (int i = 0; i < 8; ++i) schedule_at(static_cast<SimTime>(next() % 4));
  while (!q.Empty() && scheduled < 4000) {
    const SimTime now = q.RunNext();
    if (next() % 8 != 0) schedule_at(now + static_cast<SimTime>(next() % 3));
    if (next() % 2 == 0) schedule_at(now + static_cast<SimTime>(next() % 3));
  }
  while (!q.Empty()) q.RunNext();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(scheduled));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      ASSERT_LT(fired[i - 1].second, fired[i].second) << "at " << i;
    }
  }
}

}  // namespace
}  // namespace dynvote
