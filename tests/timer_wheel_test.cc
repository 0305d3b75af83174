// Timer-wheel semantics (sim/timer_wheel.h), driven through the Scheduler:
// same-tick FIFO ordering, cancel/re-arm, eager cancellation out of any slot
// position or wheel level, far-future timers crossing wheel levels, and
// RunUntil boundary behavior. The schedule-hash equivalence test
// (tests/schedule_hash_test.cc) pins the wheel's dispatch order against the
// golden hashes of the heap it replaced; this file covers the wheel's own
// contract at the edges those cluster runs don't reach.
#include "sim/timer_wheel.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace cfs::sim {
namespace {

TEST(TimerWheel, SameTickRunsInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  // All at the same virtual time: dispatch must follow insertion (seq) order.
  for (int i = 0; i < 100; i++) {
    sched.At(50, [&order, i] { order.push_back(i); });
  }
  sched.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; i++) EXPECT_EQ(order[i], i);
}

TEST(TimerWheel, SameTickInsertionDuringDispatchRunsAfterEarlierInserts) {
  Scheduler sched;
  std::vector<std::string> order;
  sched.At(10, [&] {
    order.push_back("a");
    // Inserted mid-dispatch at the current tick: higher seq, so it runs
    // after everything already queued for t=10.
    sched.At(10, [&] { order.push_back("a.child"); });
  });
  sched.At(10, [&] { order.push_back("b"); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a.child"}));
}

TEST(TimerWheel, InterleavedTimesDispatchInTimeThenSeqOrder) {
  Scheduler sched;
  std::vector<int> order;
  // Insertion order deliberately scrambled across times.
  sched.At(30, [&] { order.push_back(30); });
  sched.At(10, [&] { order.push_back(10); });
  sched.At(20, [&] { order.push_back(20); });
  sched.At(10, [&] { order.push_back(11); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 30}));
}

TEST(TimerWheel, CancelPreventsExecutionAndReportsStaleness) {
  Scheduler sched;
  int fired = 0;
  Scheduler::TimerId id = sched.ScheduleAfter(100, [&] { fired++; });
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_EQ(sched.pending(), 0u);
  // Double-cancel and cancel-after-run are both stale.
  EXPECT_FALSE(sched.Cancel(id));
  sched.Run();
  EXPECT_EQ(fired, 0);

  Scheduler::TimerId ran = sched.ScheduleAfter(5, [&] { fired++; });
  sched.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sched.Cancel(ran));
}

TEST(TimerWheel, CancelThenRearmFiresOnlyTheNewTimer) {
  Scheduler sched;
  std::vector<int> fired;
  Scheduler::TimerId id = sched.ScheduleAt(100, [&] { fired.push_back(1); });
  EXPECT_TRUE(sched.Cancel(id));
  // Re-arm at a different time; the recycled node must not resurrect the
  // cancelled callback or confuse the new id with the old one.
  Scheduler::TimerId id2 = sched.ScheduleAt(60, [&] { fired.push_back(2); });
  EXPECT_FALSE(sched.Cancel(id));  // old id stays stale
  sched.Run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_FALSE(sched.Cancel(id2));
}

TEST(TimerWheel, FarFutureTimersCrossWheelLevels) {
  Scheduler sched;
  std::vector<uint64_t> order;
  // One timer per wheel level: byte k of the delay is non-zero, so each is
  // filed at a different level and must cascade down as the cursor advances.
  std::vector<uint64_t> delays = {
      3,                  // level 0
      700,                // level 1
      70'000,             // level 2
      17'000'000,         // level 3
      5'000'000'000,      // level 4
      1'200'000'000'000,  // level 5
  };
  // Insert far-first so correctness can't come from insertion order.
  for (auto it = delays.rbegin(); it != delays.rend(); ++it) {
    uint64_t d = *it;
    sched.After(static_cast<SimDuration>(d), [&order, d] { order.push_back(d); });
  }
  sched.Run();
  EXPECT_EQ(order, delays);
  EXPECT_EQ(sched.Now(), static_cast<SimTime>(delays.back()));
}

TEST(TimerWheel, CascadedTimersLandOnExactTicks) {
  Scheduler sched;
  // Two timers one tick apart, far enough out to start two levels up:
  // after cascading they must still fire at distinct, exact times.
  std::vector<SimTime> at;
  sched.After(65'537, [&] { at.push_back(sched.Now()); });
  sched.After(65'536, [&] { at.push_back(sched.Now()); });
  sched.Run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], 65'536);
  EXPECT_EQ(at[1], 65'537);
}

TEST(TimerWheel, RunUntilExecutesBoundaryInclusiveAndParksClock) {
  Scheduler sched;
  std::vector<int> fired;
  sched.At(10, [&] { fired.push_back(10); });
  sched.At(20, [&] { fired.push_back(20); });
  sched.At(21, [&] { fired.push_back(21); });
  sched.RunUntil(20);
  // Boundary is inclusive; later events stay queued; clock parks at t.
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sched.Now(), 20);
  EXPECT_EQ(sched.pending(), 1u);
  sched.RunUntil(21);
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 21}));
  EXPECT_EQ(sched.Now(), 21);
}

TEST(TimerWheel, RunUntilAdvancesClockPastAnEmptyQueue) {
  Scheduler sched;
  sched.RunUntil(1'000);
  EXPECT_EQ(sched.Now(), 1'000);
  // Events scheduled "in the past" relative to the parked clock clamp to
  // Now() rather than running at a stale time.
  SimTime ran_at = -1;
  sched.At(5, [&] { ran_at = sched.Now(); });
  sched.Run();
  EXPECT_EQ(ran_at, 1'000);
}

TEST(TimerWheel, RunUntilBoundaryInsideAFarFutureGap) {
  Scheduler sched;
  int fired = 0;
  sched.After(1'000'000, [&] { fired++; });  // two levels out
  sched.RunUntil(999'999);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.Now(), 999'999);
  EXPECT_EQ(sched.pending(), 1u);
  sched.RunUntil(1'000'000);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, DirectWheelPopRespectsLimitAndRecycles) {
  // Exercise the wheel API directly (no scheduler): PopRunnable with a
  // finite limit, a cancelled node freed on the spot, and node recycling.
  TimerWheel wheel;
  int fired = 0;
  (void)wheel.Insert(5, 1, [&] { fired += 1; });
  TimerWheel::TimerId dead = wheel.Insert(5, 2, [&] { fired += 100; });
  (void)wheel.Insert(9, 3, [&] { fired += 10; });
  EXPECT_TRUE(wheel.Cancel(dead));
  EXPECT_EQ(wheel.live(), 2u);
  // The cancelled node went straight back to the free list: the next
  // insert reuses it.
  TimerWheel::TimerId reused = wheel.Insert(9, 4, [&] { fired += 1000; });
  EXPECT_EQ(reused.index, dead.index);
  EXPECT_TRUE(wheel.Cancel(reused));

  EventNode* n = wheel.PopRunnable(7);
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->time, 5);
  n->fn();
  wheel.Recycle(n);
  EXPECT_EQ(wheel.PopRunnable(7), nullptr);  // t=9 is past the limit
  n = wheel.PopRunnable(TimerWheel::kNoLimit);
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->time, 9);
  n->fn();
  wheel.Recycle(n);
  EXPECT_EQ(fired, 11);
  EXPECT_TRUE(wheel.empty());
}

/// Drain `wheel`, returning (time, seq) of every event in dispatch order.
std::vector<std::pair<SimTime, uint64_t>> DrainOrder(TimerWheel& wheel) {
  std::vector<std::pair<SimTime, uint64_t>> order;
  while (EventNode* n = wheel.PopRunnable(TimerWheel::kNoLimit)) {
    order.emplace_back(n->time, n->seq);
    n->fn();
    wheel.Recycle(n);
  }
  return order;
}

TEST(TimerWheel, CancelHeadMiddleAndTailOfOneSlot) {
  TimerWheel wheel;
  std::vector<TimerWheel::TimerId> ids;
  // Six events in one level-0 slot (t=40), plus neighbours on either side.
  (void)wheel.Insert(39, 0, [] {});
  for (uint64_t seq = 1; seq <= 6; seq++) ids.push_back(wheel.Insert(40, seq, [] {}));
  (void)wheel.Insert(41, 7, [] {});
  EXPECT_TRUE(wheel.Cancel(ids[0]));  // head
  EXPECT_TRUE(wheel.Cancel(ids[3]));  // middle
  EXPECT_TRUE(wheel.Cancel(ids[5]));  // tail
  EXPECT_EQ(wheel.live(), 5u);
  // The slot still links the survivors; appending behind the new tail works.
  (void)wheel.Insert(40, 8, [] {});
  EXPECT_EQ(DrainOrder(wheel), (std::vector<std::pair<SimTime, uint64_t>>{
                                   {39, 0}, {40, 2}, {40, 3}, {40, 5}, {40, 8}, {41, 7}}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CancellingEverySlotMemberClearsIt) {
  TimerWheel wheel;
  TimerWheel::TimerId a = wheel.Insert(40, 1, [] {});
  TimerWheel::TimerId b = wheel.Insert(40, 2, [] {});
  (void)wheel.Insert(300, 3, [] {});
  EXPECT_TRUE(wheel.Cancel(b));
  EXPECT_TRUE(wheel.Cancel(a));
  // The emptied slot must not stop the search: the next event is t=300.
  EventNode* n = wheel.PopRunnable(TimerWheel::kNoLimit);
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->time, 300);
  wheel.Recycle(n);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CancelOnAnUpperLevelBeforeItCascades) {
  TimerWheel wheel;
  // 70'000 and 70'001 share a level-2 slot (and 700/701 a level-1 slot)
  // until the cursor reaches them; cancel one of each pair before that.
  (void)wheel.Insert(700, 1, [] {});
  TimerWheel::TimerId l1 = wheel.Insert(701, 2, [] {});
  TimerWheel::TimerId l2 = wheel.Insert(70'000, 3, [] {});
  (void)wheel.Insert(70'001, 4, [] {});
  (void)wheel.Insert(5'000'000'000, 5, [] {});
  EXPECT_TRUE(wheel.Cancel(l1));
  EXPECT_TRUE(wheel.Cancel(l2));
  EXPECT_EQ(wheel.live(), 3u);
  EXPECT_EQ(DrainOrder(wheel), (std::vector<std::pair<SimTime, uint64_t>>{
                                   {700, 1}, {70'001, 4}, {5'000'000'000, 5}}));
}

TEST(TimerWheel, CancelledSameTickEventInTheReadyBatchDoesNotRun) {
  Scheduler sched;
  std::vector<int> fired;
  Scheduler::TimerId victim;
  // Both events share t=10, so dispatching the first has already collected
  // the second into the ready batch when the first cancels it.
  sched.At(10, [&] {
    fired.push_back(1);
    EXPECT_TRUE(sched.Cancel(victim));
    EXPECT_FALSE(sched.Cancel(victim));
  });
  victim = sched.ScheduleAt(10, [&] { fired.push_back(2); });
  sched.At(10, [&] { fired.push_back(3); });
  EXPECT_EQ(sched.pending(), 3u);
  sched.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_TRUE(sched.empty());
}

TEST(TimerWheel, ArmCancelChurnOfAFarTimerStaysInOneChunk) {
  // The RPC-watchdog pattern: a timer armed far out and cancelled almost at
  // once. Cancelled nodes return to the free list immediately, so a million
  // cycles reuse one node instead of piling up debris.
  TimerWheel wheel;
  (void)wheel.Insert(1, 0, [] {});  // one live neighbour
  for (uint64_t i = 1; i <= 1'000'000; i++) {
    TimerWheel::TimerId id = wheel.Insert(2'000'000, i, [] {});
    ASSERT_TRUE(wheel.Cancel(id));
  }
  EXPECT_EQ(wheel.live(), 1u);
  EXPECT_LE(wheel.slab_nodes(), 512u);
}

}  // namespace
}  // namespace cfs::sim
