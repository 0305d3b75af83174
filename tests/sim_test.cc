// Unit tests for the discrete-event simulation substrate: scheduler,
// coroutines, futures, resources, disks, network RPC, partitions, crashes.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "sim/disk.h"
#include "sim/network.h"
#include "sim/resource.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace cfs::sim {
namespace {

TEST(SchedulerTest, EventsRunInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.At(30, [&] { order.push_back(3); });
  s.At(10, [&] { order.push_back(1); });
  s.At(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30);
}

TEST(SchedulerTest, SameTimestampFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) s.At(5, [&, i] { order.push_back(i); });
  s.Run();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, RunUntilLeavesFutureEvents) {
  Scheduler s;
  int fired = 0;
  s.At(10, [&] { fired++; });
  s.At(100, [&] { fired++; });
  s.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), 50);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, RunUntilRunsEventExactlyAtBoundary) {
  // The contract is "run all events with time <= t": an event scheduled
  // exactly at t fires, and the clock lands on t, not past it.
  Scheduler s;
  int fired = 0;
  s.At(50, [&] { fired++; });
  s.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), 50);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, RunUntilEmptyQueueAdvancesClock) {
  // With nothing queued, RunUntil still moves Now() to t (virtual time is
  // free); a later, smaller t must not move the clock backwards.
  Scheduler s;
  s.RunUntil(75);
  EXPECT_EQ(s.Now(), 75);
  s.RunUntil(10);
  EXPECT_EQ(s.Now(), 75);
}

TEST(SchedulerTest, SameSeedRunsProduceEqualTraceHashes) {
  // The determinism contract in one test: identical seeds must yield
  // identical event traces, and the trace hash is sensitive to any extra
  // event. Full-cluster versions of this live in determinism_test.cc.
  auto run = [](uint64_t seed, int extra_events) {
    Scheduler s(seed);
    for (int i = 0; i < 5 + extra_events; i++) {
      s.At(10 * (i + 1) + static_cast<SimTime>(s.rng().Uniform(5)), [] {});
    }
    s.Run();
    return s.trace_hash();
  };
  EXPECT_EQ(run(42, 0), run(42, 0));
  EXPECT_NE(run(42, 0), run(42, 1));
}

TEST(SchedulerTest, PastEventsClampToNow) {
  Scheduler s;
  s.At(100, [] {});
  s.RunUntil(100);
  bool ran = false;
  s.At(5, [&] { ran = true; });  // in the past; clamps
  s.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.Now(), 100);
}

Task<int> Add(Scheduler& s, int a, int b) {
  co_await SleepFor{s, 10};
  co_return a + b;
}

Task<int> Nested(Scheduler& s) {
  int x = co_await Add(s, 1, 2);
  int y = co_await Add(s, x, 10);
  co_return y;
}

TEST(TaskTest, NestedAwaitAccumulatesTime) {
  Scheduler s;
  int result = 0;
  Spawn([](Scheduler& s, int& result) -> Task<void> {
    result = co_await Nested(s);
  }(s, result));
  s.Run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(s.Now(), 20);  // two sleeps of 10
}

TEST(TaskTest, ManyConcurrentTasks) {
  Scheduler s;
  int done = 0;
  for (int i = 0; i < 1000; i++) {
    Spawn([](Scheduler& s, int i, int& done) -> Task<void> {
      co_await SleepFor{s, i % 7};
      done++;
    }(s, i, done));
  }
  s.Run();
  EXPECT_EQ(done, 1000);
}

TEST(FutureTest, SetBeforeAwait) {
  Scheduler s;
  Promise<int> p(&s);
  p.Set(99);
  int got = 0;
  Spawn([](Promise<int> p, int& got) -> Task<void> {
    got = co_await p.future();
  }(p, got));
  s.Run();
  EXPECT_EQ(got, 99);
}

TEST(FutureTest, SetAfterAwait) {
  Scheduler s;
  Promise<int> p(&s);
  int got = 0;
  Spawn([](Promise<int> p, int& got) -> Task<void> {
    got = co_await p.future();
  }(p, got));
  s.At(50, [p] { p.Set(7); });
  s.Run();
  EXPECT_EQ(got, 7);
}

TEST(FutureTest, TimeoutReturnsNullopt) {
  Scheduler s;
  Promise<int> p(&s);
  bool timed_out = false;
  Spawn([](Scheduler& s, Promise<int> p, bool& timed_out) -> Task<void> {
    auto v = co_await p.future().WithTimeout(100);
    timed_out = !v.has_value();
    EXPECT_EQ(s.Now(), 100);
  }(s, p, timed_out));
  s.Run();
  EXPECT_TRUE(timed_out);
}

TEST(FutureTest, ValueBeatsTimeout) {
  Scheduler s;
  Promise<int> p(&s);
  int got = -1;
  Spawn([](Promise<int> p, int& got) -> Task<void> {
    auto v = co_await p.future().WithTimeout(100);
    got = v.value_or(-2);
  }(p, got));
  s.At(10, [p] { p.Set(5); });
  s.Run();
  EXPECT_EQ(got, 5);
}

TEST(FutureTest, LateSetAfterTimeoutIsIgnored) {
  Scheduler s;
  Promise<int> p(&s);
  int got = -1;
  Spawn([](Promise<int> p, int& got) -> Task<void> {
    auto v = co_await p.future().WithTimeout(100);
    got = v.value_or(-2);
  }(p, got));
  s.At(500, [p] { p.Set(5); });
  s.Run();
  EXPECT_EQ(got, -2);
}

TEST(FutureTest, EarlyValueTakesTheTimeoutOffTheQueue) {
  Scheduler s;
  s.At(1'000'000, [] {});  // unrelated, keeps the queue non-empty
  const size_t prior = s.pending();
  Promise<int> p(&s);
  int got = -1;
  Spawn([](Promise<int> p, int& got) -> Task<void> {
    auto v = co_await p.future().WithTimeout(2 * kSec);
    got = v.value_or(-2);
  }(p, got));
  EXPECT_EQ(s.pending(), prior + 1);  // the armed timeout
  s.RunUntil(10);
  p.Set(5);  // cancels the timeout, schedules the resume
  EXPECT_EQ(s.pending(), prior + 1);
  s.RunUntil(20);
  EXPECT_EQ(got, 5);
  EXPECT_EQ(s.pending(), prior);
  // The state is released with the last Promise: no timer closure holds it.
  std::weak_ptr<Future<int>::State> state = p.state();
  p = Promise<int>(&s);
  EXPECT_TRUE(state.expired());
}

TEST(FutureTest, UnresolvedWaitResumesAtExactlyTheTimeout) {
  Scheduler s;
  Promise<int> p(&s);
  s.RunUntil(37);
  std::optional<int> got = 0;
  SimTime resumed_at = -1;
  Spawn([](Scheduler& s, Promise<int> p, std::optional<int>& got,
           SimTime& at) -> Task<void> {
    got = co_await p.future().WithTimeout(100);
    at = s.Now();
  }(s, p, got, resumed_at));
  s.Run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(resumed_at, 137);
  EXPECT_TRUE(s.empty());
}

TEST(FutureTest, SetAfterTheTimeoutSchedulesNothing) {
  Scheduler s;
  Promise<int> p(&s);
  int resumes = 0;
  Spawn([](Promise<int> p, int& resumes) -> Task<void> {
    auto v = co_await p.future().WithTimeout(100);
    EXPECT_FALSE(v.has_value());
    resumes++;
  }(p, resumes));
  s.Run();
  ASSERT_EQ(resumes, 1);
  p.Set(5);
  EXPECT_TRUE(s.empty());
  s.Run();
  EXPECT_EQ(resumes, 1);
}

TEST(JoinTest, WaitsForAllSubtasks) {
  Scheduler s;
  Join j(&s, 3);
  bool done = false;
  for (int i = 1; i <= 3; i++) {
    Spawn([](Scheduler& s, int i, std::function<void()> arrive) -> Task<void> {
      co_await SleepFor{s, i * 100};
      arrive();
    }(s, i, j.Arrive()));
  }
  Spawn([](Scheduler& s, Join& j, bool& done) -> Task<void> {
    co_await j.Wait();
    done = true;
    EXPECT_EQ(s.Now(), 300);
  }(s, j, done));
  s.Run();
  EXPECT_TRUE(done);
}

TEST(SemaphoreTest, AcquireReportsStall) {
  Scheduler s;
  Semaphore sem(&s, 2);
  std::vector<bool> stalled;
  for (int i = 0; i < 3; i++) {
    Spawn([](Scheduler& s, Semaphore& sem, std::vector<bool>& stalled) -> Task<void> {
      bool st = co_await sem.Acquire();
      stalled.push_back(st);
      co_await SleepFor{s, 10};
      sem.Release();
    }(s, sem, stalled));
  }
  s.Run();
  ASSERT_EQ(stalled.size(), 3u);
  EXPECT_FALSE(stalled[0]);  // two free permits
  EXPECT_FALSE(stalled[1]);
  EXPECT_TRUE(stalled[2]);  // window full: had to wait for a release
  EXPECT_EQ(sem.available(), 2);
}

TEST(SemaphoreTest, WaitersResumeFifo) {
  Scheduler s;
  Semaphore sem(&s, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; i++) {
    Spawn([](Scheduler& s, Semaphore& sem, int i, std::vector<int>& order) -> Task<void> {
      (void)co_await sem.Acquire();
      order.push_back(i);
      co_await SleepFor{s, 5};
      sem.Release();
    }(s, sem, i, order));
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SemaphoreTest, NoBargingPastQueuedWaiters) {
  Scheduler s;
  Semaphore sem(&s, 1);
  EXPECT_TRUE(sem.TryAcquire());
  bool waiter_got_it = false;
  Spawn([](Semaphore& sem, bool& got) -> Task<void> {
    (void)co_await sem.Acquire();
    got = true;
  }(sem, waiter_got_it));
  s.Run();
  EXPECT_FALSE(waiter_got_it);  // still held
  // A release with a queued waiter hands the permit over: TryAcquire must
  // not steal it even though it runs before the waiter's scheduled resume.
  sem.Release();
  EXPECT_FALSE(sem.TryAcquire());
  s.Run();
  EXPECT_TRUE(waiter_got_it);
}

TEST(SemaphoreTest, ReleaseManyResumesMany) {
  Scheduler s;
  Semaphore sem(&s, 0);
  int resumed = 0;
  for (int i = 0; i < 3; i++) {
    Spawn([](Semaphore& sem, int& resumed) -> Task<void> {
      (void)co_await sem.Acquire();
      resumed++;
    }(sem, resumed));
  }
  s.Run();
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(sem.num_waiters(), 3u);
  sem.Release(2);
  s.Run();
  EXPECT_EQ(resumed, 2);
  sem.Release();
  s.Run();
  EXPECT_EQ(resumed, 3);
  EXPECT_EQ(sem.available(), 0);
}

TEST(ResourceTest, SingleServerQueues) {
  Scheduler s;
  Resource r(&s, 1);
  EXPECT_EQ(r.Reserve(100), 100);
  EXPECT_EQ(r.Reserve(100), 200);  // queued behind first
  EXPECT_EQ(r.Reserve(50), 250);
}

TEST(ResourceTest, MultiServerParallel) {
  Scheduler s;
  Resource r(&s, 4);
  for (int i = 0; i < 4; i++) EXPECT_EQ(r.Reserve(100), 100);
  EXPECT_EQ(r.Reserve(100), 200);  // 5th op waits
}

TEST(ResourceTest, IdleServerStartsNow) {
  Scheduler s;
  s.At(1000, [] {});
  s.Run();
  Resource r(&s, 1);
  EXPECT_EQ(r.Reserve(10), 1010);
}

TEST(DiskTest, WriteChargesTimeAndSpace) {
  Scheduler s;
  DiskOptions opts;
  opts.write_latency_usec = 100;
  opts.bandwidth_mib = 100;
  Disk d(&s, opts);
  bool done = false;
  Spawn([](Scheduler& s, Disk& d, bool& done) -> Task<void> {
    Status st = co_await d.Write(100 * kMiB);
    EXPECT_TRUE(st.ok());
    // 100 MiB at 100 MiB/s = 1 s, plus 100 us latency.
    EXPECT_EQ(s.Now(), kSec + 100);
    done = true;
  }(s, d, done));
  s.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(d.used_bytes(), 100 * kMiB);
}

TEST(DiskTest, FullDiskRejectsWrites) {
  Scheduler s;
  DiskOptions opts;
  opts.capacity_bytes = kMiB;
  Disk d(&s, opts);
  Status got;
  Spawn([](Disk& d, Status& got) -> Task<void> {
    (void)co_await d.Write(kMiB);
    got = co_await d.Write(1);
  }(d, got));
  s.Run();
  EXPECT_TRUE(got.IsNoSpace());
}

TEST(DiskTest, PunchHoleFreesSpace) {
  Scheduler s;
  Disk d(&s);
  Spawn([](Disk& d) -> Task<void> { (void)co_await d.Write(10 * kMiB); }(d));
  s.Run();
  d.PunchHole(4 * kMiB);
  EXPECT_EQ(d.used_bytes(), 6 * kMiB);
  EXPECT_EQ(d.punched_bytes(), 4 * kMiB);
}

TEST(DiskTest, FailedDiskReturnsIOError) {
  Scheduler s;
  Disk d(&s);
  d.set_failed(true);
  Status got;
  Spawn([](Disk& d, Status& got) -> Task<void> { got = co_await d.Read(100); }(d, got));
  s.Run();
  EXPECT_EQ(got.code(), StatusCode::kIOError);
}

// --- Network / RPC ---

struct EchoReq {
  int x;
  size_t WireBytes() const { return 128; }
};
struct EchoResp {
  int x;
};

struct BigReq {
  size_t bytes;
  size_t WireBytes() const { return bytes; }
};
struct BigResp {};

class NetFixture : public ::testing::Test {
 protected:
  NetFixture() : net_(&sched_) {
    a_ = net_.AddHost();
    b_ = net_.AddHost();
    b_->Register<EchoReq, EchoResp>([](EchoReq req, NodeId) -> Task<EchoResp> {
      co_return EchoResp{req.x * 2};
    });
    b_->Register<BigReq, BigResp>([](BigReq, NodeId) -> Task<BigResp> {
      co_return BigResp{};
    });
  }
  Scheduler sched_;
  Network net_;
  Host* a_;
  Host* b_;
};

TEST_F(NetFixture, BasicRpcRoundTrip) {
  int got = 0;
  Spawn([](Network& net, int& got) -> Task<void> {
    auto r = co_await net.Call<EchoReq, EchoResp>(1, 2, EchoReq{21});
    EXPECT_TRUE(r.ok()); if (!r.ok()) co_return;
    got = r->x;
  }(net_, got));
  sched_.Run();
  EXPECT_EQ(got, 42);
  EXPECT_GE(sched_.Now(), 2 * 120);  // at least two propagation latencies
  EXPECT_EQ(net_.messages_sent(), 2u);
}

TEST_F(NetFixture, LargeTransfersTakeBandwidthTime) {
  SimTime rpc_time = 0;
  Spawn([](Network& net, Scheduler& s, SimTime& t) -> Task<void> {
    auto r = co_await net.Call<BigReq, BigResp>(1, 2, BigReq{100 * kMiB}, 10 * kSec);
    EXPECT_TRUE(r.ok()); if (!r.ok()) co_return;
    t = s.Now();
  }(net_, sched_, rpc_time));
  sched_.Run();
  // 100 MiB at ~117 MiB/s is ~0.85 s.
  EXPECT_GT(rpc_time, 700 * kMsec);
  EXPECT_LT(rpc_time, 1200 * kMsec);
}

TEST_F(NetFixture, PartitionCausesTimeout) {
  net_.SetPartitioned(1, 2, true);
  Status got;
  Spawn([](Network& net, Status& got) -> Task<void> {
    auto r = co_await net.Call<EchoReq, EchoResp>(1, 2, EchoReq{1}, 5000);
    got = r.status();
  }(net_, got));
  sched_.Run();
  EXPECT_TRUE(got.IsTimedOut());
}

TEST_F(NetFixture, HealedPartitionWorksAgain) {
  net_.SetPartitioned(1, 2, true);
  net_.SetPartitioned(1, 2, false);
  int got = 0;
  Spawn([](Network& net, int& got) -> Task<void> {
    auto r = co_await net.Call<EchoReq, EchoResp>(1, 2, EchoReq{5});
    if (r.ok()) got = r->x;
  }(net_, got));
  sched_.Run();
  EXPECT_EQ(got, 10);
}

TEST_F(NetFixture, DeadHostTimesOut) {
  b_->Crash();
  Status got;
  Spawn([](Network& net, Status& got) -> Task<void> {
    auto r = co_await net.Call<EchoReq, EchoResp>(1, 2, EchoReq{1}, 5000);
    got = r.status();
  }(net_, got));
  sched_.Run();
  EXPECT_TRUE(got.IsTimedOut());
}

TEST_F(NetFixture, RestartBumpsEpochAndServes) {
  uint64_t e0 = b_->epoch();
  b_->Crash();
  b_->Restart();
  EXPECT_EQ(b_->epoch(), e0 + 2);
  int got = 0;
  Spawn([](Network& net, int& got) -> Task<void> {
    auto r = co_await net.Call<EchoReq, EchoResp>(1, 2, EchoReq{3});
    if (r.ok()) got = r->x;
  }(net_, got));
  sched_.Run();
  EXPECT_EQ(got, 6);
}

TEST_F(NetFixture, UnregisteredRequestTimesOut) {
  struct Unknown {};
  Status got;
  Spawn([](Network& net, Status& got) -> Task<void> {
    struct UnknownResp {};
    auto r = co_await net.Call<Unknown, UnknownResp>(1, 2, Unknown{}, 2000);
    got = r.status();
  }(net_, got));
  sched_.Run();
  EXPECT_TRUE(got.IsTimedOut());
}

TEST_F(NetFixture, DropProbabilityOneLosesEverything) {
  net_.SetDropProbability(1.0);
  Status got;
  Spawn([](Network& net, Status& got) -> Task<void> {
    auto r = co_await net.Call<EchoReq, EchoResp>(1, 2, EchoReq{1}, 2000);
    got = r.status();
  }(net_, got));
  sched_.Run();
  EXPECT_TRUE(got.IsTimedOut());
}

TEST_F(NetFixture, ConcurrentRpcsAllComplete) {
  int completed = 0;
  for (int i = 0; i < 200; i++) {
    Spawn([](Network& net, int i, int& completed) -> Task<void> {
      auto r = co_await net.Call<EchoReq, EchoResp>(1, 2, EchoReq{i});
      EXPECT_TRUE(r.ok()); if (!r.ok()) co_return;
      EXPECT_EQ(r->x, i * 2);
      completed++;
    }(net_, i, completed));
  }
  sched_.Run();
  EXPECT_EQ(completed, 200);
}

TEST(StableStorageTest, PutGetDeleteList) {
  StableStorage st;
  st.Put("raft/1/log", "abc");
  // Rope chunks are shared Buffers (slices included); Get flattens them.
  Buffer payload = Buffer::FromString("xxdefghyy");
  st.Append("raft/1/log", payload.Slice(2, 3));
  st.Append("raft/1/log", payload.Slice(5, 2));
  std::string v;
  ASSERT_TRUE(st.Get("raft/1/log", &v));
  EXPECT_EQ(v, "abcdefgh");
  st.Append("raft/1/log", Buffer::FromString("!"));
  ASSERT_TRUE(st.Get("raft/1/log", &v));
  EXPECT_EQ(v, "abcdefgh!");
  st.Put("raft/2/log", "x");
  st.Put("extent/7", "y");
  EXPECT_EQ(st.List("raft/").size(), 2u);
  st.Delete("raft/1/log");
  EXPECT_FALSE(st.Has("raft/1/log"));
}

TEST(HostTest, MemoryAccounting) {
  Scheduler s;
  Network net(&s);
  Host* h = net.AddHost();
  h->AddMemory(1024);
  EXPECT_EQ(h->memory_used(), 1024u);
  h->AddMemory(-1000);
  EXPECT_EQ(h->memory_used(), 24u);
  EXPECT_GT(h->MemoryUtilization(), 0.0);
}

// Determinism: two identical simulations produce identical event histories.
TEST(DeterminismTest, SameSeedSameTimeline) {
  auto run = [](uint64_t seed) {
    Scheduler s(seed);
    Network net(&s);
    net.AddHost();
    Host* b = net.AddHost();
    b->Register<EchoReq, EchoResp>([&s](EchoReq req, NodeId) -> Task<EchoResp> {
      co_await SleepFor{s, 10};
      co_return EchoResp{req.x + 1};
    });
    SimTime total = 0;
    for (int i = 0; i < 50; i++) {
      Spawn([](Network& net, Scheduler& s, SimTime& total, int i) -> Task<void> {
        auto r = co_await net.Call<EchoReq, EchoResp>(1, 2, EchoReq{i});
        EXPECT_TRUE(r.ok()); if (!r.ok()) co_return;
        total += s.Now();
      }(net, s, total, i));
    }
    s.Run();
    return std::make_pair(total, s.Now());
  };
  auto [t1, n1] = run(123);
  auto [t2, n2] = run(123);
  auto [t3, n3] = run(456);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(n1, n2);
  // Different seed shifts jitter; timeline differs.
  EXPECT_NE(t1, t3);
}

}  // namespace
}  // namespace cfs::sim
