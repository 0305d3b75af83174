// QoS primitive tests (ROADMAP item 3): token-bucket determinism, weighted-
// fair admission ratios under saturation, per-tenant FIFO invariants, and the
// multi-mount client lifecycle end to end.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "harness/cluster.h"
#include "qos/qos.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace cfs {
namespace {

using qos::AdmissionQueue;
using qos::TenantId;
using qos::TokenBucket;

// --- TokenBucket -----------------------------------------------------------

TEST(TokenBucket, UnconfiguredNeverDelays) {
  TokenBucket b;
  EXPECT_FALSE(b.enabled());
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(b.Reserve(1 * kMiB, static_cast<SimTime>(i)), 0);
  }
}

TEST(TokenBucket, GcraRefillSchedule) {
  TokenBucket b;
  b.Configure(/*rate=*/1000, /*burst=*/10);  // 1 unit per msec, 10 credit
  // The burst tolerance covers the first charges; after that each unit must
  // wait exactly its 1 msec refill.
  std::vector<SimDuration> delays;
  for (int i = 0; i < 14; i++) delays.push_back(b.Reserve(1, /*now=*/0));
  for (int i = 0; i < 11; i++) EXPECT_EQ(delays[i], 0) << "charge " << i;
  EXPECT_EQ(delays[11], 1000);
  EXPECT_EQ(delays[12], 2000);
  EXPECT_EQ(delays[13], 3000);
}

TEST(TokenBucket, SteadyStateMatchesRate) {
  TokenBucket b;
  b.Configure(/*rate=*/500, /*burst=*/1);  // 2000 usec per unit
  SimTime now = 0;
  // A conforming caller sleeps each returned delay before the next charge:
  // once past the burst allowance (GCRA's tolerance admits one extra charge
  // on top of the first), grant times advance at exactly 1/rate.
  SimTime last_grant = 0;
  for (int i = 0; i < 50; i++) {
    SimDuration d = b.Reserve(1, now);
    SimTime grant = now + d;
    if (i > 1) EXPECT_EQ(grant - last_grant, 2000) << "charge " << i;
    last_grant = grant;
    now = grant;
  }
}

TEST(TokenBucket, SameSequenceSameDelays) {
  // Two buckets fed the identical (n, now) sequence must agree exactly —
  // the client throttle depends on this for same-seed byte-identical runs.
  TokenBucket a, b;
  a.Configure(10'000, 64);
  b.Configure(10'000, 64);
  uint64_t x = 12345;
  SimTime now = 0;
  for (int i = 0; i < 500; i++) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG, no wall clock
    uint64_t n = 1 + (x >> 33) % 128;
    now += (x >> 17) % 300;
    EXPECT_EQ(a.Reserve(n, now), b.Reserve(n, now)) << "charge " << i;
  }
}

// --- AdmissionQueue --------------------------------------------------------

/// Closed-loop tenant load: grab a slot, hold it for `service`, repeat.
sim::Task<void> Hog(sim::Scheduler* sched, AdmissionQueue* q, TenantId t,
                    SimDuration service, const bool* stop) {
  while (!*stop) {
    auto guard = co_await q->Enter(t, /*cost=*/100);
    co_await sim::SleepFor{*sched, service};
  }
}

TEST(AdmissionQueue, DisabledAdmitsSynchronously) {
  sim::Scheduler sched(1);
  obs::Registry reg;
  AdmissionQueue q(&sched, reg, "qos.test");  // slots 0 = disabled
  bool done = false;
  sim::Spawn([](AdmissionQueue* q, bool* done) -> sim::Task<void> {
    auto g = co_await q->Enter(7, 100);
    *done = true;
  }(&q, &done));
  sched.RunFor(1);
  EXPECT_TRUE(done);
  EXPECT_EQ(q.queued(), 0u);
  EXPECT_EQ(q.in_service(), 0u);
  // Disabled queues keep no per-tenant state: no tenant counters, no events.
  EXPECT_TRUE(reg.counters().empty());
}

TEST(AdmissionQueue, WeightedShareUnderSaturation) {
  sim::Scheduler sched(1);
  obs::Registry reg;
  AdmissionQueue q(&sched, reg, "qos.test");
  q.Configure(/*slots=*/1);
  q.SetWeight(1, 4);
  q.SetWeight(2, 1);
  bool stop = false;
  // Three closed-loop workers per tenant keep the queue saturated; with one
  // slot, service counts must converge to the 4:1 weight ratio.
  for (int i = 0; i < 3; i++) {
    sim::Spawn(Hog(&sched, &q, 1, 1 * kMsec, &stop));
    sim::Spawn(Hog(&sched, &q, 2, 1 * kMsec, &stop));
  }
  sched.RunFor(2 * kSec);
  stop = true;
  sched.RunFor(1 * kSec);  // drain
  const uint64_t t1 = reg.counter("qos.test.tenant.1.admitted");
  const uint64_t t2 = reg.counter("qos.test.tenant.2.admitted");
  ASSERT_TRUE(t1 > 0 && t2 > 0);
  const double ratio = static_cast<double>(t1) / static_cast<double>(t2);
  EXPECT_GT(ratio, 3.4) << "t1=" << t1 << " t2=" << t2;
  EXPECT_LT(ratio, 4.6) << "t1=" << t1 << " t2=" << t2;
  // Saturation bookkeeping: waiters actually queued and waited.
  EXPECT_GT(reg.counter("qos.test.tenant.2.queued"), 0u);
  EXPECT_GT(reg.counter("qos.test.tenant.2.wait_usec"), 0u);
  EXPECT_GT(reg.gauge("qos.test.max_depth"), 0);
}

/// Records its admission order, then releases immediately.
sim::Task<void> Waiter(AdmissionQueue* q, TenantId t, uint64_t cost, int idx,
                       std::vector<std::pair<TenantId, int>>* order) {
  auto g = co_await q->Enter(t, cost);
  order->push_back({t, idx});
}

TEST(AdmissionQueue, PerTenantFifoAndCrossTenantPriority) {
  sim::Scheduler sched(1);
  obs::Registry reg;
  AdmissionQueue q(&sched, reg, "qos.test");
  q.Configure(/*slots=*/1);
  q.SetWeight(9, 100);
  bool stop = false;
  // One blocker takes the slot so everything below enqueues behind it.
  sim::Spawn([](sim::Scheduler* sched, AdmissionQueue* q,
                const bool*) -> sim::Task<void> {
    auto g = co_await q->Enter(1, 1);
    co_await sim::SleepFor{*sched, 10 * kMsec};
  }(&sched, &q, &stop));

  std::vector<std::pair<TenantId, int>> order;
  // Tenant 7 (weight 1): a huge-cost request followed by two cheap ones. The
  // cheap ones must NOT overtake it — requests of one tenant never reorder.
  sim::Spawn(Waiter(&q, 7, 5000, 0, &order));
  sim::Spawn(Waiter(&q, 7, 1, 1, &order));
  sim::Spawn(Waiter(&q, 7, 1, 2, &order));
  // Tenant 9 (weight 100) arrives last but its finish tag is far smaller, so
  // it is dispatched before everything tenant 7 queued.
  sim::Spawn(Waiter(&q, 9, 5000, 0, &order));
  sched.RunFor(1 * kSec);

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], (std::pair<TenantId, int>{9, 0}));
  // Per-tenant FIFO for tenant 7 regardless of per-request cost.
  std::vector<int> t7;
  for (const auto& [t, idx] : order) {
    if (t == 7) t7.push_back(idx);
  }
  EXPECT_EQ(t7, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.queued(), 0u);
  EXPECT_EQ(q.in_service(), 0u);
}

// --- Multi-mount client lifecycle ------------------------------------------

TEST(MultiMount, LifecycleAndInvariants) {
  harness::ClusterOptions opts;
  opts.num_nodes = 5;
  harness::Cluster cluster(opts);
  auto st = harness::RunTask(cluster.sched(), cluster.Start());
  ASSERT_TRUE(st.has_value() && st->ok());

  master::VolumeQos qa;
  qa.weight = 8;
  master::VolumeQos qb;
  qb.iops_limit = 50;
  st = harness::RunTask(cluster.sched(), cluster.CreateVolume("alpha", 2, 4, qa));
  ASSERT_TRUE(st.has_value() && st->ok());
  st = harness::RunTask(cluster.sched(), cluster.CreateVolume("beta", 1, 2, qb));
  ASSERT_TRUE(st.has_value() && st->ok());

  auto mounted = harness::RunTask(
      cluster.sched(),
      cluster.MountClient(std::vector<std::string>{"alpha", "beta"}));
  ASSERT_TRUE(mounted.has_value() && mounted->ok());
  client::Client* c = **mounted;
  ASSERT_EQ(c->mounts().size(), 2u);
  client::MountContext* ma = c->mount("alpha");
  client::MountContext* mb = c->mount("beta");
  ASSERT_NE(ma, nullptr);
  ASSERT_NE(mb, nullptr);
  EXPECT_EQ(c->default_mount(), ma);  // first volume becomes the default
  EXPECT_NE(ma->tenant(), 0u);
  EXPECT_NE(mb->tenant(), 0u);
  EXPECT_NE(ma->tenant(), mb->tenant());

  // Both mounts serve traffic independently.
  auto fa = harness::RunTask(cluster.sched(),
                             ma->Create(meta::kRootInode, "a.txt", meta::FileType::kFile));
  ASSERT_TRUE(fa.has_value() && fa->ok());
  auto fb = harness::RunTask(cluster.sched(),
                             mb->Create(meta::kRootInode, "b.txt", meta::FileType::kFile));
  ASSERT_TRUE(fb.has_value() && fb->ok());
  EXPECT_GT(c->metrics().counter("tenant." + std::to_string(ma->tenant()) + ".ops"), 0u);
  EXPECT_TRUE(cluster.CheckInvariants().ok());

  // Unmount one volume: its context is retired (ops fail fast), the other
  // keeps working, and the refresh loop stops at its next wakeup.
  ASSERT_TRUE(c->Unmount("alpha").ok());
  auto dead = harness::RunTask(cluster.sched(),
                               ma->Create(meta::kRootInode, "a2", meta::FileType::kFile));
  ASSERT_TRUE(dead.has_value());
  EXPECT_FALSE(dead->ok());
  auto alive = harness::RunTask(cluster.sched(),
                                mb->Create(meta::kRootInode, "b2", meta::FileType::kFile));
  ASSERT_TRUE(alive.has_value() && alive->ok());
  cluster.sched().RunFor(5 * kSec);  // refresh loops wind down without incident
  EXPECT_TRUE(cluster.CheckInvariants().ok());

  // Remount: a fresh context under the same name serves traffic again; the
  // retired pointer stays valid (detached-coroutine safety) but keeps failing.
  auto re = harness::RunTask(cluster.sched(), c->Mount("alpha"));
  ASSERT_TRUE(re.has_value() && re->ok());
  client::MountContext* ma2 = c->mount("alpha");
  ASSERT_NE(ma2, nullptr);
  auto fresh = harness::RunTask(cluster.sched(),
                                ma2->Create(meta::kRootInode, "a3", meta::FileType::kFile));
  ASSERT_TRUE(fresh.has_value() && fresh->ok());
  auto still_dead = harness::RunTask(cluster.sched(),
                                     ma->Create(meta::kRootInode, "a4", meta::FileType::kFile));
  ASSERT_TRUE(still_dead.has_value());
  EXPECT_FALSE(still_dead->ok());

  // Full teardown through the harness: every mount retires.
  cluster.UnmountClient(c);
  auto gone = harness::RunTask(cluster.sched(),
                               mb->Create(meta::kRootInode, "b3", meta::FileType::kFile));
  ASSERT_TRUE(gone.has_value());
  EXPECT_FALSE(gone->ok());
  cluster.sched().RunFor(5 * kSec);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

}  // namespace
}  // namespace cfs
