// RPC service-layer tests (src/rpc/): seeded-jitter backoff determinism,
// deadline propagation through the nested meta->data write workflow, and
// leader-aware routing (crash -> exactly one cache invalidation, then the
// repointed cache serves subsequent calls), and the router's seeded
// writable-partition picks.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "harness/cluster.h"
#include "rpc/retry_policy.h"

namespace cfs::harness {
namespace {

using client::MountContext;
using meta::FileType;
using meta::kRootInode;

// --- Backoff ----------------------------------------------------------------

std::vector<SimDuration> DelayTrace(uint64_t seed) {
  sim::Scheduler sched(seed);
  rpc::RetryPolicy policy = rpc::RetryPolicy::Control();
  std::vector<SimDuration> delays;
  for (int call = 0; call < 8; call++) {
    rpc::Backoff backoff(&sched, policy);
    while (backoff.NextAttempt()) delays.push_back(backoff.NextDelay());
  }
  return delays;
}

TEST(Backoff, JitterIsSeedDeterministic) {
  EXPECT_EQ(DelayTrace(42), DelayTrace(42));
  EXPECT_NE(DelayTrace(42), DelayTrace(43));
}

TEST(Backoff, DelaysFollowEqualJitterSchedule) {
  sim::Scheduler sched(7);
  rpc::RetryPolicy policy = rpc::RetryPolicy::Data();
  rpc::Backoff backoff(&sched, policy);
  SimDuration nominal = policy.backoff_base;
  while (backoff.NextAttempt()) {
    SimDuration d = backoff.NextDelay();
    EXPECT_GE(d, nominal / 2) << "attempt " << backoff.attempt();
    EXPECT_LE(d, nominal) << "attempt " << backoff.attempt();
    nominal = std::min(nominal * 2, policy.backoff_cap);
  }
  EXPECT_TRUE(backoff.exhausted());
}

TEST(Backoff, AttemptBudgetMatchesPolicy) {
  sim::Scheduler sched(7);
  rpc::RetryPolicy policy;
  policy.max_attempts = 3;
  rpc::Backoff backoff(&sched, policy);
  int granted = 0;
  while (backoff.NextAttempt()) granted++;
  EXPECT_EQ(granted, 3);
  EXPECT_FALSE(backoff.NextAttempt());
}

// --- Full-stack retries stay on the determinism auditor's contract ----------

TEST(RpcDeterminism, RetriesWithJitterReplayIdentically) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = 29;
  opts.client.rpc_timeout = 300 * kMsec;
  auto scenario = [](Cluster& cluster) {
    auto st = RunTask(cluster.sched(), cluster.Start());
    ASSERT_TRUE(st && st->ok());
    st = RunTask(cluster.sched(), cluster.CreateVolume("v", 3, 8));
    ASSERT_TRUE(st && st->ok());
    auto c = RunTask(cluster.sched(), cluster.MountClient("v"));
    ASSERT_TRUE(c && c->ok());
    MountContext* client = (**c)->default_mount();
    // 5% loss makes the retry/backoff machinery fire; the seeded jitter must
    // fold into the same trace hash on both runs.
    cluster.net().SetDropProbability(0.05);
    for (int i = 0; i < 12; i++) {
      std::string name = "f";
      name += std::to_string(i);
      auto f = RunTask(cluster.sched(), client->Create(kRootInode, name, FileType::kFile));
      if (!f || !f->ok()) continue;
      if (!RunTask(cluster.sched(), client->Open((*f)->id))->ok()) continue;
      (void)RunTask(cluster.sched(),
                    client->Write((*f)->id, 0, std::string(32 * kKiB, 'j')));
    }
    cluster.sched().RunFor(2 * kSec);
  };
  auto [first, second] = AuditDeterminism(opts, scenario);
  EXPECT_EQ(first, second);
}

// --- Deadline propagation ----------------------------------------------------

TEST(Deadline, BoundsNestedWriteWorkflowUnderTotalLoss) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = 31;
  opts.client.rpc_timeout = 300 * kMsec;
  opts.client.op_deadline = 600 * kMsec;
  Cluster cluster(opts);
  ASSERT_TRUE(RunTask(cluster.sched(), cluster.Start())->ok());
  ASSERT_TRUE(RunTask(cluster.sched(), cluster.CreateVolume("v", 3, 8))->ok());
  auto c = RunTask(cluster.sched(), cluster.MountClient("v"));
  ASSERT_TRUE(c->ok());
  MountContext* client = (**c)->default_mount();

  auto f = RunTask(cluster.sched(),
                   client->Create(kRootInode, "bounded", FileType::kFile));
  ASSERT_TRUE(f->ok());
  ASSERT_TRUE(RunTask(cluster.sched(), client->Open((*f)->id))->ok());

  // Total loss: without a propagated deadline the write would burn the full
  // attempt budget of every nested stage (extent alloc, chain send, meta
  // size update), far past the operation deadline.
  cluster.net().SetDropProbability(1.0);
  SimTime start = cluster.sched().Now();
  auto st = RunTask(cluster.sched(),
                    client->Write((*f)->id, 0, std::string(64 * kKiB, 'd')));
  ASSERT_TRUE(st.has_value()) << "write hung";
  EXPECT_FALSE(st->ok());
  SimDuration elapsed = cluster.sched().Now() - start;
  // The deadline may overshoot by at most one in-flight leg or backoff
  // sleep per nesting level, never by a full per-stage retry budget.
  EXPECT_LE(elapsed, 2500 * kMsec) << "deadline did not propagate";
  // Every failed leg was metered by the channel.
  EXPECT_GE(client->metrics().SumCounters("rpc.", ".timeout"), 2u);

  // A metadata op under the same loss terminates inside the retrying stub,
  // which records the deadline-exceeded call outcome.
  start = cluster.sched().Now();
  auto cr = RunTask(cluster.sched(),
                    client->Create(kRootInode, "late", FileType::kFile));
  ASSERT_TRUE(cr.has_value()) << "create hung";
  EXPECT_FALSE(cr->ok());
  EXPECT_LE(cluster.sched().Now() - start, 2500 * kMsec);
  EXPECT_GE(client->metrics().SumCounters("rpc.", ".deadline_exceeded"), 1u);
  cluster.net().SetDropProbability(0);
}

// --- Leader-aware routing ----------------------------------------------------

TEST(Router, MetaLeaderCrashInvalidatesCacheOnceThenRedirects) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = 37;
  opts.client.rpc_timeout = 300 * kMsec;
  // Every GetInode must issue a real RPC leg; the client's metadata cache
  // would otherwise satisfy repeat root lookups locally.
  opts.client.enable_metadata_cache = false;
  Cluster cluster(opts);
  ASSERT_TRUE(RunTask(cluster.sched(), cluster.Start())->ok());
  ASSERT_TRUE(RunTask(cluster.sched(), cluster.CreateVolume("v", 3, 8))->ok());
  auto c = RunTask(cluster.sched(), cluster.MountClient("v"));
  ASSERT_TRUE(c->ok());
  MountContext* client = (**c)->default_mount();

  // Warm the root partition's leader cache with one successful call.
  ASSERT_TRUE(RunTask(cluster.sched(), client->GetInode(kRootInode))->ok());

  // Find the meta partition owning the root inode and the node running its
  // raft leader.
  master::MasterNode* ml = cluster.master_leader();
  ASSERT_NE(ml, nullptr);
  meta::PartitionId root_pid = 0;
  for (const auto& [pid, rec] : ml->state().meta_partitions()) {
    if (rec.start <= kRootInode && kRootInode < rec.end) {
      root_pid = pid;
      break;
    }
  }
  ASSERT_NE(root_pid, 0u);
  int leader_node = -1;
  for (int i = 0; i < cluster.num_nodes(); i++) {
    raft::RaftNode* rn = cluster.meta_node(i)->GetRaft(root_pid);
    if (rn && rn->IsLeader()) {
      leader_node = i;
      break;
    }
  }
  ASSERT_GE(leader_node, 0);

  cluster.CrashNode(leader_node);

  // Let the partition re-elect and propagate the new leader's heartbeats, so
  // follower NotLeader hints are fresh. (Probing mid-election can follow a
  // stale hint back to the dead node and legitimately invalidate twice; the
  // scenario pinned here is the steady-state §2.4 one.)
  ASSERT_TRUE(cluster.RunUntil([&] {
    for (int i = 0; i < cluster.num_nodes(); i++) {
      if (i == leader_node) continue;
      raft::RaftNode* rn = cluster.meta_node(i)->GetRaft(root_pid);
      if (rn && rn->IsLeader()) return true;
    }
    return false;
  }));
  cluster.sched().RunFor(500 * kMsec);

  // The mount's Router counts into the client host's registry.
  const obs::Registry before = client->metrics();

  // The next call's first leg hits the dead cached leader: exactly one cache
  // invalidation, then one probe lands on a live replica which either IS the
  // new leader or redirects to it.
  auto g = RunTask(cluster.sched(), client->GetInode(kRootInode), 200'000'000);
  ASSERT_TRUE(g.has_value() && g->ok()) << "op did not survive leader crash";
  const obs::Registry after = client->metrics();
  EXPECT_EQ(after.counter("router.invalidations"), before.counter("router.invalidations") + 1);
  EXPECT_GE(after.counter("router.leader_probes"), before.counter("router.leader_probes") + 1);

  // The repointed cache serves the follow-up call with no extra probing.
  ASSERT_TRUE(RunTask(cluster.sched(), client->GetInode(kRootInode))->ok());
  const obs::Registry& again = client->metrics();
  EXPECT_EQ(again.counter("router.invalidations"), after.counter("router.invalidations"));
  EXPECT_EQ(again.counter("router.leader_cache_hits"),
            after.counter("router.leader_cache_hits") + 1);
  EXPECT_EQ(again.counter("router.leader_probes"), after.counter("router.leader_probes"));
}

// --- Writable-partition picks ---------------------------------------------------

/// The pick as the router made it by collecting the writable views into a
/// temporary vector and drawing Uniform(n) over it: the reference the
/// count-then-pick code must match draw for draw.
template <typename View>
meta::PartitionId ReferencePick(const std::vector<View>& views,
                                const std::map<meta::PartitionId, SimTime>& marks, SimTime now,
                                Rng& rng, meta::PartitionId avoid) {
  std::vector<const View*> writable;
  const View* avoided = nullptr;
  for (const View& v : views) {
    auto it = marks.find(v.pid);
    if (it != marks.end() && it->second > now) continue;
    if (!v.writable) continue;
    if (v.pid == avoid) {
      avoided = &v;
      continue;
    }
    writable.push_back(&v);
  }
  if (writable.empty()) return avoided != nullptr ? avoided->pid : 0;
  return writable[rng.Uniform(writable.size())]->pid;
}

TEST(Router, WritablePicksMatchTheCollectThenDrawReference) {
  sim::Scheduler sched(5);
  obs::Registry registry;
  rpc::Router router(&sched, {}, registry);
  Rng ref_rng(5);    // replays the scheduler's stream for the reference
  Rng script(99);    // drives the marks, refreshes and avoided partitions
  std::vector<master::MetaPartitionView> meta(12);
  std::vector<master::DataPartitionView> data(16);
  for (size_t i = 0; i < meta.size(); i++) meta[i].pid = 1 + i;
  for (size_t i = 0; i < data.size(); i++) data[i].pid = 101 + i;
  meta[2].writable = false;  // full according to the master
  data[5].writable = false;
  // The reference's copy of the router's views and local marks.
  std::vector<master::MetaPartitionView> ref_meta;
  std::vector<master::DataPartitionView> ref_data;
  std::map<meta::PartitionId, SimTime> marks;
  auto marked = [&](meta::PartitionId pid) {
    auto it = marks.find(pid);
    return it != marks.end() && it->second > sched.Now();
  };
  auto install = [&] {
    router.InstallViews(meta, data);
    ref_meta = meta;
    ref_data = data;
    for (auto& v : ref_meta) v.writable = v.writable && !marked(v.pid);
    for (auto& v : ref_data) v.writable = v.writable && !marked(v.pid);
  };
  auto mark = [&](meta::PartitionId pid, SimTime until) {
    router.MarkUnwritable(pid, until);
    marks[pid] = until;
    for (auto& v : ref_meta) v.writable = v.writable && v.pid != pid;
    for (auto& v : ref_data) v.writable = v.writable && v.pid != pid;
  };
  install();
  int fallbacks = 0;
  for (int step = 0; step < 3000; step++) {
    sched.RunFor(1 * kMsec);
    if (step % 500 == 250) {
      // Leave one data partition writable, so picks that avoid it fall back.
      for (size_t i = 1; i < data.size(); i++) mark(data[i].pid, sched.Now() + 20 * kMsec);
    }
    if (script.Chance(0.05)) {
      const bool is_meta = script.Chance(0.5);
      mark(is_meta ? meta[script.Uniform(meta.size())].pid : data[script.Uniform(data.size())].pid,
           sched.Now() + static_cast<SimDuration>(script.Range(1, 50)) * kMsec);
    }
    if (script.Chance(0.03)) install();
    master::MetaPartitionView* m = router.PickWritableMetaView();
    EXPECT_EQ(m ? m->pid : 0, ReferencePick(ref_meta, marks, sched.Now(), ref_rng, 0))
        << "step " << step;
    const meta::PartitionId avoid =
        script.Chance(0.3) ? data[script.Uniform(data.size())].pid : data[0].pid;
    master::DataPartitionView* d = router.PickWritableDataView(avoid);
    const meta::PartitionId want = ReferencePick(ref_data, marks, sched.Now(), ref_rng, avoid);
    EXPECT_EQ(d ? d->pid : 0, want) << "step " << step;
    fallbacks += want == avoid ? 1 : 0;
  }
  EXPECT_GT(fallbacks, 0);  // the last-resort path ran
}

}  // namespace
}  // namespace cfs::harness
