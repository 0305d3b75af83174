// Raft/MultiRaft tests: election, replication, commit semantics, leader
// failover, log conflict resolution, snapshots/compaction, crash recovery,
// partitions, and heartbeat coalescing.
#include <gtest/gtest.h>

#include <numeric>

#include "raft/multiraft.h"
#include "raft/raft_node.h"
#include "sim/network.h"

namespace cfs::raft {
namespace {

using sim::NodeId;
using sim::Spawn;
using sim::Task;

/// Test state machine: an append-only list of applied commands. It hands
/// the applied index to a waiting proposer as the outcome value and records
/// which applies had a proposer's slot.
class ListSm : public StateMachine {
 public:
  void Apply(Index index, const Buffer& head, const Buffer& payload,
             ApplyOutcome* out) override {
    applied.emplace_back(index, head.ToString() + payload.ToString());
    if (out) {
      out->value = index;
      slotted.push_back(index);
    }
  }
  Buffer TakeSnapshot() override {
    Encoder enc;
    enc.PutU64(applied.size());
    for (auto& [i, d] : applied) {
      enc.PutU64(i);
      enc.PutString(d);
    }
    return Buffer::FromString(enc.Take());
  }
  Status Restore(std::string_view snap) override {
    std::vector<std::pair<Index, std::string>> restored;
    Decoder dec(snap);
    uint64_t n = 0;
    dec.GetU64(&n);
    for (uint64_t k = 0; k < n && dec.ok(); k++) {
      uint64_t i = 0;
      std::string d;
      dec.GetU64(&i);
      dec.GetString(&d);
      restored.emplace_back(i, std::move(d));
    }
    if (dec.ok()) applied = std::move(restored);
    return dec.status();
  }
  std::vector<std::pair<Index, std::string>> applied;
  std::vector<Index> slotted;  // indices applied with a proposer's slot
};

class RaftCluster : public ::testing::Test {
 protected:
  static constexpr int kN = 3;

  void SetUp() override { Build(kN, {}); }

  void Build(int n, RaftOptions opts) {
    sched_ = std::make_unique<sim::Scheduler>(seed_);
    net_ = std::make_unique<sim::Network>(sched_.get());
    hosts_.clear();
    rafts_.clear();
    sms_.clear();
    nodes_.clear();
    std::vector<NodeId> peers;
    for (int i = 0; i < n; i++) {
      hosts_.push_back(net_->AddHost());
      peers.push_back(hosts_.back()->id());
    }
    for (int i = 0; i < n; i++) {
      rafts_.push_back(std::make_unique<RaftHost>(net_.get(), hosts_[i], opts));
      sms_.push_back(std::make_unique<ListSm>());
      RaftNode* node =
          rafts_[i]->CreateGroup(1, peers, sms_[i].get(), hosts_[i]->disk(0));
      node->Start();
      nodes_.push_back(node);
    }
  }

  /// Run until some node is leader; returns its array position.
  int AwaitLeader(GroupId gid = 1) {
    for (int round = 0; round < 600; round++) {
      sched_->RunFor(10 * kMsec);
      for (size_t i = 0; i < nodes_.size(); i++) {
        RaftNode* n = gid == 1 ? nodes_[i] : rafts_[i]->Get(gid);
        if (n && n->IsLeader()) return static_cast<int>(i);
      }
    }
    ADD_FAILURE() << "no leader elected";
    return -1;
  }

  /// Make node `i` stand for election now; true once it leads (within
  /// 100 ms).
  bool ForceElection(int i) {
    nodes_[i]->TriggerElection();
    for (int round = 0; round < 100 && !nodes_[i]->IsLeader(); round++) {
      sched_->RunFor(1 * kMsec);
    }
    return nodes_[i]->IsLeader();
  }

  /// Propose on the leader and run to completion. Returns the status.
  Status ProposeOn(int idx, std::string cmd) {
    Status result = Status::Retry("not finished");
    Spawn([](RaftNode* n, std::string cmd, Status& result) -> Task<void> {
      result = co_await n->Propose(std::move(cmd));
    }(nodes_[idx], std::move(cmd), result));
    for (int round = 0; round < 600 && result.IsRetry(); round++) {
      sched_->RunFor(10 * kMsec);
    }
    return result;
  }

  uint64_t seed_ = 42;
  std::unique_ptr<sim::Scheduler> sched_;
  std::unique_ptr<sim::Network> net_;
  std::vector<sim::Host*> hosts_;
  std::vector<std::unique_ptr<RaftHost>> rafts_;
  std::vector<std::unique_ptr<ListSm>> sms_;
  std::vector<RaftNode*> nodes_;
};

TEST_F(RaftCluster, ElectsExactlyOneLeader) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  sched_->RunFor(2 * kSec);
  int leaders = 0;
  for (auto* n : nodes_) leaders += n->IsLeader();
  EXPECT_EQ(leaders, 1);
}

TEST_F(RaftCluster, ProposeReplicatesToAll) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  EXPECT_TRUE(ProposeOn(leader, "cmd-a").ok());
  EXPECT_TRUE(ProposeOn(leader, "cmd-b").ok());
  sched_->RunFor(500 * kMsec);
  for (auto& sm : sms_) {
    ASSERT_EQ(sm->applied.size(), 2u);
    EXPECT_EQ(sm->applied[0].second, "cmd-a");
    EXPECT_EQ(sm->applied[1].second, "cmd-b");
  }
}

TEST_F(RaftCluster, FollowerRejectsPropose) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  int follower = (leader + 1) % kN;
  Status st = ProposeOn(follower, "x");
  EXPECT_TRUE(st.IsNotLeader());
  // The hint should point at the actual leader.
  EXPECT_EQ(st.message(), std::to_string(hosts_[leader]->id()));
}

TEST_F(RaftCluster, CommitRequiresMajority) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  // Cut the leader off from both followers: no further commit possible.
  for (int i = 0; i < kN; i++) {
    if (i != leader) net_->SetPartitioned(hosts_[leader]->id(), hosts_[i]->id(), true);
  }
  Status st = ProposeOn(leader, "lost");
  EXPECT_FALSE(st.ok());  // TimedOut or NotLeader after stepdown
}

TEST_F(RaftCluster, FailoverElectsNewLeaderAndKeepsData) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  EXPECT_TRUE(ProposeOn(leader, "before-crash").ok());
  hosts_[leader]->Crash();
  sched_->RunFor(2 * kSec);
  int new_leader = -1;
  for (int i = 0; i < kN; i++) {
    if (i != leader && nodes_[i]->IsLeader()) new_leader = i;
  }
  ASSERT_GE(new_leader, 0);
  EXPECT_TRUE(ProposeOn(new_leader, "after-crash").ok());
  sched_->RunFor(500 * kMsec);
  ASSERT_EQ(sms_[new_leader]->applied.size(), 2u);
  EXPECT_EQ(sms_[new_leader]->applied[0].second, "before-crash");
  EXPECT_EQ(sms_[new_leader]->applied[1].second, "after-crash");
}

TEST_F(RaftCluster, CrashedNodeRecoversStateFromDisk) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(ProposeOn(leader, "op" + std::to_string(i)).ok());
  }
  int victim = (leader + 1) % kN;
  hosts_[victim]->Crash();
  sched_->RunFor(1 * kSec);
  // More traffic while the victim is down.
  leader = AwaitLeader();
  for (int i = 5; i < 8; i++) {
    ASSERT_TRUE(ProposeOn(leader, "op" + std::to_string(i)).ok());
  }
  // Restart: state machine reset, log replayed, then caught up by leader.
  hosts_[victim]->Restart();
  sms_[victim]->applied.clear();  // simulate lost in-memory state
  Spawn([](RaftNode* n) -> Task<void> { (void)co_await n->Recover(); }(nodes_[victim]));
  sched_->RunFor(3 * kSec);
  ASSERT_EQ(sms_[victim]->applied.size(), 8u);
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(sms_[victim]->applied[i].second, "op" + std::to_string(i));
  }
}

TEST_F(RaftCluster, PartitionedMinorityLeaderStepsDownAndCatchesUp) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  ASSERT_TRUE(ProposeOn(leader, "a").ok());
  // Partition the leader away; majority elects a new leader and commits.
  for (int i = 0; i < kN; i++) {
    if (i != leader) net_->SetPartitioned(hosts_[leader]->id(), hosts_[i]->id(), true);
  }
  sched_->RunFor(3 * kSec);
  int new_leader = -1;
  for (int i = 0; i < kN; i++) {
    if (i != leader && nodes_[i]->IsLeader()) new_leader = i;
  }
  ASSERT_GE(new_leader, 0);
  ASSERT_TRUE(ProposeOn(new_leader, "b").ok());
  // Heal. The old leader must step down and converge.
  for (int i = 0; i < kN; i++) {
    if (i != leader) net_->SetPartitioned(hosts_[leader]->id(), hosts_[i]->id(), false);
  }
  sched_->RunFor(3 * kSec);
  EXPECT_FALSE(nodes_[leader]->IsLeader() && nodes_[new_leader]->IsLeader());
  ASSERT_EQ(sms_[leader]->applied.size(), 2u);
  EXPECT_EQ(sms_[leader]->applied[1].second, "b");
}

TEST_F(RaftCluster, SnapshotCompactionTruncatesLog) {
  RaftOptions opts;
  opts.compaction_threshold = 32;
  Build(3, opts);
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 100; i++) {
    std::string cmd = "e";
    cmd += std::to_string(i);
    ASSERT_TRUE(ProposeOn(leader, cmd).ok());
  }
  sched_->RunFor(1 * kSec);
  EXPECT_GT(nodes_[leader]->log().snapshot_index(), 0u);
  EXPECT_LT(nodes_[leader]->log().last_index() - nodes_[leader]->log().snapshot_index(), 64u);
  // All state machines still saw every entry exactly once, in order.
  for (auto& sm : sms_) {
    ASSERT_EQ(sm->applied.size(), 100u);
    EXPECT_EQ(sm->applied[99].second, "e99");
  }
}

// A snapshot the state machine cannot decode (ListSm reads a U64 count
// first; this one holds a single byte).
Buffer UndecodableSnapshot() { return Buffer::FromString(std::string("\x05", 1)); }

TEST_F(RaftCluster, InstallSnapshotThatDoesNotDecodeIsRefused) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  ASSERT_TRUE(ProposeOn(leader, "cmd-a").ok());
  sched_->RunFor(500 * kMsec);
  const int f = (leader + 1) % kN;
  RaftNode* node = nodes_[f];
  const Index applied = node->applied_index();
  ASSERT_EQ(sms_[f]->applied.size(), 1u);

  InstallSnapshotReq req;
  req.gid = 1;
  req.term = node->term();
  req.leader = hosts_[leader]->id();
  req.snap_index = applied + 100;
  req.snap_term = node->term();
  req.data = UndecodableSnapshot();
  InstallSnapshotResp resp;
  bool done = false;
  Spawn([](RaftNode* n, InstallSnapshotReq req, InstallSnapshotResp* resp,
           bool* done) -> Task<void> {
    *resp = co_await n->OnInstallSnapshot(std::move(req));
    *done = true;
  }(node, std::move(req), &resp, &done));
  sched_->RunFor(100 * kMsec);
  ASSERT_TRUE(done);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(node->log().snapshot_index(), 0u);  // the log keeps its own snapshot
  EXPECT_EQ(node->applied_index(), applied);
  ASSERT_EQ(sms_[f]->applied.size(), 1u);
  EXPECT_EQ(sms_[f]->applied[0].second, "cmd-a");
}

TEST_F(RaftCluster, RecoverFailsOnSnapshotThatDoesNotDecode) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  RaftNode* node = nodes_[(leader + 1) % kN];
  Status saved = Status::Retry("not finished");
  Status recovered = Status::Retry("not finished");
  Spawn([](RaftNode* n, Status* saved, Status* recovered) -> Task<void> {
    *saved = co_await n->log().InstallSnapshot(50, n->term(), UndecodableSnapshot());
    *recovered = co_await n->Recover();
  }(node, &saved, &recovered));
  sched_->RunFor(100 * kMsec);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_TRUE(recovered.IsCorruption()) << recovered.ToString();
}

TEST_F(RaftCluster, LaggingFollowerCatchesUpViaSnapshot) {
  RaftOptions opts;
  opts.compaction_threshold = 16;
  Build(3, opts);
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  int victim = (leader + 1) % 3;
  hosts_[victim]->Crash();
  for (int i = 0; i < 80; i++) {
    leader = AwaitLeader();
    std::string cmd = "v";
    cmd += std::to_string(i);
    ASSERT_TRUE(ProposeOn(leader, cmd).ok());
  }
  sched_->RunFor(1 * kSec);
  ASSERT_GT(nodes_[leader]->log().snapshot_index(), 0u);
  hosts_[victim]->Restart();
  sms_[victim]->applied.clear();
  Spawn([](RaftNode* n) -> Task<void> { (void)co_await n->Recover(); }(nodes_[victim]));
  sched_->RunFor(5 * kSec);
  ASSERT_EQ(sms_[victim]->applied.size(), 80u);
  EXPECT_EQ(sms_[victim]->applied[79].second, "v79");
}

TEST_F(RaftCluster, SingleReplicaGroupCommitsLocally) {
  Build(1, {});
  int leader = AwaitLeader();
  ASSERT_EQ(leader, 0);
  EXPECT_TRUE(ProposeOn(0, "solo").ok());
  EXPECT_EQ(sms_[0]->applied.size(), 1u);
}

TEST_F(RaftCluster, FiveReplicaClusterSurvivesTwoFailures) {
  Build(5, {});
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  ASSERT_TRUE(ProposeOn(leader, "x").ok());
  int down = 0;
  for (int i = 0; i < 5 && down < 2; i++) {
    if (i != leader) {
      hosts_[i]->Crash();
      down++;
    }
  }
  EXPECT_TRUE(ProposeOn(leader, "y").ok());
}

TEST_F(RaftCluster, MultipleGroupsOnSameHosts) {
  std::vector<NodeId> peers = {hosts_[0]->id(), hosts_[1]->id(), hosts_[2]->id()};
  std::vector<std::unique_ptr<ListSm>> sms2;
  std::vector<RaftNode*> g2;
  for (int i = 0; i < 3; i++) {
    sms2.push_back(std::make_unique<ListSm>());
    RaftNode* n = rafts_[i]->CreateGroup(2, peers, sms2.back().get(), hosts_[i]->disk(1));
    n->Start();
    g2.push_back(n);
  }
  (void)AwaitLeader(1);
  int leader2 = AwaitLeader(2);
  ASSERT_GE(leader2, 0);
  Status result = Status::Retry("");
  Spawn([](RaftNode* n, Status& result) -> Task<void> {
    result = co_await n->Propose("group2-data");
  }(g2[leader2], result));
  for (int i = 0; i < 300 && result.IsRetry(); i++) sched_->RunFor(10 * kMsec);
  EXPECT_TRUE(result.ok());
  for (auto& sm : sms2) {
    sched_->RunFor(200 * kMsec);
    ASSERT_EQ(sm->applied.size(), 1u);
  }
  // Group 1 unaffected.
  for (auto& sm : sms_) EXPECT_EQ(sm->applied.size(), 0u);
}

TEST_F(RaftCluster, CoalescedHeartbeatsSendFewerMessages) {
  // With 8 groups across the same 3 hosts, MultiRaft sends one heartbeat
  // message per peer per interval; plain raft sends one per group per peer.
  auto measure = [&](bool coalesce) {
    Build(3, {});
    std::vector<NodeId> peers = {hosts_[0]->id(), hosts_[1]->id(), hosts_[2]->id()};
    std::vector<std::unique_ptr<ListSm>> extra;
    for (GroupId g = 2; g <= 8; g++) {
      for (int i = 0; i < 3; i++) {
        extra.push_back(std::make_unique<ListSm>());
        rafts_[i]->set_coalesce_heartbeats(coalesce);
        RaftNode* n = rafts_[i]->CreateGroup(g, peers, extra.back().get(),
                                             hosts_[i]->disk(static_cast<int>(g % 4)));
        n->Start();
      }
    }
    for (int i = 0; i < 3; i++) rafts_[i]->set_coalesce_heartbeats(coalesce);
    for (GroupId g = 1; g <= 8; g++) AwaitLeader(g);
    uint64_t before = 0;
    for (auto& r : rafts_) before += r->heartbeat_msgs_sent();
    sched_->RunFor(5 * kSec);
    uint64_t after = 0;
    for (auto& r : rafts_) after += r->heartbeat_msgs_sent();
    return after - before;
  };
  uint64_t coalesced = measure(true);
  uint64_t separate = measure(false);
  EXPECT_GT(separate, coalesced * 2);
}

TEST_F(RaftCluster, ManySequentialProposalsAllApplyInOrder) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(ProposeOn(leader, std::to_string(i)).ok());
  }
  sched_->RunFor(1 * kSec);
  for (auto& sm : sms_) {
    ASSERT_EQ(sm->applied.size(), 50u);
    for (int i = 0; i < 50; i++) EXPECT_EQ(sm->applied[i].second, std::to_string(i));
    // Indices strictly increasing.
    for (size_t k = 1; k < sm->applied.size(); k++) {
      EXPECT_GT(sm->applied[k].first, sm->applied[k - 1].first);
    }
  }
}

TEST_F(RaftCluster, ConcurrentProposalsAllCommit) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  int ok = 0, fail = 0;
  for (int i = 0; i < 20; i++) {
    Spawn([](RaftNode* n, int i, int& ok, int& fail) -> Task<void> {
      Status st = co_await n->Propose("c" + std::to_string(i));
      (st.ok() ? ok : fail)++;
    }(nodes_[leader], i, ok, fail));
  }
  sched_->RunFor(5 * kSec);
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(fail, 0);
  for (auto& sm : sms_) EXPECT_EQ(sm->applied.size(), 20u);
}

TEST_F(RaftCluster, ProposedPayloadIsSharedNotCopied) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  Buffer payload = Buffer::Filled(64 * kKiB, 'p');
  Status st = Status::Retry("not finished");
  ApplyOutcome out;
  Spawn([](RaftNode* n, Buffer payload, Status& st, ApplyOutcome* out) -> Task<void> {
    st = co_await n->Propose("head:", std::move(payload), {}, out);
  }(nodes_[leader], payload, st, &out));
  sched_->RunFor(2 * kSec);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < kN; i++) {
    // Every replica's log entry points at the proposer's bytes: replication
    // and the WAL carried a reference, not a copy.
    const LogEntry& e = nodes_[i]->log().At(out.value);
    EXPECT_EQ(e.head, std::string_view("head:"));
    EXPECT_EQ(e.payload.data(), payload.data()) << "replica " << i;
    EXPECT_EQ(e.WireBytes(), 24 + 5 + payload.size());
    ASSERT_FALSE(sms_[i]->applied.empty());
    EXPECT_EQ(sms_[i]->applied.back().second, "head:" + payload.ToString());
  }
}

TEST_F(RaftCluster, OutcomeReachesOnlyTheWaitingProposer) {
  RaftOptions opts;
  opts.propose_timeout = 30 * kSec;  // the stale proposer below must still wait at heal
  Build(kN, opts);
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  auto propose = [this](int node, std::string cmd, Status* st, ApplyOutcome* out) {
    Spawn([](RaftNode* n, std::string cmd, Status* st, ApplyOutcome* out) -> Task<void> {
      *st = co_await n->Propose(std::move(cmd), {}, {}, out);
    }(nodes_[node], std::move(cmd), st, out));
  };
  Status st_a = Status::Retry("not finished");
  ApplyOutcome out_a;
  propose(leader, "a", &st_a, &out_a);
  sched_->RunFor(1 * kSec);
  ASSERT_TRUE(st_a.ok()) << st_a.ToString();
  ASSERT_FALSE(sms_[leader]->applied.empty());
  EXPECT_EQ(out_a.value, sms_[leader]->applied.back().first);
  EXPECT_EQ(sms_[leader]->slotted, std::vector<Index>{out_a.value});
  for (int i = 0; i < kN; i++) {
    if (i == leader) continue;
    EXPECT_EQ(sms_[i]->applied.size(), sms_[leader]->applied.size()) << "replica " << i;
    EXPECT_TRUE(sms_[i]->slotted.empty()) << "follower " << i << " got a slot";
  }

  // A proposer on a leader cut off from the majority: the new leader's entry
  // at its index has another term, so it fails and its slot stays untouched.
  for (int i = 0; i < kN; i++) {
    if (i != leader) net_->SetPartitioned(hosts_[leader]->id(), hosts_[i]->id(), true);
  }
  Status st_lost = Status::Retry("not finished");
  ApplyOutcome out_lost;
  out_lost.value = 777;
  propose(leader, "lost", &st_lost, &out_lost);
  sched_->RunFor(3 * kSec);
  int new_leader = -1;
  for (int i = 0; i < kN; i++) {
    if (i != leader && nodes_[i]->IsLeader()) new_leader = i;
  }
  ASSERT_GE(new_leader, 0);
  Status st_b = Status::Retry("not finished");
  ApplyOutcome out_b;
  propose(new_leader, "b", &st_b, &out_b);
  sched_->RunFor(1 * kSec);
  ASSERT_TRUE(st_b.ok()) << st_b.ToString();
  EXPECT_EQ(sms_[new_leader]->slotted.back(), out_b.value);
  for (int i = 0; i < kN; i++) {
    if (i != leader) net_->SetPartitioned(hosts_[leader]->id(), hosts_[i]->id(), false);
  }
  sched_->RunFor(3 * kSec);
  EXPECT_FALSE(st_lost.ok());
  EXPECT_FALSE(st_lost.IsRetry()) << "stale proposer never resolved";
  EXPECT_EQ(out_lost.value, 777u);
  EXPECT_TRUE(out_lost.status.ok());
  ASSERT_EQ(sms_[leader]->applied.back().second, "b");
  EXPECT_EQ(sms_[leader]->slotted, std::vector<Index>{out_a.value});
}

TEST_F(RaftCluster, TimedOutProposalCommitsWithoutOutcome) {
  RaftOptions opts;
  opts.propose_timeout = 1;  // expires before the first WAL write completes
  Build(kN, opts);
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  Status st = Status::Retry("not finished");
  ApplyOutcome out;
  out.value = 777;
  Spawn([](RaftNode* n, Status* st, ApplyOutcome* out) -> Task<void> {
    *st = co_await n->Propose("late", {}, {}, out);
  }(nodes_[leader], &st, &out));
  sched_->RunFor(2 * kSec);
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  for (int i = 0; i < kN; i++) {
    ASSERT_FALSE(sms_[i]->applied.empty()) << "replica " << i;
    EXPECT_EQ(sms_[i]->applied.back().second, "late");
    EXPECT_TRUE(sms_[i]->slotted.empty()) << "replica " << i << " wrote a dead slot";
  }
  EXPECT_EQ(out.value, 777u);
}

TEST_F(RaftCluster, CommittedProposalLeavesNoTimeoutPending) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  ASSERT_TRUE(ProposeOn(leader, "x").ok());
  // Freeze the cluster: with every host down only the periodic loops keep
  // events queued, and in-flight RPC watchdogs (200 ms) expire within 1 s.
  for (auto* h : hosts_) h->Crash();
  sched_->RunFor(1 * kSec);
  const size_t before = sched_->pending();
  // Past the proposal's 2 s timeout: an armed timer would have left the
  // queue here, so the count would drop.
  sched_->RunFor(2 * kSec);
  EXPECT_EQ(sched_->pending(), before);
}

TEST_F(RaftCluster, AppendWithDuplicateAndConflictingEntriesAppendsTheSuffix) {
  int a = AwaitLeader();
  ASSERT_GE(a, 0);
  ASSERT_TRUE(ProposeOn(a, "c1").ok());
  RaftNode* node = nodes_[a];
  const Index committed = node->last_log_index();
  const Term old_term = node->term();
  // Cut the leader off, then let it append two proposals it cannot commit.
  for (int i = 0; i < kN; i++) {
    if (i != a) net_->SetPartitioned(hosts_[a]->id(), hosts_[i]->id(), true);
  }
  std::vector<Status> lost(2, Status::Retry("not finished"));
  for (int k = 0; k < 2; k++) {
    Spawn([](RaftNode* n, std::string cmd, Status* st) -> Task<void> {
      *st = co_await n->Propose(std::move(cmd));
    }(node, "lost" + std::to_string(k), &lost[k]));
  }
  sched_->RunFor(20 * kMsec);
  ASSERT_EQ(node->last_log_index(), committed + 2);
  const char* kept_head = node->log().At(committed).head.data();
  const uint64_t appended0 = hosts_[a]->metrics().counter("raft.log.appended_entries");

  // A newer leader's AppendEntries: one duplicate, then three entries of its
  // own term, the first two overwriting the lost proposals.
  AppendReq req;
  req.gid = 1;
  req.term = old_term + 1;
  req.leader = hosts_[(a + 1) % kN]->id();
  req.prev_index = committed - 1;
  req.prev_term = node->log().TermAt(committed - 1);
  req.entries.push_back(node->log().At(committed));
  for (Index i = committed + 1; i <= committed + 3; i++) {
    req.entries.push_back({old_term + 1, i, Buffer::CopyOf("new" + std::to_string(i)), {}});
  }
  AppendResp resp;
  Spawn([](RaftNode* n, AppendReq req, AppendResp* resp) -> Task<void> {
    *resp = co_await n->OnAppend(std::move(req));
  }(node, req, &resp));
  sched_->RunFor(20 * kMsec);

  EXPECT_TRUE(resp.success);
  EXPECT_EQ(resp.match_hint, committed + 3);
  ASSERT_EQ(node->last_log_index(), committed + 3);
  // The duplicate was not re-appended: the log still holds its own entry.
  EXPECT_EQ(node->log().At(committed).head.data(), kept_head);
  EXPECT_EQ(node->log().At(committed).term, old_term);
  for (Index i = committed + 1; i <= committed + 3; i++) {
    EXPECT_EQ(node->log().At(i).term, old_term + 1);
    EXPECT_EQ(node->log().At(i).head, "new" + std::to_string(i));
  }
  EXPECT_EQ(hosts_[a]->metrics().counter("raft.log.appended_entries") - appended0, 3u);
  for (const Status& st : lost) {
    EXPECT_TRUE(st.IsNotLeader()) << st.ToString();
  }
}

TEST_F(RaftCluster, LeaderRestartedMidBatchWriteStillCommits) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  ASSERT_TRUE(ProposeOn(leader, "warm").ok());
  // Park the leader's batcher in a very slow WAL write, then crash and
  // restart the leader while that write is still in flight.
  sim::Disk* wal = hosts_[leader]->disk(0);
  wal->set_slow_factor(100'000);
  Status in_flight = Status::Retry("not finished");
  Spawn([](RaftNode* n, Status* st) -> Task<void> { *st = co_await n->Propose("in-flight"); }(
      nodes_[leader], &in_flight));
  sched_->RunFor(1 * kMsec);
  hosts_[leader]->Crash();
  wal->set_slow_factor(1);
  hosts_[leader]->Restart();
  wal->ResetQueue();
  Spawn([](RaftNode* n) -> Task<void> { (void)co_await n->Recover(); }(nodes_[leader]));
  sched_->RunFor(10 * kMsec);
  EXPECT_TRUE(in_flight.IsUnavailable()) << in_flight.ToString();
  // Win the next election on the restarted node: its new incarnation must
  // run its own batcher, although the old one is still parked in the write.
  nodes_[leader]->TriggerElection();
  for (int round = 0; round < 100 && !nodes_[leader]->IsLeader(); round++) {
    sched_->RunFor(10 * kMsec);
  }
  ASSERT_TRUE(nodes_[leader]->IsLeader());
  EXPECT_TRUE(ProposeOn(leader, "after-restart").ok());
}

TEST_F(RaftCluster, ProposalTimingOutInTheQueueNeverGetsAnIndex) {
  RaftOptions opts;
  opts.propose_timeout = 100;  // expires before the 200 us WAL write completes
  Build(kN, opts);
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  sched_->RunFor(100 * kMsec);  // the leader's no-op is in
  const Index last = nodes_[leader]->last_log_index();
  // "first" is drained at once and its WAL write goes in flight; "abandoned",
  // proposed in the same instant, queues behind that write and gives up
  // before the batcher comes back for it.
  std::vector<Status> st(2, Status::Retry("not finished"));
  const char* cmds[] = {"first", "abandoned"};
  for (int k = 0; k < 2; k++) {
    Spawn([](RaftNode* n, std::string cmd, Status* st) -> Task<void> {
      *st = co_await n->Propose(std::move(cmd));
    }(nodes_[leader], cmds[k], &st[k]));
  }
  sched_->RunFor(100 * kMsec);
  EXPECT_TRUE(st[0].IsTimedOut()) << st[0].ToString();
  EXPECT_TRUE(st[1].IsTimedOut()) << st[1].ToString();
  EXPECT_EQ(nodes_[leader]->last_log_index(), last + 1);
  EXPECT_EQ(nodes_[leader]->log().At(last + 1).head, "first");
  EXPECT_TRUE(nodes_[leader]->IsLeader());
}

TEST_F(RaftCluster, EveryEntryPointAdoptsAHigherTermAndRefusesALowerOne) {
  enum Entry { kVote, kAppend, kInstallSnapshot, kHeartbeat, kHeartbeatResponse };
  for (Entry entry : {kVote, kAppend, kInstallSnapshot, kHeartbeat, kHeartbeatResponse}) {
    for (bool higher : {true, false}) {
      SCOPED_TRACE(testing::Message() << "entry " << entry << (higher ? " term+1" : " term-1"));
      Build(kN, {});
      const int l = AwaitLeader();
      ASSERT_GE(l, 0);
      sched_->RunFor(100 * kMsec);  // the no-op is in everywhere
      RaftNode* node = nodes_[l];
      const Term t = node->term();
      const Term sent = higher ? t + 1 : t - 1;
      const NodeId other = hosts_[(l + 1) % kN]->id();
      bool refused = false;
      switch (entry) {
        case kVote: {
          VoteResp r;
          Spawn([](RaftNode* n, VoteReq req, VoteResp* r) -> Task<void> {
            *r = co_await n->OnVote(req);
          }(node, {1, sent, other, node->last_log_index(), node->log().last_term()}, &r));
          sched_->RunFor(10 * kMsec);
          refused = !r.granted;
          EXPECT_EQ(r.term, higher ? sent : t);
          break;
        }
        case kAppend: {
          AppendResp r;
          AppendReq req{1, sent, other, node->last_log_index(), node->log().last_term(),
                        node->commit_index(), {}};
          Spawn([](RaftNode* n, AppendReq req, AppendResp* r) -> Task<void> {
            *r = co_await n->OnAppend(std::move(req));
          }(node, std::move(req), &r));
          sched_->RunFor(10 * kMsec);
          refused = !r.success;
          EXPECT_EQ(r.term, higher ? sent : t);
          break;
        }
        case kInstallSnapshot: {
          InstallSnapshotResp r;
          Spawn([](RaftNode* n, InstallSnapshotReq req,
                   InstallSnapshotResp* r) -> Task<void> {
            *r = co_await n->OnInstallSnapshot(std::move(req));
          }(node, {1, sent, other, 0, 0, {}}, &r));
          sched_->RunFor(10 * kMsec);
          refused = !r.ok;
          EXPECT_EQ(r.term, higher ? sent : t);
          break;
        }
        case kHeartbeat:
          refused = node->OnHeartbeat({1, sent, node->commit_index()}, other);
          sched_->RunFor(10 * kMsec);
          break;
        case kHeartbeatResponse:
          if (higher) {
            // A follower that moved on answers the leader's next heartbeat
            // with its newer term.
            nodes_[(l + 2) % kN]->OnHeartbeat({1, sent, 0}, other);
            sched_->RunFor(100 * kMsec);
          } else {
            node->StepDownIfStale(sent);
            sched_->RunFor(10 * kMsec);
            refused = true;
          }
          break;
      }
      if (higher) {
        EXPECT_FALSE(refused);
        EXPECT_EQ(node->role(), Role::kFollower);
        EXPECT_EQ(node->term(), sent);
      } else {
        EXPECT_TRUE(refused);
        EXPECT_EQ(node->role(), Role::kLeader);
        EXPECT_EQ(node->term(), t);
      }
      // What a restart would read back.
      LogStore reloaded(hosts_[l], hosts_[l]->disk(0), 1);
      Status st = Status::Retry("not finished");
      Spawn([](LogStore* log, Status* st) -> Task<void> { *st = co_await log->Load(); }(
          &reloaded, &st));
      sched_->RunFor(10 * kMsec);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(reloaded.term(), node->term());
    }
  }
}

TEST_F(RaftCluster, ReelectedLeaderPumpsAPeerItsOldTermsPumpLeftBehind) {
  const int l = AwaitLeader();
  ASSERT_GE(l, 0);
  sched_->RunFor(100 * kMsec);
  const int p = (l + 1) % kN, q = (l + 2) % kN;
  // The proposal commits through q; the pump toward p parks in an RPC that
  // will time out (200 ms), then in a backoff.
  net_->SetPartitioned(hosts_[l]->id(), hosts_[p]->id(), true);
  ASSERT_TRUE(ProposeOn(l, "parked").ok());
  const SimTime proposed = sched_->Now();
  // q takes over, then l wins the term after, well before its old pump
  // wakes up.
  ASSERT_TRUE(ForceElection(q));
  for (int round = 0; round < 20 && nodes_[l]->last_log_index() < nodes_[q]->last_log_index();
       round++) {
    sched_->RunFor(1 * kMsec);
  }
  ASSERT_TRUE(ForceElection(l));
  EXPECT_LT(sched_->Now() - proposed, 200 * kMsec);
  net_->SetPartitioned(hosts_[l]->id(), hosts_[p]->id(), false);
  // No proposal follows: only the new term's pump can bring p its no-op.
  sched_->RunFor(2 * kSec);
  ASSERT_TRUE(nodes_[l]->IsLeader());
  EXPECT_EQ(nodes_[p]->last_log_index(), nodes_[l]->last_log_index());
  EXPECT_EQ(nodes_[p]->commit_index(), nodes_[l]->commit_index());
}

TEST_F(RaftCluster, RestartedLeaderPumpsAPeerItsOldIncarnationsPumpLeftBehind) {
  const int l = AwaitLeader();
  ASSERT_GE(l, 0);
  sched_->RunFor(100 * kMsec);
  const int p = (l + 1) % kN;
  // As above, but l crashes and restarts while its pump toward p waits
  // out the RPC timeout, and leads again in its new incarnation.
  net_->SetPartitioned(hosts_[l]->id(), hosts_[p]->id(), true);
  ASSERT_TRUE(ProposeOn(l, "parked").ok());
  const SimTime proposed = sched_->Now();
  hosts_[l]->Crash();
  hosts_[l]->Restart();
  Status recovered = Status::Retry("not finished");
  Spawn([](RaftNode* n, Status* st) -> Task<void> { *st = co_await n->Recover(); }(nodes_[l],
                                                                                  &recovered));
  sched_->RunFor(1 * kMsec);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  ASSERT_TRUE(ForceElection(l));
  EXPECT_LT(sched_->Now() - proposed, 200 * kMsec);
  net_->SetPartitioned(hosts_[l]->id(), hosts_[p]->id(), false);
  sched_->RunFor(2 * kSec);
  ASSERT_TRUE(nodes_[l]->IsLeader());
  EXPECT_EQ(nodes_[p]->last_log_index(), nodes_[l]->last_log_index());
  EXPECT_EQ(nodes_[p]->commit_index(), nodes_[l]->commit_index());
}

TEST(LogStoreTest, RopeEntryPersistsInFlatEncoding) {
  sim::Scheduler sched;
  sim::Network net(&sched);
  sim::Host* host = net.AddHost();
  LogStore log(host, host->disk(0), 7);
  std::string payload(1000, 'x');
  payload[123] = 'y';
  std::vector<LogEntry> entries = {
      {1, 1, Buffer::CopyOf("flat-command"), {}},
      {1, 2, Buffer::CopyOf("head|"), Buffer::CopyOf(payload)},
      {1, 3, {}, {}},  // leader no-op
  };
  Status st = Status::Retry("not finished");
  Spawn([](LogStore* log, std::span<const LogEntry> entries, Status& st) -> Task<void> {
    st = co_await log->Append(entries);
  }(&log, entries, st));
  sched.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();

  // The WAL blob is U64 term | U64 index | varint len | command per entry,
  // exactly as when commands were one flat string.
  Encoder want;
  for (const auto& [index, cmd] : std::vector<std::pair<Index, std::string>>{
           {1, "flat-command"}, {2, "head|" + payload}, {3, ""}}) {
    want.PutU64(1);
    want.PutU64(index);
    want.PutString(cmd);
  }
  std::string blob;
  ASSERT_TRUE(host->storage().Get("raft/7/log", &blob));
  EXPECT_EQ(blob, want.data());
  EXPECT_EQ(host->metrics().counter("raft.log.persisted_bytes"), want.size());

  // Recovery decodes flat entries: the whole command lands in the head.
  LogStore recovered(host, host->disk(0), 7);
  st = Status::Retry("not finished");
  Spawn([](LogStore* log, Status& st) -> Task<void> { st = co_await log->Load(); }(
      &recovered, st));
  sched.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(recovered.last_index(), 3u);
  EXPECT_EQ(recovered.At(2).head, "head|" + payload);
  EXPECT_TRUE(recovered.At(2).payload.empty());
  EXPECT_EQ(recovered.At(2).WireBytes(), entries[1].WireBytes());
}

TEST(LogStoreTest, SnapshotPersistsInFlatEncoding) {
  sim::Scheduler sched;
  sim::Network net(&sched);
  sim::Host* host = net.AddHost();
  LogStore log(host, host->disk(0), 7);
  std::vector<LogEntry> entries = {{1, 1, Buffer::CopyOf("a"), {}},
                                   {1, 2, Buffer::CopyOf("b"), {}}};
  Buffer snap = Buffer::CopyOf(std::string(300, 's'));  // 2-byte varint length
  Status st = Status::Retry("not finished");
  Spawn([](LogStore* log, std::span<const LogEntry> entries, Buffer snap,
           Status& st) -> Task<void> {
    st = co_await log->Append(entries);
    if (st.ok()) st = co_await log->SaveSnapshot(2, 1, std::move(snap));
  }(&log, entries, snap, st));
  sched.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The log store keeps the caller's Buffer rather than a copy.
  EXPECT_EQ(log.snapshot_data().data(), snap.data());

  // The snapshot blob is U64 index | U64 term | varint len | data, exactly
  // as when it was one flat string, and every byte of it counts as persisted.
  Encoder want;
  want.PutU64(2);
  want.PutU64(1);
  want.PutString(snap.view());
  std::string blob;
  ASSERT_TRUE(host->storage().Get("raft/7/snap", &blob));
  EXPECT_EQ(blob, want.data());
  std::string wal;
  ASSERT_TRUE(host->storage().Get("raft/7/log", &wal));
  const uint64_t wal_appended = 2 * (8 + 8 + 1 + 1);
  EXPECT_EQ(host->metrics().counter("raft.log.persisted_bytes"),
            wal_appended + want.size() + wal.size());

  LogStore recovered(host, host->disk(0), 7);
  st = Status::Retry("not finished");
  Spawn([](LogStore* log, Status& st) -> Task<void> { st = co_await log->Load(); }(
      &recovered, st));
  sched.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(recovered.snapshot_index(), 2u);
  EXPECT_EQ(recovered.snapshot_term(), 1u);
  EXPECT_EQ(recovered.snapshot_data(), snap.view());
  EXPECT_EQ(recovered.last_index(), 2u);
}

}  // namespace
}  // namespace cfs::raft
