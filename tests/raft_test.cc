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

/// Test state machine: an append-only list of applied commands.
class ListSm : public StateMachine {
 public:
  void Apply(Index index, const Buffer& head, const Buffer& payload) override {
    applied.emplace_back(index, head.ToString() + payload.ToString());
  }
  std::string TakeSnapshot() override {
    Encoder enc;
    enc.PutU64(applied.size());
    for (auto& [i, d] : applied) {
      enc.PutU64(i);
      enc.PutString(d);
    }
    return enc.Take();
  }
  void Restore(std::string_view snap) override {
    applied.clear();
    Decoder dec(snap);
    uint64_t n = 0;
    (void)dec.GetU64(&n);
    for (uint64_t k = 0; k < n; k++) {
      uint64_t i;
      std::string d;
      (void)dec.GetU64(&i);
      (void)dec.GetString(&d);
      applied.emplace_back(i, std::move(d));
    }
  }
  std::vector<std::pair<Index, std::string>> applied;
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
  Spawn([](RaftHost* rh) -> Task<void> { co_await rh->RecoverAll(); }(rafts_[victim].get()));
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
    ASSERT_TRUE(ProposeOn(leader, "e" + std::to_string(i)).ok());
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
    ASSERT_TRUE(ProposeOn(leader, "v" + std::to_string(i)).ok());
  }
  sched_->RunFor(1 * kSec);
  ASSERT_GT(nodes_[leader]->log().snapshot_index(), 0u);
  hosts_[victim]->Restart();
  sms_[victim]->applied.clear();
  Spawn([](RaftHost* rh) -> Task<void> { co_await rh->RecoverAll(); }(rafts_[victim].get()));
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
  Result<Index> idx = Status::Retry("not finished");
  Spawn([](RaftNode* n, Buffer payload, Result<Index>& idx) -> Task<void> {
    idx = co_await n->ProposeIndexed("head:", std::move(payload));
  }(nodes_[leader], payload, idx));
  sched_->RunFor(2 * kSec);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  for (int i = 0; i < kN; i++) {
    // Every replica's log entry points at the proposer's bytes: replication
    // and the WAL carried a reference, not a copy.
    const LogEntry& e = nodes_[i]->log().At(*idx);
    EXPECT_EQ(e.head, std::string_view("head:"));
    EXPECT_EQ(e.payload.data(), payload.data()) << "replica " << i;
    EXPECT_EQ(e.WireBytes(), 24 + 5 + payload.size());
    ASSERT_FALSE(sms_[i]->applied.empty());
    EXPECT_EQ(sms_[i]->applied.back().second, "head:" + payload.ToString());
  }
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

}  // namespace
}  // namespace cfs::raft
