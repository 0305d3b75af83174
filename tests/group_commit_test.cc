// Group-commit tests: proposal batching on the raft leader (one log write
// per batch), batch-size limits (max_batch_proposals and the kMaxBatchBytes
// cap), batch atomicity across a leader crash mid-batch, and a
// same-seed determinism audit of a 32-client batched metadata workload.
#include <gtest/gtest.h>

#include <set>

#include "harness/cluster.h"
#include "raft/invariants.h"
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
  void Apply(Index index, const Buffer& head, const Buffer& payload, ApplyOutcome*) override {
    applied.emplace_back(index, head.ToString() + payload.ToString());
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
    applied.clear();
    Decoder dec(snap);
    uint64_t n = 0;
    dec.GetU64(&n);
    for (uint64_t k = 0; k < n && dec.ok(); k++) {
      uint64_t i = 0;
      std::string d;
      dec.GetU64(&i);
      dec.GetString(&d);
      applied.emplace_back(i, std::move(d));
    }
    return dec.status();
  }
  std::vector<std::pair<Index, std::string>> applied;
};

class GroupCommit : public ::testing::Test {
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

  int AwaitLeader() {
    for (int round = 0; round < 600; round++) {
      sched_->RunFor(10 * kMsec);
      for (size_t i = 0; i < nodes_.size(); i++) {
        if (nodes_[i]->IsLeader()) return static_cast<int>(i);
      }
    }
    ADD_FAILURE() << "no leader elected";
    return -1;
  }

  /// Launch `k` proposals into the same scheduler instant (no event runs
  /// between the spawns) so they contend for the leader's batch queue, then
  /// run until every one resolves.
  std::vector<Status> ProposeConcurrent(int idx, int k, const std::string& prefix,
                                        size_t payload = 0) {
    std::vector<Status> results(k, Status::Retry("pending"));
    for (int j = 0; j < k; j++) {
      std::string cmd = prefix + std::to_string(j);
      if (payload > cmd.size()) cmd.resize(payload, 'x');
      Spawn([](RaftNode* n, std::string cmd, Status& out) -> Task<void> {
        out = co_await n->Propose(std::move(cmd));
      }(nodes_[idx], std::move(cmd), results[j]));
    }
    for (int round = 0; round < 1200; round++) {
      bool all = true;
      for (auto& s : results) all = all && !s.IsRetry();
      if (all) break;
      sched_->RunFor(10 * kMsec);
    }
    return results;
  }

  /// Group-commit and WAL counters of replica `i`'s host ("raft.gc.*",
  /// "raft.log.*"); each host here carries exactly one group.
  uint64_t Counter(int i, std::string_view name) const {
    return hosts_[i]->metrics().counter(name);
  }
  uint64_t MaxBatch(int i) const {
    return static_cast<uint64_t>(hosts_[i]->metrics().gauge("raft.gc.max_batch"));
  }

  uint64_t seed_ = 42;
  std::unique_ptr<sim::Scheduler> sched_;
  std::unique_ptr<sim::Network> net_;
  std::vector<sim::Host*> hosts_;
  std::vector<std::unique_ptr<RaftHost>> rafts_;
  std::vector<std::unique_ptr<ListSm>> sms_;
  std::vector<RaftNode*> nodes_;
};

TEST_F(GroupCommit, ConcurrentProposalsShareLogWrites) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  sched_->RunFor(500 * kMsec);  // settle so no election interferes

  uint64_t writes_before = Counter(leader, "raft.log.append_writes");
  auto results = ProposeConcurrent(leader, 16, "cmd-");
  for (const auto& s : results) EXPECT_TRUE(s.ok()) << s.ToString();

  // 16 concurrent proposals must coalesce: the first forms a batch of one
  // (it reaches the disk with an empty queue), the rest pile up behind its
  // log write and share flushes.
  EXPECT_EQ(Counter(leader, "raft.gc.proposals"), 16u);
  EXPECT_LT(Counter(leader, "raft.gc.batches"), 16u);
  EXPECT_GE(MaxBatch(leader), 2u);
  uint64_t write_delta = Counter(leader, "raft.log.append_writes") - writes_before;
  EXPECT_EQ(write_delta, Counter(leader, "raft.gc.batches"));
  EXPECT_LT(write_delta, 16u);

  // Every replica applied all 16 commands, in identical order.
  sched_->RunFor(2 * kSec);
  std::vector<std::string> reference;
  for (auto& [idx, data] : sms_[leader]->applied) reference.push_back(data);
  ASSERT_EQ(reference.size(), 16u);
  for (auto& sm : sms_) {
    ASSERT_EQ(sm->applied.size(), 16u);
    for (size_t i = 0; i < reference.size(); i++) {
      EXPECT_EQ(sm->applied[i].second, reference[i]);
    }
  }
}

TEST_F(GroupCommit, MaxBatchProposalsCapsBatchSize) {
  RaftOptions opts;
  opts.max_batch_proposals = 4;
  Build(kN, opts);
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  sched_->RunFor(500 * kMsec);

  auto results = ProposeConcurrent(leader, 20, "cap-");
  for (const auto& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Counter(leader, "raft.gc.proposals"), 20u);
  EXPECT_LE(MaxBatch(leader), 4u);
  // 20 proposals cannot fit in fewer than 5 batches.
  EXPECT_GE(Counter(leader, "raft.gc.batches"), 5u);
}

TEST_F(GroupCommit, BatchSizeOneMatchesUnbatchedWriteCount) {
  RaftOptions opts;
  opts.max_batch_proposals = 1;  // ablation off: one log write per proposal
  Build(kN, opts);
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  sched_->RunFor(500 * kMsec);

  uint64_t writes_before = Counter(leader, "raft.log.append_writes");
  auto results = ProposeConcurrent(leader, 10, "solo-");
  for (const auto& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Counter(leader, "raft.gc.proposals"), 10u);
  EXPECT_EQ(Counter(leader, "raft.gc.batches"), 10u);
  EXPECT_EQ(MaxBatch(leader), 1u);
  EXPECT_EQ(Counter(leader, "raft.log.append_writes") - writes_before, 10u);
}

TEST_F(GroupCommit, MaxBatchBytesSplitsAndOversizedCommandStillShips) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  sched_->RunFor(500 * kMsec);

  // 12 proposals of 400 KiB: at most two fit under the 1 MiB batch cap.
  constexpr size_t kCommand = 400 * kKiB;
  static_assert(2 * kCommand <= kMaxBatchBytes && 3 * kCommand > kMaxBatchBytes);
  auto results = ProposeConcurrent(leader, 12, "byte-", kCommand);
  for (const auto& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Counter(leader, "raft.gc.proposals"), 12u);
  EXPECT_LE(MaxBatch(leader), 2u);

  // A single command larger than the cap ships anyway, as a batch of one.
  const uint64_t batches = Counter(leader, "raft.gc.batches");
  auto big = ProposeConcurrent(leader, 1, "big-", 2 * kMaxBatchBytes);
  EXPECT_TRUE(big[0].ok()) << big[0].ToString();
  EXPECT_EQ(Counter(leader, "raft.gc.proposals"), 13u);
  EXPECT_EQ(Counter(leader, "raft.gc.batches"), batches + 1);
  sched_->RunFor(1 * kSec);
  EXPECT_EQ(sms_[leader]->applied.size(), 13u);
}

TEST_F(GroupCommit, LeaderCrashMidBatchKeepsGroupConsistent) {
  int leader = AwaitLeader();
  ASSERT_GE(leader, 0);
  sched_->RunFor(500 * kMsec);

  // Launch a burst and crash the leader while the first batch's log write
  // (200us) is still in flight and the rest of the burst sits queued.
  std::vector<Status> results(16, Status::Retry("pending"));
  for (int j = 0; j < 16; j++) {
    Spawn([](RaftNode* n, std::string cmd, Status& out) -> Task<void> {
      out = co_await n->Propose(std::move(cmd));
    }(nodes_[leader], "crash-" + std::to_string(j), results[j]));
  }
  sched_->RunFor(100);  // 100us: mid log write
  hosts_[leader]->Crash();

  // A new leader emerges among the survivors and the group keeps working.
  int new_leader = -1;
  for (int round = 0; round < 600 && new_leader < 0; round++) {
    sched_->RunFor(10 * kMsec);
    for (size_t i = 0; i < nodes_.size(); i++) {
      if (static_cast<int>(i) != leader && nodes_[i]->IsLeader()) {
        new_leader = static_cast<int>(i);
      }
    }
  }
  ASSERT_GE(new_leader, 0);
  Status marker = Status::Retry("pending");
  Spawn([](RaftNode* n, Status& out) -> Task<void> {
    out = co_await n->Propose("marker");
  }(nodes_[new_leader], marker));
  for (int round = 0; round < 600 && marker.IsRetry(); round++) {
    sched_->RunFor(10 * kMsec);
  }
  EXPECT_TRUE(marker.ok()) << marker.ToString();
  sched_->RunFor(3 * kSec);  // let abandoned proposals time out and settle

  // Batch atomicity: whatever prefix of the burst survived, the group's
  // protocol invariants hold across the live replicas and nothing applied
  // twice or out of order.
  InvariantReport report;
  std::vector<ReplicaSnapshot> group;
  for (size_t i = 0; i < nodes_.size(); i++) {
    if (hosts_[i]->up()) group.push_back(SnapshotReplica(*nodes_[i]));
  }
  CheckRaftGroup(group, &report, "group-commit-crash");
  EXPECT_TRUE(report.ok()) << report.ToString();
  for (size_t i = 0; i < sms_.size(); i++) {
    if (!hosts_[i]->up()) continue;
    std::set<std::string> seen;
    Index prev = 0;
    for (auto& [idx, data] : sms_[i]->applied) {
      EXPECT_TRUE(seen.insert(data).second) << "duplicate apply of " << data;
      EXPECT_GT(idx, prev) << "apply order regressed";
      prev = idx;
    }
    EXPECT_TRUE(seen.count("marker"));
  }
}

}  // namespace
}  // namespace cfs::raft

// --- 32-client batched workload determinism audit ---------------------------

namespace cfs::harness {
namespace {

using client::MountContext;
using meta::FileType;
using meta::kRootInode;
using sim::Spawn;
using sim::Task;

TEST(GroupCommitDeterminism, BatchedClientBurstReplaysIdentically) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = 91;
  opts.client.rpc_timeout = 300 * kMsec;
  auto scenario = [](Cluster& cluster) {
    auto st = RunTask(cluster.sched(), cluster.Start());
    ASSERT_TRUE(st && st->ok());
    st = RunTask(cluster.sched(), cluster.CreateVolume("v", 2, 4));
    ASSERT_TRUE(st && st->ok());
    std::vector<MountContext*> clients;
    for (int i = 0; i < 32; i++) {
      auto c = RunTask(cluster.sched(), cluster.MountClient("v"));
      ASSERT_TRUE(c && c->ok());
      clients.push_back((**c)->default_mount());
    }
    // All 32 clients create concurrently: their proposals pile into the
    // meta partitions' leader batch queues.
    int done = 0;
    for (int i = 0; i < 32; i++) {
      Spawn([](MountContext* c, int i, int& done) -> Task<void> {
        (void)co_await c->Create(kRootInode, "burst" + std::to_string(i),
                                 FileType::kFile);
        (void)co_await c->Create(kRootInode, "burst2-" + std::to_string(i),
                                 FileType::kFile);
        done++;
      }(clients[i], i, done));
    }
    ASSERT_TRUE(cluster.RunUntil([&] { return done == 32; }));
    cluster.sched().RunFor(2 * kSec);
  };
  auto [first, second] = AuditDeterminism(opts, scenario);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace cfs::harness
