// Fault-injection tests: the full CFS stack under message loss, repeated
// node crashes, and mid-write failures. Verifies the paper's failure
// semantics: clients retry until success (§2.1.3), sequential writes resend
// uncommitted suffixes to new extents (§2.2.5), recovery is two-phase, and
// no acknowledged data is ever lost or corrupted.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "vfs/vfs.h"

namespace cfs::harness {
namespace {

using client::MountContext;
using meta::FileType;
using meta::kRootInode;
using sim::Task;

class FaultFixture : public ::testing::Test {
 protected:
  void Boot(uint64_t seed = 77) {
    ClusterOptions opts;
    opts.num_nodes = 5;
    opts.seed = seed;
    opts.client.rpc_timeout = 300 * kMsec;  // snappier retries under loss
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(RunTask(cluster_->sched(), cluster_->Start())->ok());
    ASSERT_TRUE(RunTask(cluster_->sched(), cluster_->CreateVolume("v", 3, 8))->ok());
    auto c = RunTask(cluster_->sched(), cluster_->MountClient("v"));
    ASSERT_TRUE(c->ok());
    client_ = (**c)->default_mount();
  }

  template <typename T>
  T Run(sim::Task<T> t) {
    auto out = RunTask(cluster_->sched(), std::move(t), 200'000'000);
    EXPECT_TRUE(out.has_value()) << "task hung";
    return std::move(*out);
  }

  /// Deep-check every cluster invariant (common/check.h). Runs from
  /// TearDown so every fault scenario — loss, crashes, mid-write failures —
  /// ends with a full sweep; call mid-test after recovery checkpoints too.
  void ExpectInvariantsHold(const char* when) {
    if (!cluster_) return;
    InvariantReport report = cluster_->CheckInvariants();
    EXPECT_TRUE(report.ok()) << "invariant violations " << when << ":\n"
                             << report.ToString();
  }

  void TearDown() override { ExpectInvariantsHold("at test end"); }

  std::unique_ptr<Cluster> cluster_;
  MountContext* client_ = nullptr;
};

TEST_F(FaultFixture, MetadataOpsSurviveFivePercentMessageLoss) {
  Boot();
  cluster_->net().SetDropProbability(0.05);
  int created = 0;
  for (int i = 0; i < 30; i++) {
    auto r = Run(client_->Create(kRootInode, "lossy" + std::to_string(i), FileType::kFile));
    // Client retries hide most drops; whatever failed must not corrupt state.
    if (r.ok()) created++;
  }
  cluster_->net().SetDropProbability(0);
  cluster_->sched().RunFor(2 * kSec);
  auto listed = Run(client_->ReadDir(kRootInode));
  ASSERT_TRUE(listed.ok());
  // Everything the client saw acknowledged is durably visible.
  EXPECT_GE(static_cast<int>(listed->size()), created);
  EXPECT_GE(created, 20);  // retries should have carried most ops through
}

TEST_F(FaultFixture, WritesUnderMessageLossReadBackIntact) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "lossy.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  cluster_->net().SetDropProbability(0.02);
  std::string content(512 * kKiB, '\0');
  for (size_t i = 0; i < content.size(); i++) content[i] = static_cast<char>(i % 251);
  Status st = Run(client_->Write(f->id, 0, content));
  cluster_->net().SetDropProbability(0);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(Run(client_->Close(f->id)).ok());
  auto read = Run(client_->Read(f->id, 0, content.size()));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);
}

TEST_F(FaultFixture, ChainLeaderCrashMidStreamResendsToNewExtent) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "midstream.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  std::string first(256 * kKiB, 'A');
  ASSERT_TRUE(Run(client_->Write(f->id, 0, first)).ok());

  // Crash every chain leader's node candidate: find the partition that holds
  // the file's active extent and kill its first replica.
  master::MasterNode* leader = cluster_->master_leader();
  ASSERT_NE(leader, nullptr);
  sim::NodeId victim_id = 0;
  for (const auto& [pid, rec] : leader->state().data_partitions()) {
    victim_id = rec.replicas[0];
    break;
  }
  int victim = -1;
  for (int i = 0; i < cluster_->num_nodes(); i++) {
    if (cluster_->node_host(i)->id() == victim_id) victim = i;
  }
  ASSERT_GE(victim, 0);
  cluster_->CrashNode(victim);

  // Keep appending: packets to dead chain leaders fail; the client resends
  // the suffix to fresh extents on other partitions (§2.2.5).
  std::string second(256 * kKiB, 'B');
  Status st = Run(client_->Write(f->id, first.size(), second));
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(Run(client_->Close(f->id)).ok());

  cluster_->sched().RunFor(2 * kSec);
  auto read = Run(client_->Read(f->id, 0, first.size() + second.size()));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), first.size() + second.size());
  EXPECT_EQ(*read, first + second);
}

TEST_F(FaultFixture, WindowedAppendSurvivesChainReplicaCrash) {
  // Kill a chain *backup* while a windowed append has packets in flight, for
  // every interesting window depth. The committed-prefix rule must leave no
  // holes, duplicates, or torn suffix: the read-back equals the written bytes
  // exactly, and the client resent the uncommitted suffix at least once.
  for (int w : {1, 4, 8}) {
    SCOPED_TRACE("window=" + std::to_string(w));
    ClusterOptions opts;
    opts.num_nodes = 5;
    opts.seed = 77 + w;
    opts.client.rpc_timeout = 300 * kMsec;
    opts.client.write_window_packets = w;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(RunTask(cluster_->sched(), cluster_->Start())->ok());
    ASSERT_TRUE(RunTask(cluster_->sched(), cluster_->CreateVolume("v", 3, 8))->ok());
    auto c = RunTask(cluster_->sched(), cluster_->MountClient("v"));
    ASSERT_TRUE(c->ok());
    client_ = (**c)->default_mount();

    auto f = Run(client_->Create(kRootInode, "windowed.bin", FileType::kFile));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(Run(client_->Open(f->id)).ok());

    std::string content(4 * kMiB, '\0');
    for (size_t i = 0; i < content.size(); i++) {
      content[i] = static_cast<char>((i * 31 + w) % 251);
    }
    // Establish the append stream so the crash targets the active partition.
    std::string head = content.substr(0, 256 * kKiB);
    ASSERT_TRUE(Run(client_->Write(f->id, 0, head)).ok());

    // 5 ms into the big write: crash a backup replica of the extent's chain.
    bool crashed = false;
    meta::InodeId ino = f->id;
    cluster_->sched().After(5 * kMsec, [this, ino, &crashed] {
      client::PartitionId pid = client_->append_partition(ino);
      if (pid == 0) return;
      auto replicas = cluster_->DataPartitionReplicas(pid);
      if (replicas.size() < 2) return;
      for (int i = 0; i < cluster_->num_nodes(); i++) {
        if (cluster_->node_host(i)->id() == replicas[1]) {
          cluster_->CrashNode(i);
          crashed = true;
          return;
        }
      }
    });
    Status st = Run(client_->Write(f->id, head.size(), content.substr(head.size())));
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(crashed);
    ASSERT_TRUE(Run(client_->Close(f->id)).ok());

    cluster_->sched().RunFor(2 * kSec);
    auto read = Run(client_->Read(f->id, 0, content.size()));
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read->size(), content.size());
    EXPECT_EQ(*read, content);
    const obs::Registry& m = client_->metrics();
    EXPECT_GE(m.counter("client.resends"), 1u);
    EXPECT_GT(m.counter("client.suffix_resend_bytes"), 0u);
    if (w > 1) {
      EXPECT_GT(m.gauge("client.max_inflight_packets"), 1);
    } else {
      EXPECT_EQ(m.gauge("client.max_inflight_packets"), 1);
    }
  }
}

TEST_F(FaultFixture, RollingCrashesOfAllStorageNodes) {
  Boot();
  // Build some state.
  std::string content(128 * kKiB, 'R');
  for (int i = 0; i < 6; i++) {
    auto f = Run(client_->Create(kRootInode, "roll" + std::to_string(i), FileType::kFile));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(Run(client_->Open(f->id)).ok());
    ASSERT_TRUE(Run(client_->Write(f->id, 0, content)).ok());
    ASSERT_TRUE(Run(client_->Close(f->id)).ok());
  }
  // Roll through every storage node: crash, wait, recover, verify.
  for (int i = 0; i < cluster_->num_nodes(); i++) {
    cluster_->CrashNode(i);
    cluster_->sched().RunFor(2 * kSec);
    ASSERT_TRUE(RunTaskVoid(cluster_->sched(), cluster_->RestartNode(i)));
    cluster_->sched().RunFor(2 * kSec);
    ExpectInvariantsHold("after rolling recovery");
  }
  // All data still present and intact; metadata still serves.
  auto listed = Run(client_->ReadDir(kRootInode));
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 6u);
  for (int i = 0; i < 6; i++) {
    auto d = Run(client_->Lookup(kRootInode, "roll" + std::to_string(i)));
    ASSERT_TRUE(d.ok());
    auto read = Run(client_->Read(d->inode, 0, content.size()));
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, content) << "roll" << i;
  }
}

TEST_F(FaultFixture, RaftOverwritesReapplyFromFlatWalAfterRecovery) {
  // Random writes go through raft (§2.2.4). Replicas receive each overwrite
  // as a head + payload rope; a restarted replica reloads its log from the
  // WAL as flat entries and re-applies them. It must end with the leader's
  // extent bytes and cached CRC.
  Boot();
  auto f = Run(client_->Create(kRootInode, "ow.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, std::string(256 * kKiB, 'o'))).ok());
  ASSERT_TRUE(Run(client_->Fsync(f->id)).ok());
  std::string patch(16 * kKiB, '\0');
  for (size_t i = 0; i < patch.size(); i++) patch[i] = static_cast<char>('a' + i % 23);
  for (uint64_t off : {8 * kKiB, 100 * kKiB, 200 * kKiB}) {
    ASSERT_TRUE(Run(client_->Write(f->id, off, patch)).ok());
  }
  cluster_->sched().RunFor(1 * kSec);  // heartbeats carry the commit to followers
  auto ino = Run(client_->GetInode(f->id));
  ASSERT_TRUE(ino.ok());
  ASSERT_EQ(ino->extents.size(), 1u);
  const meta::ExtentKey key = ino->extents[0];
  auto part = [&](int i) { return cluster_->data_node(i)->GetPartition(key.partition_id); };
  int leader = -1, follower = -1;
  for (int i = 0; i < cluster_->num_nodes(); i++) {
    if (part(i)) (part(i)->raft_node()->IsLeader() ? leader : follower) = i;
  }
  ASSERT_GE(leader, 0);
  ASSERT_GE(follower, 0);

  std::vector<raft::Index> overwrites;
  const raft::LogStore& log = part(follower)->raft_node()->log();
  for (raft::Index i = log.first_index(); i <= log.last_index(); i++) {
    if (log.At(i).payload.empty()) continue;
    overwrites.push_back(i);
  }
  ASSERT_EQ(overwrites.size(), 3u);

  cluster_->CrashNode(follower);
  // The crash loses the follower's applied overwrites; its WAL survives.
  storage::Extent* e = part(follower)->store().MutableExtentForTest(key.extent_id);
  ASSERT_NE(e, nullptr);
  e->data.assign(e->data.size(), 'o');
  e->crc = Crc32c(e->data);
  ASSERT_TRUE(RunTaskVoid(cluster_->sched(), cluster_->RestartNode(follower)));
  cluster_->sched().RunFor(2 * kSec);

  data::DataPartition* p = part(follower);
  ASSERT_GE(p->raft_node()->applied_index(), overwrites.back()) << "overwrites not re-applied";
  for (raft::Index i : overwrites) {
    const raft::LogEntry& entry = p->raft_node()->log().At(i);
    EXPECT_TRUE(entry.payload.empty()) << "index " << i << " not decoded flat";
    EXPECT_GT(entry.head.size(), patch.size());
  }
  const storage::Extent* mine = p->store().Find(key.extent_id);
  const storage::Extent* theirs = part(leader)->store().Find(key.extent_id);
  ASSERT_TRUE(mine && theirs);
  EXPECT_TRUE(mine->data == theirs->data);
  EXPECT_EQ(mine->crc, theirs->crc);
  EXPECT_EQ(mine->crc, Crc32c(mine->data));
}

TEST_F(FaultFixture, MetaPartitionRecoversFromSnapshotAfterChurn) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.raft.compaction_threshold = 64;  // force snapshots quickly
  cluster_ = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(RunTask(cluster_->sched(), cluster_->Start())->ok());
  ASSERT_TRUE(RunTask(cluster_->sched(), cluster_->CreateVolume("v", 2, 6))->ok());
  auto c = RunTask(cluster_->sched(), cluster_->MountClient("v"));
  ASSERT_TRUE(c->ok());
  client_ = (**c)->default_mount();

  for (int i = 0; i < 120; i++) {
    std::string name = "c";
    name += std::to_string(i);
    ASSERT_TRUE(Run(client_->Create(kRootInode, name, FileType::kFile)).ok());
  }
  cluster_->sched().RunFor(2 * kSec);  // let compaction run

  // Restart every node; meta partitions must restore from snapshot + log.
  for (int i = 0; i < cluster_->num_nodes(); i++) {
    cluster_->CrashNode(i);
    cluster_->sched().RunFor(1 * kSec);
    ASSERT_TRUE(RunTaskVoid(cluster_->sched(), cluster_->RestartNode(i)));
    cluster_->sched().RunFor(2 * kSec);
  }
  auto listed = Run(client_->ReadDir(kRootInode));
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(listed->size(), 120u);
}

TEST_F(FaultFixture, OrphanInodesFromInjectedCreateFailuresAreEvictable) {
  Boot();
  // Force dentry-create failures by racing duplicate names from two clients.
  auto c2r = RunTask(cluster_->sched(), cluster_->MountClient("v"));
  ASSERT_TRUE(c2r->ok());
  MountContext* c2 = (**c2r)->default_mount();
  int conflicts = 0;
  for (int i = 0; i < 10; i++) {
    std::string name = "race" + std::to_string(i);
    ASSERT_TRUE(Run(client_->Create(kRootInode, name, FileType::kFile)).ok());
    auto dup = Run(c2->Create(kRootInode, name, FileType::kFile));
    if (!dup.ok()) conflicts++;
  }
  EXPECT_EQ(conflicts, 10);
  EXPECT_EQ(c2->orphan_count(), 10u);  // Fig. 3a failure path
  Run([](MountContext* c) -> Task<bool> {
    co_await c->EvictOrphans();
    co_return true;
  }(c2));
  EXPECT_EQ(c2->orphan_count(), 0u);
  // Global fsck: union referenced inodes across ALL partitions (a file's
  // inode and dentry may live on different partitions, §2.6), then check
  // every live file inode is referenced.
  cluster_->sched().RunFor(2 * kSec);
  std::set<meta::InodeId> referenced;
  std::set<meta::InodeId> live;
  std::set<meta::PartitionId> seen;  // each partition has 3 replicas; count once
  for (int i = 0; i < cluster_->num_nodes(); i++) {
    for (const auto& rep : cluster_->meta_node(i)->Reports()) {
      if (!seen.insert(rep.pid).second) continue;
      meta::MetaPartition* mp = cluster_->meta_node(i)->GetPartition(rep.pid);
      ASSERT_NE(mp, nullptr);
      for (auto ino : mp->ReferencedInodes()) referenced.insert(ino);
      for (auto ino : mp->LiveFileInodes()) live.insert(ino);
    }
  }
  for (auto ino : live) {
    EXPECT_TRUE(referenced.count(ino)) << "orphan inode " << ino << " survived fsck";
  }
}

}  // namespace
}  // namespace cfs::harness
