// End-to-end integration tests: full CFS cluster (3 masters + storage
// nodes), volume lifecycle, metadata workflows, file I/O paths, caching,
// failure handling, recovery, splitting, expansion.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace cfs::harness {
namespace {

using client::MountContext;
using meta::FileType;
using meta::kRootInode;
using sim::Task;

class CfsCluster : public ::testing::Test {
 protected:
  void Boot(ClusterOptions opts = {}, uint32_t meta_parts = 3, uint32_t data_parts = 8) {
    if (opts.num_nodes == 10 && testing::UnitTest::GetInstance() != nullptr) {
      opts.num_nodes = 5;  // smaller cluster keeps tests fast
    }
    cluster_ = std::make_unique<Cluster>(opts);
    auto st = RunTask(cluster_->sched(), cluster_->Start());
    ASSERT_TRUE(st.has_value() && st->ok()) << (st ? st->ToString() : "hung");
    st = RunTask(cluster_->sched(), cluster_->CreateVolume("vol", meta_parts, data_parts));
    ASSERT_TRUE(st.has_value() && st->ok()) << (st ? st->ToString() : "hung");
    auto c = RunTask(cluster_->sched(), cluster_->MountClient("vol"));
    ASSERT_TRUE(c.has_value() && c->ok()) << (c ? c->status().ToString() : "hung");
    client_ = (**c)->default_mount();
  }

  /// Run a client coroutine to completion.
  template <typename T>
  T Run(sim::Task<T> t) {
    auto out = RunTask(cluster_->sched(), std::move(t));
    EXPECT_TRUE(out.has_value()) << "task hung";
    return std::move(*out);
  }

  /// Deep-check every cluster invariant (common/check.h); call at scenario
  /// checkpoints. Also runs from TearDown so every test ends with a sweep.
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

TEST_F(CfsCluster, VolumeViewHasPartitions) {
  Boot();
  master::MasterNode* leader = cluster_->master_leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->state().meta_partitions().size(), 3u);
  EXPECT_EQ(leader->state().data_partitions().size(), 8u);
  // Every partition has 3 replicas on registered nodes.
  for (const auto& [pid, rec] : leader->state().data_partitions()) {
    EXPECT_EQ(rec.replicas.size(), 3u);
  }
}

TEST_F(CfsCluster, CreateLookupReadDir) {
  Boot();
  auto created = Run(client_->Create(kRootInode, "hello.txt", FileType::kFile));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_GE(created->id, 1u);
  EXPECT_EQ(created->nlink, 1u);

  auto looked = Run(client_->Lookup(kRootInode, "hello.txt"));
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(looked->inode, created->id);

  auto listed = Run(client_->ReadDir(kRootInode));
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].name, "hello.txt");
}

TEST_F(CfsCluster, CreateManyFilesAcrossPartitions) {
  Boot();
  std::set<uint64_t> ids;
  for (int i = 0; i < 60; i++) {
    std::string name = "f";
    name += std::to_string(i);
    auto r = Run(client_->Create(kRootInode, name, FileType::kFile));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(ids.insert(r->id).second) << "duplicate inode id " << r->id;
  }
  ExpectInvariantsHold("after create batch");
  auto listed = Run(client_->ReadDir(kRootInode));
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 60u);
  // Inode ids span multiple partitions (ranges are chunked).
  master::MasterNode* leader = cluster_->master_leader();
  size_t used_partitions = 0;
  for (const auto& [pid, rec] : leader->state().meta_partitions()) {
    for (uint64_t id : ids) {
      if (id >= rec.start && id <= rec.end) {
        used_partitions++;
        break;
      }
    }
  }
  EXPECT_GE(used_partitions, 2u);
}

TEST_F(CfsCluster, DuplicateCreateFails) {
  Boot();
  ASSERT_TRUE(Run(client_->Create(kRootInode, "dup", FileType::kFile)).ok());
  auto second = Run(client_->Create(kRootInode, "dup", FileType::kFile));
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsAlreadyExists());
  // The orphaned inode from the failed create is tracked and evictable.
  EXPECT_EQ(client_->metrics().counter("client.orphans_created"), 1u);
  EXPECT_EQ(client_->orphan_count(), 1u);
  Run([](MountContext* c) -> Task<bool> {
    co_await c->EvictOrphans();
    co_return true;
  }(client_));
  EXPECT_EQ(client_->orphan_count(), 0u);
}

TEST_F(CfsCluster, WriteReadSmallFile) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "small.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  std::string content(4 * kKiB, 'x');
  for (size_t i = 0; i < content.size(); i++) content[i] = static_cast<char>('a' + i % 26);
  ASSERT_TRUE(Run(client_->Write(f->id, 0, content)).ok());
  ASSERT_TRUE(Run(client_->Fsync(f->id)).ok());
  auto read = Run(client_->Read(f->id, 0, content.size()));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);
  // Small files live at a non-zero physical offset once the tiny extent has
  // other occupants.
  auto g = Run(client_->Create(kRootInode, "small2.bin", FileType::kFile));
  ASSERT_TRUE(Run(client_->Write(g->id, 0, content)).ok());
  ASSERT_TRUE(Run(client_->Fsync(g->id)).ok());
  auto read2 = Run(client_->Read(g->id, 0, content.size()));
  ASSERT_TRUE(read2.ok());
  EXPECT_EQ(*read2, content);
}

TEST_F(CfsCluster, WriteReadLargeFileAcrossPackets) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "big.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  // 600 KiB: several 128 KiB packets, still one extent.
  std::string content(600 * kKiB, '\0');
  for (size_t i = 0; i < content.size(); i++) content[i] = static_cast<char>(i * 131 % 251);
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, content)).ok());
  ASSERT_TRUE(Run(client_->Fsync(f->id)).ok());
  auto read = Run(client_->Read(f->id, 0, content.size()));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), content.size());
  EXPECT_EQ(*read, content);
  // Ranged read.
  auto mid = Run(client_->Read(f->id, 100 * kKiB, 64 * kKiB));
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(*mid, content.substr(100 * kKiB, 64 * kKiB));
}

TEST_F(CfsCluster, AppendAcrossWriteCalls) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "log.txt", FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  std::string part1(200 * kKiB, 'A'), part2(150 * kKiB, 'B');
  ASSERT_TRUE(Run(client_->Write(f->id, 0, part1)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, part1.size(), part2)).ok());
  ASSERT_TRUE(Run(client_->Close(f->id)).ok());
  auto read = Run(client_->Read(f->id, 0, part1.size() + part2.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, part1 + part2);
}

TEST_F(CfsCluster, RandomOverwriteInPlace) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "rw.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  std::string content(256 * kKiB, 'o');
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, content)).ok());
  ASSERT_TRUE(Run(client_->Fsync(f->id)).ok());
  // Overwrite a 4 KiB region in the middle (raft path, Fig. 5).
  std::string patch(4 * kKiB, 'P');
  ASSERT_TRUE(Run(client_->Write(f->id, 100 * kKiB, patch)).ok());
  auto read = Run(client_->Read(f->id, 0, content.size()));
  ASSERT_TRUE(read.ok());
  std::string expect = content;
  expect.replace(100 * kKiB, patch.size(), patch);
  EXPECT_EQ(*read, expect);
  // File size unchanged: overwrite is in-place, no metadata update (§2.7.2).
  auto ino = Run(client_->GetInode(f->id));
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(ino->size, content.size());
}

TEST_F(CfsCluster, WriteStraddlingEofSplitsOverwriteAndAppend) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "straddle.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  std::string base(200 * kKiB, 'x');
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, base)).ok());
  // Write 100 KiB starting 50 KiB before EOF: half overwrite, half append.
  std::string straddle(100 * kKiB, 'S');
  ASSERT_TRUE(Run(client_->Write(f->id, 150 * kKiB, straddle)).ok());
  ASSERT_TRUE(Run(client_->Fsync(f->id)).ok());
  auto read = Run(client_->Read(f->id, 0, 250 * kKiB));
  ASSERT_TRUE(read.ok());
  std::string expect = base;
  expect.resize(250 * kKiB, '\0');
  expect.replace(150 * kKiB, straddle.size(), straddle);
  EXPECT_EQ(*read, expect);
}

TEST_F(CfsCluster, UnlinkDeletesAndPurgesContent) {
  Boot();
  // Several large files, unlinked back to back, so one purge scan evicts
  // more than one of them from a partition in a single entry.
  constexpr int kFiles = 6;
  std::vector<meta::ExtentKey> keys;
  for (int i = 0; i < kFiles; i++) {
    const std::string name = "doomed" + std::to_string(i) + ".bin";
    auto f = Run(client_->Create(kRootInode, name, FileType::kFile));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(Run(client_->Open(f->id)).ok());
    ASSERT_TRUE(Run(client_->Write(f->id, 0, std::string(300 * kKiB, 'd'))).ok());
    ASSERT_TRUE(Run(client_->Close(f->id)).ok());
    auto ino = Run(client_->GetInode(f->id));
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    ASSERT_FALSE(ino->extents.empty());
    keys.insert(keys.end(), ino->extents.begin(), ino->extents.end());
  }

  auto used_bytes = [&] {
    uint64_t bytes = 0;
    for (int i = 0; i < cluster_->num_nodes(); i++) {
      for (const auto& rep : cluster_->data_node(i)->Reports()) bytes += rep.used_bytes;
    }
    return bytes;
  };
  // Replicas (across all nodes) still holding one of the files' extents.
  auto live_extents = [&] {
    int live = 0;
    for (const auto& key : keys) {
      for (int i = 0; i < cluster_->num_nodes(); i++) {
        data::DataPartition* p = cluster_->data_node(i)->GetPartition(key.partition_id);
        if (p && p->store().Has(key.extent_id)) live++;
      }
    }
    return live;
  };
  const uint64_t bytes_before = used_bytes();
  EXPECT_GT(bytes_before, 0u);
  EXPECT_GT(live_extents(), 0);

  for (int i = 0; i < kFiles; i++) {
    const std::string name = "doomed" + std::to_string(i) + ".bin";
    ASSERT_TRUE(Run(client_->Unlink(kRootInode, name)).ok());
    auto looked = Run(client_->Lookup(kRootInode, name));
    EXPECT_TRUE(looked.status().IsNotFound());
  }

  // The async purge loop (§2.7.3) frees every extent of every file.
  bool purged = cluster_->RunUntil([&] { return live_extents() == 0; });
  EXPECT_TRUE(purged) << live_extents() << " extent replicas left";
  EXPECT_LT(used_bytes(), bytes_before);
}

TEST_F(CfsCluster, SmallFileDeleteUsesPunchHole) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "tiny.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, std::string(8 * kKiB, 't'))).ok());
  ASSERT_TRUE(Run(client_->Fsync(f->id)).ok());
  ASSERT_TRUE(Run(client_->Unlink(kRootInode, "tiny.bin")).ok());
  bool punched = cluster_->RunUntil([&] {
    for (int i = 0; i < cluster_->num_nodes(); i++) {
      sim::Host* h = cluster_->node_host(i);
      for (int d = 0; d < h->num_disks(); d++) {
        if (h->disk(d)->punched_bytes() > 0) return true;
      }
    }
    return false;
  });
  EXPECT_TRUE(punched);
}

TEST_F(CfsCluster, PurgeKeepsPaceWithUnlinkBurst) {
  Boot();
  constexpr int kFiles = 1024;
  constexpr int kLanes = 16;
  // Creates (or unlinks) the burst files from kLanes concurrent callers.
  auto burst = [](MountContext* c, sim::Scheduler* s, bool unlink) -> Task<int> {
    sim::Join join(s, kLanes);
    int failed = 0;
    for (int lane = 0; lane < kLanes; lane++) {
      sim::Spawn([](MountContext* c, int lane, bool unlink, int* failed,
                    std::function<void()> arrive) -> Task<void> {
        for (int i = lane; i < kFiles; i += kLanes) {
          const std::string name = "burst" + std::to_string(i);
          Status st;
          if (unlink) {
            st = co_await c->Unlink(kRootInode, name);
          } else {
            st = (co_await c->Create(kRootInode, name, FileType::kFile)).status();
          }
          if (!st.ok()) (*failed)++;
        }
        arrive();
      }(c, lane, unlink, &failed, join.Arrive()));
    }
    co_await join.Wait();
    co_return failed;
  };
  ASSERT_EQ(Run(burst(client_, &cluster_->sched(), /*unlink=*/false)), 0);
  ASSERT_EQ(Run(burst(client_, &cluster_->sched(), /*unlink=*/true)), 0);

  // Deleted inodes awaiting eviction, over every replica of every partition.
  auto free_list_total = [&] {
    int64_t total = 0;
    for (int i = 0; i < cluster_->num_nodes(); i++) {
      total += cluster_->meta_node(i)->host()->metrics().gauge("meta.free_list_len");
    }
    return total;
  };
  const SimDuration interval = meta::kPurgeInterval;
  const SimDuration step = 10 * kMsec;
  bool drained = cluster_->RunUntil([&] { return free_list_total() == 0; }, step,
                                    static_cast<int>(2 * interval / step));
  EXPECT_TRUE(drained) << free_list_total() << " inodes still await eviction after two "
                       << "purge intervals";
  ExpectInvariantsHold("after the purge");
}

TEST_F(CfsCluster, HardLinkKeepsFileAliveAfterOneUnlink) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "orig", FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Link(kRootInode, "alias", f->id)).ok());
  ASSERT_TRUE(Run(client_->Unlink(kRootInode, "orig")).ok());
  cluster_->sched().RunFor(1 * kSec);  // async nlink decrement (§2.7.3)
  auto looked = Run(client_->Lookup(kRootInode, "alias"));
  ASSERT_TRUE(looked.ok());
  auto ino = Run(client_->GetInode(f->id));
  ASSERT_TRUE(ino.ok()) << ino.status().ToString();
  EXPECT_EQ(ino->nlink, 1u);
  EXPECT_FALSE(ino->IsDeleted());
}

TEST_F(CfsCluster, RenameMovesDentry) {
  Boot();
  auto dir = Run(client_->Create(kRootInode, "sub", FileType::kDir));
  ASSERT_TRUE(dir.ok());
  auto f = Run(client_->Create(kRootInode, "old", FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Rename(kRootInode, "old", dir->id, "new")).ok());
  EXPECT_TRUE(Run(client_->Lookup(kRootInode, "old")).status().IsNotFound());
  auto looked = Run(client_->Lookup(dir->id, "new"));
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(looked->inode, f->id);
}

TEST_F(CfsCluster, ReadDirPlusBatchesAndCaches) {
  Boot();
  for (int i = 0; i < 20; i++) {
    std::string name = "e";
    name += std::to_string(i);
    ASSERT_TRUE(Run(client_->Create(kRootInode, name, FileType::kFile)).ok());
  }
  const uint64_t rpcs0 = client_->metrics().counter("client.meta_rpcs");
  auto first = Run(client_->ReadDirPlus(kRootInode));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 20u);
  uint64_t rpcs_after_first = client_->metrics().counter("client.meta_rpcs") - rpcs0;
  // One readdir + at most one batch get per meta partition — far fewer than
  // one RPC per inode (the Ceph model's behaviour).
  EXPECT_LE(rpcs_after_first, 1 + 3u);
  // Second call inside the TTL: served from the client cache (§4.2).
  auto second = Run(client_->ReadDirPlus(kRootInode));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(client_->metrics().counter("client.meta_rpcs") - rpcs0, rpcs_after_first);
}

TEST_F(CfsCluster, SymlinkStoresTarget) {
  Boot();
  auto s = Run(client_->Create(kRootInode, "lnk", FileType::kSymlink, "/vol/target"));
  ASSERT_TRUE(s.ok());
  auto ino = Run(client_->GetInode(s->id));
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(ino->link_target, "/vol/target");
}

TEST_F(CfsCluster, TruncateShrinksFile) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "trunc.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, std::string(256 * kKiB, 'T'))).ok());
  ASSERT_TRUE(Run(client_->Close(f->id)).ok());
  ASSERT_TRUE(Run(client_->Truncate(f->id, 10 * kKiB)).ok());
  auto ino = Run(client_->GetInode(f->id));
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(ino->size, 10 * kKiB);
  auto read = Run(client_->Read(f->id, 0, 256 * kKiB));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 10 * kKiB);
}

TEST_F(CfsCluster, TwoClientsShareVolume) {
  Boot();
  auto c2r = RunTask(cluster_->sched(), cluster_->MountClient("vol"));
  ASSERT_TRUE(c2r.has_value() && c2r->ok());
  MountContext* c2 = (**c2r)->default_mount();
  auto f = Run(client_->Create(kRootInode, "shared.txt", FileType::kFile));
  ASSERT_TRUE(f.ok());
  std::string content(64 * kKiB, 's');
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, content)).ok());
  ASSERT_TRUE(Run(client_->Close(f->id)).ok());
  // Client 2 sees the file via lookup and reads the same bytes.
  auto looked = Run(c2->Lookup(kRootInode, "shared.txt"));
  ASSERT_TRUE(looked.ok());
  auto read = Run(c2->Read(looked->inode, 0, content.size()));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);
}

TEST_F(CfsCluster, DataNodeCrashDoesNotLoseCommittedData) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "durable.bin", FileType::kFile));
  ASSERT_TRUE(f.ok());
  std::string content(256 * kKiB, 'D');
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, content)).ok());
  ASSERT_TRUE(Run(client_->Close(f->id)).ok());

  // Crash one storage node; reads keep working off the remaining replicas
  // (the client probes replicas and caches the new leader, §2.4).
  cluster_->CrashNode(1);
  cluster_->sched().RunFor(3 * kSec);
  auto read = Run(client_->Read(f->id, 0, content.size()));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);

  // Restart + recover; the node aligns extents and rejoins.
  auto done = RunTask(cluster_->sched(), [](Cluster* c) -> Task<bool> {
    co_await c->RestartNode(1);
    co_return true;
  }(cluster_.get()));
  ASSERT_TRUE(done.has_value());
  cluster_->sched().RunFor(3 * kSec);
  ExpectInvariantsHold("after crash/restart recovery");
  auto read2 = Run(client_->Read(f->id, 0, content.size()));
  ASSERT_TRUE(read2.ok());
  EXPECT_EQ(*read2, content);
}

TEST_F(CfsCluster, RestartRecoversEachRaftGroupOnce) {
  Boot();
  const int node = 1;
  ASSERT_GT(cluster_->data_node(node)->num_partitions(), 0u);
  const size_t groups =
      cluster_->raft_host_of(cluster_->options().num_masters + node)->GroupIds().size();
  cluster_->CrashNode(node);
  cluster_->sched().RunFor(2 * kSec);
  ASSERT_TRUE(RunTaskVoid(cluster_->sched(), cluster_->RestartNode(node)));
  // The data node recovers its groups after extent alignment and the meta
  // node its own; a second pass would restart each data group's loops and
  // fail the proposals queued in between.
  EXPECT_EQ(cluster_->node_host(node)->metrics().counter("raft.recoveries"), groups);
  cluster_->sched().RunFor(3 * kSec);
}

TEST_F(CfsCluster, MetaNodeCrashFailoverServesMetadata) {
  Boot();
  for (int i = 0; i < 10; i++) {
    std::string name = "m";
    name += std::to_string(i);
    ASSERT_TRUE(Run(client_->Create(kRootInode, name, FileType::kFile)).ok());
  }
  cluster_->CrashNode(0);
  cluster_->sched().RunFor(3 * kSec);  // raft failover on affected partitions
  auto listed = Run(client_->ReadDir(kRootInode));
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(listed->size(), 10u);
  // New creates still work.
  auto f = Run(client_->Create(kRootInode, "after-crash", FileType::kFile));
  EXPECT_TRUE(f.ok()) << f.status().ToString();
}

TEST_F(CfsCluster, DeadNodeMarksPartitionsReadOnly) {
  Boot();
  // Crash a node that actually hosts a data partition.
  master::MasterNode* l0 = cluster_->master_leader();
  ASSERT_NE(l0, nullptr);
  ASSERT_FALSE(l0->state().data_partitions().empty());
  sim::NodeId victim_id = l0->state().data_partitions().begin()->second.replicas[0];
  int victim = -1;
  for (int i = 0; i < cluster_->num_nodes(); i++) {
    if (cluster_->node_host(i)->id() == victim_id) victim = i;
  }
  ASSERT_GE(victim, 0);
  cluster_->CrashNode(victim);
  master::MasterNode* leader = cluster_->master_leader();
  ASSERT_NE(leader, nullptr);
  // After the node-timeout the master marks affected partitions read-only
  // (§2.3.3).
  bool marked = cluster_->RunUntil([&] {
    master::MasterNode* l = cluster_->master_leader();
    if (!l) return false;
    for (const auto& [pid, rec] : l->state().data_partitions()) {
      for (auto r : rec.replicas) {
        if (r == victim_id && rec.read_only) return true;
      }
    }
    return false;
  });
  EXPECT_TRUE(marked);
}

TEST_F(CfsCluster, MasterFailoverPreservesClusterMap) {
  Boot();
  master::MasterNode* leader = cluster_->master_leader();
  ASSERT_NE(leader, nullptr);
  size_t partitions = leader->state().data_partitions().size();
  leader->host()->Crash();
  bool new_leader = cluster_->RunUntil([&] {
    master::MasterNode* l = cluster_->master_leader();
    return l != nullptr && l != leader;
  });
  ASSERT_TRUE(new_leader);
  EXPECT_EQ(cluster_->master_leader()->state().data_partitions().size(), partitions);
  // Clients keep working (they probe master replicas).
  auto f = Run(client_->Create(kRootInode, "post-master-failover", FileType::kFile));
  EXPECT_TRUE(f.ok()) << f.status().ToString();
}

TEST_F(CfsCluster, MetaPartitionSplitsUnderLoad) {
  ClusterOptions opts;
  opts.master.meta_split_threshold = 200;  // split early
  opts.master.split_delta = 50;
  Boot(opts, 1, 4);  // single meta partition owning [1, inf)
  for (int i = 0; i < 150; i++) {
    std::string name = "s";
    name += std::to_string(i);
    ASSERT_TRUE(Run(client_->Create(kRootInode, name, FileType::kFile)).ok());
  }
  // 150 files -> 151 inodes + 150 dentries > 200 items: the admin loop cuts
  // the range (Algorithm 1) and creates a partition owning [end+1, inf).
  bool split = cluster_->RunUntil([&] {
    master::MasterNode* l = cluster_->master_leader();
    return l && l->splits_performed() > 0;
  });
  ASSERT_TRUE(split);
  master::MasterNode* leader = cluster_->master_leader();
  EXPECT_GE(leader->state().meta_partitions().size(), 2u);
  // Exactly one partition owns the unbounded tail.
  int unbounded = 0;
  for (const auto& [pid, rec] : leader->state().meta_partitions()) {
    if (rec.end == UINT64_MAX) unbounded++;
  }
  EXPECT_EQ(unbounded, 1);
  // New creates keep working and eventually land in the new range too.
  for (int i = 0; i < 80; i++) {
    auto r = Run(client_->Create(kRootInode, "post" + std::to_string(i), FileType::kFile));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST_F(CfsCluster, RaftDeleteAndPunchOfMissingExtentReturnApplyStatus) {
  Boot();
  // The data partition leader validates nothing before proposing a delete or
  // a punch: the NotFound comes from the apply, handed back to the handler.
  int leader = -1;
  data::PartitionId pid = 0;
  for (int i = 0; i < cluster_->num_nodes() && leader < 0; i++) {
    for (data::PartitionId p : cluster_->data_node(i)->PartitionIds()) {
      if (cluster_->data_node(i)->GetPartition(p)->raft_node()->IsLeader()) {
        leader = i;
        pid = p;
        break;
      }
    }
  }
  ASSERT_GE(leader, 0);
  const sim::NodeId from = client_->node();
  const sim::NodeId to = cluster_->node_host(leader)->id();
  raft::RaftNode* rn = cluster_->data_node(leader)->GetPartition(pid)->raft_node();
  const raft::Index applied = rn->applied_index();
  rpc::Channel ch(&cluster_->net());
  auto del = Run(ch.Unary<data::DeleteExtentReq, data::DeleteExtentResp>(
      from, to, data::DeleteExtentReq{pid, /*extent_id=*/999999}));
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(del->status.IsNotFound()) << del->status.ToString();
  auto punch = Run(ch.Unary<data::PunchHoleReq, data::PunchHoleResp>(
      from, to, data::PunchHoleReq{pid, /*extent_id=*/999999, 0, 4096}));
  ASSERT_TRUE(punch.ok()) << punch.status().ToString();
  EXPECT_TRUE(punch->status.IsNotFound()) << punch->status.ToString();
  EXPECT_GE(rn->applied_index(), applied + 2);  // both went through consensus
}

TEST_F(CfsCluster, OpRootSpanCarriesClientCpu) {
  ClusterOptions opts;
  opts.trace = true;
  Boot(opts);
  auto f = Run(client_->Create(kRootInode, "traced", FileType::kFile));
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  const std::vector<obs::Span>& spans = cluster_->tracer().spans();
  const obs::Span* root = nullptr;
  for (const obs::Span& s : spans) {
    if (s.name == "op:create" && s.parent_id == 0) root = &s;
  }
  ASSERT_NE(root, nullptr);
  // Self time: the root's duration not covered by any child span.
  std::vector<std::pair<SimTime, SimTime>> kids;
  for (const obs::Span& s : spans) {
    if (s.parent_id == root->span_id) kids.emplace_back(s.start, s.end);
  }
  ASSERT_FALSE(kids.empty());
  std::sort(kids.begin(), kids.end());
  SimDuration covered = 0;
  SimTime reach = root->start;
  for (auto [start, end] : kids) {
    start = std::max(start, reach);
    if (end > start) covered += end - start;
    reach = std::max(reach, end);
  }
  const SimDuration self = (root->end - root->start) - covered;
  EXPECT_GE(self, client::kClientCpuPerOp);
}

TEST_F(CfsCluster, UtilizationPlacementPrefersEmptyNodes) {
  ClusterOptions opts;
  opts.num_nodes = 8;  // enough empty nodes to place 3 replicas off the hot ones
  Boot(opts);
  // Inflate reported memory utilization on nodes 0-2 via fake load.
  for (int i = 0; i < 3; i++) {
    cluster_->node_host(i)->AddMemory(200ull * kGiB);
  }
  cluster_->sched().RunFor(3 * kSec);  // heartbeats deliver utilizations
  master::MasterNode* leader = cluster_->master_leader();
  ASSERT_NE(leader, nullptr);
  auto picked = leader->PickReplicas(true, 3, 42);
  ASSERT_EQ(picked.size(), 3u);
  for (auto node : picked) {
    EXPECT_NE(node, cluster_->node_host(0)->id());
    EXPECT_NE(node, cluster_->node_host(1)->id());
    EXPECT_NE(node, cluster_->node_host(2)->id());
  }
}

// --- Data placement under NoSpace (§2.3.1) -----------------------------------

// One data partition turns read-only on every replica, so its chain leader
// answers placement requests with NoSpace. The client must land each write
// on another partition and mark the full one unwritable: it then costs
// exactly one rejected leg, however many writes follow.
class NoSpacePlacement : public CfsCluster {
 protected:
  static constexpr int kFiles = 40;

  data::PartitionId MakeOnePartitionReadOnly() {
    master::MasterNode* leader = cluster_->master_leader();
    EXPECT_NE(leader, nullptr);
    const data::PartitionId pid = leader->state().data_partitions().begin()->first;
    for (int i = 0; i < cluster_->num_nodes(); i++) {
      if (data::DataPartition* p = cluster_->data_node(i)->GetPartition(pid)) {
        p->set_read_only(true);
      }
    }
    return pid;
  }
};

TEST_F(NoSpacePlacement, SmallFileWriteSkipsFullPartition) {
  Boot();
  const data::PartitionId full = MakeOnePartitionReadOnly();
  const uint64_t legs0 = client_->metrics().counter("rpc.WriteSmall.ok");
  const std::string content(4 * kKiB, 's');
  for (int i = 0; i < kFiles; i++) {
    std::string name = "s";
    name += std::to_string(i);
    auto f = Run(client_->Create(kRootInode, name, FileType::kFile));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE(Run(client_->Write(f->id, 0, content)).ok());
    ASSERT_TRUE(Run(client_->Close(f->id)).ok());
    auto ino = Run(client_->GetInode(f->id));
    ASSERT_TRUE(ino.ok());
    ASSERT_EQ(ino->extents.size(), 1u);
    EXPECT_NE(ino->extents[0].partition_id, full);
    auto read = Run(client_->Read(f->id, 0, content.size()));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, content);
  }
  EXPECT_EQ(client_->metrics().counter("rpc.WriteSmall.ok") - legs0, kFiles + 1u);
}

TEST_F(NoSpacePlacement, AppendSkipsFullPartition) {
  Boot();
  const data::PartitionId full = MakeOnePartitionReadOnly();
  const uint64_t legs0 = client_->metrics().counter("rpc.CreateExtent.ok");
  const std::string content(256 * kKiB, 'a');
  for (int i = 0; i < kFiles; i++) {
    std::string name = "a";
    name += std::to_string(i);
    auto f = Run(client_->Create(kRootInode, name, FileType::kFile));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE(Run(client_->Open(f->id)).ok());
    ASSERT_TRUE(Run(client_->Write(f->id, 0, content)).ok());
    EXPECT_NE(client_->append_partition(f->id), 0u);
    EXPECT_NE(client_->append_partition(f->id), full);
    ASSERT_TRUE(Run(client_->Close(f->id)).ok());
  }
  EXPECT_EQ(client_->metrics().counter("rpc.CreateExtent.ok") - legs0, kFiles + 1u);
}

// --- One metrics path: per-host registries ----------------------------------

class Metrics : public CfsCluster {};

TEST_F(Metrics, PerHostRegistriesSumToClusterView) {
  Boot();
  auto f = Run(client_->Create(kRootInode, "chain.bin", FileType::kFile));
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_TRUE(Run(client_->Open(f->id)).ok());
  ASSERT_TRUE(Run(client_->Write(f->id, 0, std::string(512 * kKiB, 'c'))).ok());
  const meta::PartitionId pid = client_->append_partition(f->id);
  ASSERT_NE(pid, 0u);
  ASSERT_TRUE(Run(client_->Close(f->id)).ok());

  sim::Network& net = cluster_->net();
  obs::Registry hosts;
  for (sim::NodeId id = 1; id <= net.num_hosts(); id++) hosts.MergeFrom(net.host(id)->metrics());

  // The cluster view is exactly the merged host registries plus the device
  // and wire accounting it reads from the simulator.
  const obs::Registry view = cluster_->Metrics();
  auto simulator_read = [](const std::string& k) {
    return k.starts_with("disk.") || k.starts_with("net.") || k.starts_with("obs.");
  };
  obs::Registry from_registries;
  for (const auto& [k, v] : view.counters()) {
    if (!simulator_read(k)) from_registries.Add(k, v);
  }
  for (const auto& [k, v] : view.gauges()) {
    if (!simulator_read(k)) from_registries.Set(k, v);
  }
  for (const auto& [k, h] : view.histograms()) from_registries.Hist(k).MergeFrom(h);
  EXPECT_EQ(from_registries.DumpJson(), hosts.DumpJson());
  EXPECT_GT(view.counter("disk.write_bytes"), 0u);

  // Legs land on the host that sent them: the client sends WritePacket to
  // the chain leader, which forwards ChainAppend down the chain.
  const sim::NodeId chain_leader = cluster_->DataPartitionReplicas(pid).at(0);
  EXPECT_GT(net.host(chain_leader)->metrics().counter("rpc.ChainAppend.ok"), 0u);
  EXPECT_GT(client_->metrics().counter("rpc.WritePacket.ok"), 0u);
  EXPECT_EQ(client_->metrics().counter("rpc.ChainAppend.ok"), 0u);

  // Client workflow counters live on the client host only.
  EXPECT_GT(client_->metrics().counter("client.data_rpcs"), 0u);
  EXPECT_EQ(client_->metrics().counter("client.data_rpcs"), view.counter("client.data_rpcs"));
  for (sim::NodeId id = 1; id <= net.num_hosts(); id++) {
    if (id == client_->node()) continue;
    for (const auto& [k, v] : net.host(id)->metrics().counters()) {
      EXPECT_FALSE(k.starts_with("client.")) << k << " on host " << id;
    }
  }
}

// Every leg the rpc layer meters is one transport call, whose timeout
// watchdog was either cancelled by the reply or fired. Raft group-commit
// batch shapes are histograms of their own, not legs.
TEST_F(Metrics, RpcLegsMatchTransportWatchdogs) {
  Boot();
  for (int i = 0; i < 20; i++) {
    std::string name = "f";
    name += std::to_string(i);
    ASSERT_TRUE(Run(client_->Create(kRootInode, name, FileType::kFile)).ok());
  }
  auto f = Run(client_->Create(kRootInode, "data.bin", FileType::kFile));
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_TRUE(Run(client_->Write(f->id, 0, std::string(256 * kKiB, 'd'))).ok());
  ASSERT_TRUE(Run(client_->Fsync(f->id)).ok());
  // Stop between events with no call pending, so every issued call has been
  // metered and its watchdog resolved.
  while (cluster_->net().rpc_calls_in_flight() > 0) ASSERT_TRUE(cluster_->sched().RunOne());

  const obs::Registry m = cluster_->Metrics();
  const uint64_t legs = m.SumCounters("rpc.", ".ok") + m.SumCounters("rpc.", ".timeout") +
                        m.SumCounters("rpc.", ".not_leader");
  EXPECT_GT(legs, 0u);
  EXPECT_EQ(legs, m.counter("net.rpc_timeout.cancelled") + m.counter("net.rpc_timeout.fired"));
  EXPECT_GT(m.FindHistogram("raft.gc.batch_entries")->count, 0u);
  EXPECT_EQ(m.FindHistogram("raft.gc.batch_entries")->count, m.counter("raft.gc.batches"));
}

}  // namespace
}  // namespace cfs::harness
