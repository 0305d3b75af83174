// MetaPartition state-machine tests: command apply semantics, inode id
// allocation, nlink thresholds, free list, snapshot round-trip, range
// splitting (Algorithm 1), memory accounting, fsck orphan detection.
#include <gtest/gtest.h>

#include "meta/meta_partition.h"
#include "sim/network.h"

namespace cfs::meta {
namespace {

class MetaPartitionFixture : public ::testing::Test {
 protected:
  MetaPartitionFixture() : net_(&sched_) {
    host_ = net_.AddHost();
    MetaPartitionConfig cfg;
    cfg.id = 1;
    cfg.volume = 1;
    cfg.start = 1;
    mp_ = std::make_unique<MetaPartition>(cfg, host_);
  }

  ApplyResult Apply(std::string cmd) {
    ApplyResult res;
    mp_->Apply(++index_, Buffer::FromString(std::move(cmd)), {}, &res);
    return res;
  }

  static std::string Evict(std::vector<InodeId> inos) {
    return MetaPartition::EncodeEvictInode(inos);
  }

  Inode CreateFile() {
    auto res = Apply(MetaPartition::EncodeCreateInode(FileType::kFile, "", 0));
    EXPECT_TRUE(res.status.ok());
    return res.inode;
  }

  sim::Scheduler sched_;
  sim::Network net_;
  sim::Host* host_;
  std::unique_ptr<MetaPartition> mp_;
  raft::Index index_ = 0;
};

TEST_F(MetaPartitionFixture, CreateInodeAllocatesSmallestUnusedId) {
  Inode a = CreateFile();
  Inode b = CreateFile();
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(b.id, 2u);
  EXPECT_EQ(mp_->max_inode_id(), 2u);
  EXPECT_EQ(a.nlink, 1u);
}

TEST_F(MetaPartitionFixture, DirectoryStartsWithNlinkTwo) {
  auto res = Apply(MetaPartition::EncodeCreateInode(FileType::kDir, "", 0));
  EXPECT_EQ(res.inode.nlink, 2u);
  EXPECT_TRUE(res.inode.IsDir());
}

TEST_F(MetaPartitionFixture, SymlinkKeepsTarget) {
  auto res = Apply(MetaPartition::EncodeCreateInode(FileType::kSymlink, "/target/path", 0));
  EXPECT_EQ(res.inode.link_target, "/target/path");
}

TEST_F(MetaPartitionFixture, UnlinkFileMarksDeletedAtZero) {
  Inode f = CreateFile();
  auto res = Apply(MetaPartition::EncodeUnlinkInode(f.id));
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(res.value, 0u);
  EXPECT_TRUE(res.inode.IsDeleted());
  ASSERT_EQ(mp_->free_list().size(), 1u);
  EXPECT_EQ(mp_->free_list().front(), f.id);
}

TEST_F(MetaPartitionFixture, LinkedFileSurvivesOneUnlink) {
  Inode f = CreateFile();
  EXPECT_TRUE(Apply(MetaPartition::EncodeLinkInode(f.id)).status.ok());  // nlink=2
  auto res = Apply(MetaPartition::EncodeUnlinkInode(f.id));
  EXPECT_EQ(res.value, 1u);
  EXPECT_FALSE(res.inode.IsDeleted());
  EXPECT_TRUE(mp_->free_list().empty());
}

TEST_F(MetaPartitionFixture, DirectoryDeletedAtNlinkTwo) {
  auto dir = Apply(MetaPartition::EncodeCreateInode(FileType::kDir, "", 0)).inode;
  // One unlink takes a fresh dir (nlink=2) to 1 <= threshold 2 -> deleted.
  auto res = Apply(MetaPartition::EncodeUnlinkInode(dir.id));
  EXPECT_TRUE(res.inode.IsDeleted());
}

TEST_F(MetaPartitionFixture, LinkToDeletedInodeFails) {
  Inode f = CreateFile();
  (void)Apply(MetaPartition::EncodeUnlinkInode(f.id));
  auto res = Apply(MetaPartition::EncodeLinkInode(f.id));
  EXPECT_TRUE(res.status.IsNotFound());
}

TEST_F(MetaPartitionFixture, EvictRemovesInodeAndFreeListEntry) {
  Inode f = CreateFile();
  (void)Apply(MetaPartition::EncodeUnlinkInode(f.id));
  EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), 1);
  auto res = Apply(Evict({f.id}));
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(mp_->GetInode(f.id), nullptr);
  EXPECT_TRUE(mp_->free_list().empty());
  EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), 0);
  // Idempotent.
  EXPECT_TRUE(Apply(Evict({f.id})).status.ok());
  EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), 0);
}

TEST_F(MetaPartitionFixture, BatchedEvictRemovesExactlyTheListedInodes) {
  const uint64_t mem_before = host_->memory_used();
  std::vector<InodeId> ids;
  for (int i = 0; i < 6; i++) ids.push_back(CreateFile().id);
  // Files 1 and 4 have content; everything is unlinked but file 5.
  (void)Apply(MetaPartition::EncodeAppendExtent(ids[1], ExtentKey{0, 1, 10, 0, 4096}, 4096));
  (void)Apply(MetaPartition::EncodeAppendExtent(ids[4], ExtentKey{0, 1, 11, 0, 4096}, 4096));
  for (int i = 0; i < 5; i++) (void)Apply(MetaPartition::EncodeUnlinkInode(ids[i]));
  ASSERT_EQ(mp_->free_list().size(), 5u);
  (void)mp_->TakeSnapshot();  // leaf memos clean: a missed invalidation shows below

  // Files 0 and 1 are at the front of the free list; file 3 is out of order.
  const std::string cmd = Evict({ids[0], ids[1], ids[3]});
  auto res = Apply(cmd);
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  ASSERT_EQ(res.evicted.size(), 1u);  // only file 1 has extents to purge
  EXPECT_EQ(res.evicted[0].id, ids[1]);
  EXPECT_EQ(res.evicted[0].extents.size(), 1u);
  for (int i : {0, 1, 3}) EXPECT_EQ(mp_->GetInode(ids[i]), nullptr) << i;
  for (int i : {2, 4, 5}) EXPECT_NE(mp_->GetInode(ids[i]), nullptr) << i;
  EXPECT_EQ(mp_->free_list(), (std::deque<InodeId>{ids[2], ids[4]}));
  EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), 2);
  InvariantReport report;
  mp_->CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Replaying the entry changes nothing.
  const uint64_t mem_mid = host_->memory_used();
  const Buffer snap = mp_->TakeSnapshot();
  res = Apply(cmd);
  EXPECT_TRUE(res.status.ok());
  EXPECT_TRUE(res.evicted.empty());
  EXPECT_EQ(mp_->TakeSnapshot(), snap);
  EXPECT_EQ(host_->memory_used(), mem_mid);
  EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), 2);

  // The rest, out of order again: file 4 sits behind file 2.
  (void)Apply(MetaPartition::EncodeUnlinkInode(ids[5]));
  res = Apply(Evict({ids[4], ids[2], ids[5]}));
  ASSERT_TRUE(res.status.ok());
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0].id, ids[4]);
  EXPECT_EQ(mp_->inode_count(), 0u);
  EXPECT_TRUE(mp_->free_list().empty());
  EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), 0);
  EXPECT_EQ(host_->memory_used(), mem_before);
  report = InvariantReport{};
  mp_->CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(MetaPartitionFixture, DentryCreateLookupDelete) {
  Inode f = CreateFile();
  Dentry d{kRootInode, "file.txt", f.id, FileType::kFile};
  EXPECT_TRUE(Apply(MetaPartition::EncodeCreateDentry(d)).status.ok());
  const std::optional<Dentry> found = mp_->Lookup(kRootInode, "file.txt");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->inode, f.id);
  // Duplicate create rejected.
  EXPECT_TRUE(Apply(MetaPartition::EncodeCreateDentry(d)).status.IsAlreadyExists());
  auto res = Apply(MetaPartition::EncodeDeleteDentry(kRootInode, "file.txt"));
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(res.dentry.inode, f.id);  // returned for the follow-up unlink
  EXPECT_FALSE(mp_->Lookup(kRootInode, "file.txt").has_value());
}

TEST_F(MetaPartitionFixture, DeleteMissingDentryIsNotFound) {
  EXPECT_TRUE(Apply(MetaPartition::EncodeDeleteDentry(kRootInode, "nope")).status.IsNotFound());
}

TEST_F(MetaPartitionFixture, ReadDirReturnsOnlyThatParent) {
  for (int i = 0; i < 5; i++) {
    Inode f = CreateFile();
    std::string name = "a";
    name += std::to_string(i);
    Dentry d{kRootInode, name, f.id, FileType::kFile};
    (void)Apply(MetaPartition::EncodeCreateDentry(d));
  }
  Inode sub = Apply(MetaPartition::EncodeCreateInode(FileType::kDir, "", 0)).inode;
  Dentry d{sub.id, "inner", CreateFile().id, FileType::kFile};
  (void)Apply(MetaPartition::EncodeCreateDentry(d));

  auto root_list = mp_->ReadDir(kRootInode);
  EXPECT_EQ(root_list.size(), 5u);
  auto sub_list = mp_->ReadDir(sub.id);
  ASSERT_EQ(sub_list.size(), 1u);
  EXPECT_EQ(sub_list[0].name, "inner");
}

TEST_F(MetaPartitionFixture, BatchInodeGetSkipsMissing) {
  Inode a = CreateFile(), b = CreateFile();
  auto got = mp_->BatchInodeGet({a.id, 999, b.id});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, a.id);
  EXPECT_EQ(got[1].id, b.id);
}

TEST_F(MetaPartitionFixture, AppendExtentRecordsLocationAndSize) {
  Inode f = CreateFile();
  ExtentKey key{0, 7, 42, 0, 1024};
  auto res = Apply(MetaPartition::EncodeAppendExtent(f.id, key, 1024));
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(res.inode.size, 1024u);
  ASSERT_EQ(res.inode.extents.size(), 1u);
  EXPECT_EQ(res.inode.extents[0], key);
  // Retried command (same key) is idempotent.
  res = Apply(MetaPartition::EncodeAppendExtent(f.id, key, 1024));
  EXPECT_EQ(res.inode.extents.size(), 1u);
}

TEST_F(MetaPartitionFixture, TruncateDropsExtentsBeyondSize) {
  Inode f = CreateFile();
  (void)Apply(MetaPartition::EncodeAppendExtent(f.id, ExtentKey{0, 1, 1, 0, 1000}, 1000));
  (void)Apply(MetaPartition::EncodeAppendExtent(f.id, ExtentKey{1000, 1, 2, 0, 1000}, 2000));
  auto res = Apply(MetaPartition::EncodeTruncate(f.id, 500));
  EXPECT_TRUE(res.status.ok());
  const Inode* ino = mp_->GetInode(f.id);
  ASSERT_NE(ino, nullptr);
  EXPECT_EQ(ino->size, 500u);
  ASSERT_EQ(ino->extents.size(), 1u);
  EXPECT_EQ(ino->extents[0].extent_id, 1u);
  // The key straddling the new size is cut to end there, so a reopened
  // writer resumes the extent at the file's end, not at its old size.
  EXPECT_EQ(ino->extents[0].size, 500u);
}

TEST_F(MetaPartitionFixture, SetEndCutsInodeRange) {
  CreateFile();  // id 1
  CreateFile();  // id 2
  auto res = Apply(MetaPartition::EncodeSetEnd(100));
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(mp_->config().end, 100u);
  // Below maxInodeID: rejected.
  res = Apply(MetaPartition::EncodeSetEnd(1));
  EXPECT_FALSE(res.status.ok());
}

TEST_F(MetaPartitionFixture, RangeExhaustionStopsAllocation) {
  (void)Apply(MetaPartition::EncodeSetEnd(3));
  CreateFile();  // 1
  CreateFile();  // 2
  CreateFile();  // 3
  auto res = Apply(MetaPartition::EncodeCreateInode(FileType::kFile, "", 0));
  EXPECT_TRUE(res.status.IsNoSpace());
  EXPECT_TRUE(mp_->IsFull());
}

TEST_F(MetaPartitionFixture, SnapshotRoundTripPreservesEverything) {
  for (int i = 0; i < 20; i++) {
    Inode f = CreateFile();
    std::string name = "f";
    name += std::to_string(i);
    Dentry d{kRootInode, name, f.id, FileType::kFile};
    (void)Apply(MetaPartition::EncodeCreateDentry(d));
  }
  (void)Apply(MetaPartition::EncodeUnlinkInode(3));
  (void)Apply(MetaPartition::EncodeSetEnd(1000));
  const Buffer snap = mp_->TakeSnapshot();

  MetaPartitionConfig cfg;
  cfg.id = 1;
  MetaPartition copy(cfg, host_);
  ASSERT_TRUE(copy.Restore(snap.view()).ok());
  EXPECT_EQ(copy.inode_count(), 20u);
  EXPECT_EQ(copy.dentry_count(), 20u);
  EXPECT_EQ(copy.max_inode_id(), 20u);
  EXPECT_EQ(copy.config().end, 1000u);
  ASSERT_EQ(copy.free_list().size(), 1u);
  EXPECT_EQ(copy.free_list().front(), 3u);
  // The host gauge sums both replicas' free lists; a second restore
  // replaces the copy's share instead of adding to it.
  EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), 2);
  ASSERT_TRUE(copy.Restore(snap.view()).ok());
  EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), 2);
  const std::optional<Dentry> d = copy.Lookup(kRootInode, "f7");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inode, 8u);
  // New allocations continue after the snapshot's maxInodeID.
  ApplyResult res;
  copy.Apply(1, Buffer::FromString(MetaPartition::EncodeCreateInode(FileType::kFile, "", 0)), {},
             &res);
  EXPECT_EQ(res.inode.id, 21u);
}

TEST_F(MetaPartitionFixture, MemoryAccountingTracksHostUsage) {
  uint64_t before = host_->memory_used();
  Inode f = CreateFile();
  EXPECT_GT(host_->memory_used(), before);
  (void)Apply(MetaPartition::EncodeUnlinkInode(f.id));
  (void)Apply(Evict({f.id}));
  EXPECT_EQ(host_->memory_used(), before);
}

TEST_F(MetaPartitionFixture, FsckFindsOrphanInodes) {
  Inode linked = CreateFile();
  Dentry d{kRootInode, "linked", linked.id, FileType::kFile};
  (void)Apply(MetaPartition::EncodeCreateDentry(d));
  Inode orphan = CreateFile();  // no dentry ever created: orphan
  auto orphans = mp_->FindOrphanInodes();
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0], orphan.id);
}

}  // namespace
}  // namespace cfs::meta
