// MetaPartition snapshot format pin: a small partition (two directories
// under the root, a file with two extents, a symlink, a delete-marked file
// on the free list, a split end) must snapshot to exactly these bytes,
// whether its B-tree leaves are encoded fresh or copied from the previous
// snapshot. Snapshot sizes feed simulated transfer and disk timing, so any
// drift here moves every schedule golden; change this string only with an
// announced re-baseline.
//
// Then the leaf memo views (DESIGN.md "Meta B-tree node layout"): a
// snapshot copies clean leaves out of the previous one and must equal a
// fresh encode, an encode that is not adopted leaves the views alone, and
// no leaf keeps an old snapshot alive.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "meta/meta_partition.h"
#include "sim/network.h"

namespace cfs::meta {
namespace {

template <typename Bytes>
std::string Hex(const Bytes& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : std::string_view(bytes.data(), bytes.size())) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

class MetaSnapshot : public ::testing::Test {
 protected:
  MetaSnapshot() : net_(&sched_), host_(net_.AddHost()) {
    config_.id = 3;
    config_.volume = 2;
    config_.create_root = true;
    mp_ = std::make_unique<MetaPartition>(config_, host_);
  }

  ApplyResult Apply(std::string cmd) {
    ApplyResult res;
    cmds_.push_back(cmd);
    mp_->Apply(++index_, Buffer::FromString(std::move(cmd)), {}, &res);
    EXPECT_TRUE(res.status.ok()) << res.status.ToString();
    return res;
  }

  /// The snapshot of a new partition that applied the same commands: every
  /// leaf is dirty there, so every byte is a fresh encode.
  std::string FreshSnapshot() {
    MetaPartition fresh(config_, host_);
    raft::Index index = 0;
    for (const std::string& cmd : cmds_) {
      ApplyResult res;
      fresh.Apply(++index, Buffer::CopyOf(cmd), {}, &res);
    }
    return fresh.TakeSnapshot().ToString();
  }

  /// Enough files under the root to fill several leaves of both trees.
  void AddFiles(int n) {
    for (int i = 0; i < n; i++) {
      std::string name = "file";
      name += std::to_string(i);
      Create(FileType::kFile, "", i, kRootInode, name);
    }
  }

  InodeId Create(FileType type, std::string_view link_target, int64_t mtime, InodeId parent,
                 const std::string& name) {
    const Inode ino = Apply(MetaPartition::EncodeCreateInode(type, link_target, mtime)).inode;
    Apply(MetaPartition::EncodeCreateDentry(Dentry{parent, name, ino.id, type}));
    return ino.id;
  }

  void Populate() {
    const InodeId a = Create(FileType::kDir, "", 100, kRootInode, "a");
    const InodeId b = Create(FileType::kDir, "", 101, kRootInode, "b");
    const InodeId f = Create(FileType::kFile, "", 102, a, "f");
    Apply(MetaPartition::EncodeAppendExtent(f, ExtentKey{0, 7, 11, 0, 4096}, 4096));
    Apply(MetaPartition::EncodeAppendExtent(f, ExtentKey{4096, 7, 12, 512, 1000}, 5096));
    Apply(MetaPartition::EncodeSetAttr(f, 5096, 200));
    Create(FileType::kSymlink, "a/f", 103, b, "l");
    const InodeId g = Create(FileType::kFile, "", 104, kRootInode, "g");
    Apply(MetaPartition::EncodeDeleteDentry(kRootInode, "g"));
    Apply(MetaPartition::EncodeUnlinkInode(g));  // g goes on the free list
    Apply(MetaPartition::EncodeSetEnd(1000));
  }

  sim::Scheduler sched_;
  sim::Network net_;
  sim::Host* host_;
  MetaPartitionConfig config_;
  std::unique_ptr<MetaPartition> mp_;
  raft::Index index_ = 0;
  std::vector<std::string> cmds_;
};

constexpr const char* kSnapshotHex =
    "030201e8070706"  // id 3, volume 2, start 1, end 1000, next inode 7, 6 inodes
    "010200020000000000000000000000000000000000"
    "020200020000000000000000640000000000000000"
    "030200020000000000000000650000000000000000"
    "0401000100000000000000e827c8000000000000000200070b0080208020070c8004e807"
    "050303612f66010000000000000000670000000000000000"
    "060100000000000100000000680000000000000000"
    "04"  // 4 dentries
    "0101610202"
    "0101620302"
    "0201660401"
    "03016c0503"
    "0106";  // free list: inode 6

TEST_F(MetaSnapshot, SnapshotKeepsItsBytes) {
  Populate();
  EXPECT_EQ(Hex(mp_->TakeSnapshot()), kSnapshotHex);
  // Every leaf is clean now: the second snapshot copies them all.
  EXPECT_EQ(Hex(mp_->TakeSnapshot()), kSnapshotHex);
}

TEST_F(MetaSnapshot, ChangedLeafIsReencodedAndTheRestCopied) {
  Populate();
  AddFiles(200);
  (void)mp_->TakeSnapshot();
  // One inode in the middle of the inodeTree changes, and its leaf grows by
  // an extent, so every later leaf sits at a new offset.
  Apply(MetaPartition::EncodeAppendExtent(100, ExtentKey{0, 9, 3, 0, 8192}, 8192));
  EXPECT_EQ(mp_->TakeSnapshot().ToString(), FreshSnapshot());
  // And once more from the second snapshot's views.
  Apply(MetaPartition::EncodeSetAttr(7, 1, 1));
  EXPECT_EQ(mp_->TakeSnapshot().ToString(), FreshSnapshot());
}

TEST_F(MetaSnapshot, UnadoptedEncodeLeavesTheViewsAlone) {
  Populate();
  AddFiles(200);
  (void)mp_->TakeSnapshot();
  Apply(MetaPartition::EncodeAppendExtent(20, ExtentKey{0, 9, 3, 0, 8192}, 8192));
  // The deep check encodes from the views too, but into bytes nobody keeps.
  InvariantReport report;
  mp_->CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(mp_->TakeSnapshot().ToString(), FreshSnapshot());
}

TEST_F(MetaSnapshot, AdoptingASnapshotReleasesThePreviousOne) {
  Populate();
  AddFiles(100);
  const Buffer first = mp_->TakeSnapshot();
  EXPECT_EQ(first.UseCountForTest(), 2);  // this test and the partition
  Apply(MetaPartition::EncodeSetAttr(50, 1, 1));
  const Buffer second = mp_->TakeSnapshot();
  EXPECT_EQ(first.UseCountForTest(), 1);  // no leaf pins it
  EXPECT_EQ(second.UseCountForTest(), 2);
  InvariantReport report;
  mp_->CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(second.UseCountForTest(), 2);
  // A restore replaces the trees, so their views into `second` go with them.
  ASSERT_TRUE(mp_->Restore(first.view()).ok());
  EXPECT_EQ(second.UseCountForTest(), 1);
}

TEST_F(MetaSnapshot, RestoreThenSnapshotRoundTrips) {
  Populate();
  AddFiles(100);
  const Buffer snap = mp_->TakeSnapshot();
  MetaPartition copy(config_, host_);
  ASSERT_TRUE(copy.Restore(snap.view()).ok());
  EXPECT_EQ(copy.TakeSnapshot(), snap);  // leaves encoded fresh
  EXPECT_EQ(copy.TakeSnapshot(), snap);  // leaves copied from the views
  InvariantReport report;
  copy.CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace cfs::meta
