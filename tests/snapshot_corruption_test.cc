// Corrupt persistent state fails whole and says so: a truncated MasterState
// or MetaPartition snapshot returns Corruption and leaves the state exactly
// as it was, and an element count larger than the bytes left is rejected
// before any container is sized from it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "master/master.h"
#include "meta/meta_partition.h"
#include "sim/network.h"

namespace cfs {
namespace {

using master::MasterState;
using meta::MetaPartition;

std::string MasterSnapshot() {
  master::VolumeQos qos;
  qos.weight = 4;
  const std::vector<std::string> cmds = {
      MasterState::EncodeRegisterNode(1, true, true, 0),
      MasterState::EncodeRegisterNode(2, true, true, 0),
      MasterState::EncodeCreateVolume("vol", 2, qos),
      MasterState::EncodeAddMetaPartition(1, 1, UINT64_MAX, {1, 2}),
      MasterState::EncodeAddDataPartition(1, {2, 1}),
      MasterState::EncodeSetPartitionReadOnly(2, false, true),
  };
  MasterState state(nullptr);
  raft::Index index = 0;
  for (const std::string& cmd : cmds) {
    raft::ApplyOutcome out;
    state.Apply(++index, Buffer::FromString(cmd), {}, &out);
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  }
  return state.TakeSnapshot().ToString();
}

TEST(SnapshotCorruption, TruncatedMasterSnapshotIsRejectedWhole) {
  const std::string snap = MasterSnapshot();
  MasterState state(nullptr);
  ASSERT_TRUE(state.Restore(snap).ok());
  for (size_t len = 1; len < snap.size(); len++) {
    const Status st = state.Restore(snap.substr(0, len));
    EXPECT_TRUE(st.IsCorruption()) << len << " bytes: " << st.ToString();
    EXPECT_EQ(state.TakeSnapshot(), snap) << len << " bytes";
  }
}

class MetaSnapshotCorruption : public ::testing::Test {
 protected:
  MetaSnapshotCorruption() : net_(&sched_), host_(net_.AddHost()) {
    cfg_.id = 1;
    cfg_.volume = 1;
    cfg_.start = 1;
    cfg_.create_root = true;
  }

  std::string BuildSnapshot() {
    MetaPartition mp(cfg_, host_);
    raft::Index index = 0;
    auto apply = [&](std::string cmd) {
      meta::ApplyResult res;
      mp.Apply(++index, Buffer::FromString(std::move(cmd)), {}, &res);
      EXPECT_TRUE(res.status.ok()) << res.status.ToString();
      return res;
    };
    for (int i = 0; i < 4; i++) {
      meta::Inode f = apply(MetaPartition::EncodeCreateInode(meta::FileType::kFile, "", 0)).inode;
      meta::Dentry d{meta::kRootInode, std::to_string(i), f.id, meta::FileType::kFile};
      apply(MetaPartition::EncodeCreateDentry(d));
      apply(MetaPartition::EncodeAppendExtent(f.id, meta::ExtentKey{0, 3, 9, 0, 4096}, 4096));
    }
    apply(MetaPartition::EncodeUnlinkInode(3));  // one free-list entry
    return mp.TakeSnapshot().ToString();
  }

  sim::Scheduler sched_;
  sim::Network net_;
  sim::Host* host_;
  meta::MetaPartitionConfig cfg_;
};

TEST_F(MetaSnapshotCorruption, TruncatedMetaSnapshotIsRejectedWhole) {
  const std::string snap = BuildSnapshot();
  MetaPartition copy(cfg_, host_);
  ASSERT_TRUE(copy.Restore(snap).ok());
  const uint64_t memory = host_->memory_used();
  const int64_t free_list_len = host_->metrics().gauge("meta.free_list_len");
  for (size_t len = 1; len < snap.size(); len++) {
    const Status st = copy.Restore(snap.substr(0, len));
    EXPECT_TRUE(st.IsCorruption()) << len << " bytes: " << st.ToString();
    EXPECT_EQ(copy.TakeSnapshot(), snap) << len << " bytes";
    EXPECT_EQ(host_->memory_used(), memory) << len << " bytes";
    EXPECT_EQ(host_->metrics().gauge("meta.free_list_len"), free_list_len) << len << " bytes";
  }
}

// An inode whose extent count reads 2^62, followed by three bytes.
std::string InodeWithHugeExtentCount() {
  Encoder enc;
  enc.PutVarint(7);  // id
  enc.PutU8(static_cast<uint8_t>(meta::FileType::kFile));
  enc.PutString("");  // link target
  enc.PutU32(1);      // nlink
  enc.PutU32(0);      // flag
  enc.PutVarint(0);   // size
  enc.PutI64(0);      // mtime
  enc.PutVarint(1ull << 62);
  enc.PutBytes("xyz", 3);
  return enc.Take();
}

TEST_F(MetaSnapshotCorruption, HugeExtentCountIsCorruptionNotAnAllocation) {
  const std::string bytes = InodeWithHugeExtentCount();
  Decoder dec(bytes);
  const meta::Inode ino = meta::Inode::Decode(&dec);
  EXPECT_TRUE(dec.status().IsCorruption()) << dec.status().ToString();
  EXPECT_TRUE(ino.extents.empty());

  // The same inode inside a snapshot fails the whole Restore.
  Encoder snap;
  snap.PutVarint(cfg_.id);
  snap.PutVarint(cfg_.volume);
  snap.PutVarint(cfg_.start);
  snap.PutVarint(UINT64_MAX);  // end
  snap.PutVarint(8);           // next inode id
  snap.PutVarint(1);           // one inode
  snap.PutBytes(bytes.data(), bytes.size());
  snap.PutVarint(0);  // no dentries
  snap.PutVarint(0);  // empty free list
  MetaPartition mp(cfg_, host_);
  EXPECT_TRUE(mp.Restore(snap.data()).IsCorruption());
  EXPECT_EQ(mp.inode_count(), 1u);  // still just the root
}

}  // namespace
}  // namespace cfs
