// MasterState format pin: a fixed command sequence (3 nodes, a default-QoS
// and a QoS volume, meta and data partitions, a split end, read-only marks)
// must encode to exactly these bytes, and so must the snapshot it leaves.
// Raft entry and snapshot sizes feed simulated transfer timing, so any
// drift here moves every schedule golden; change these strings only with an
// announced re-baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "master/master.h"

namespace cfs::master {
namespace {

std::string Hex(std::string_view s) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : s) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

struct Step {
  std::string cmd;
  const char* hex;
  uint64_t value;
};

std::vector<Step> Commands() {
  VolumeQos qos;
  qos.iops_limit = 500;
  qos.bytes_per_sec = 1u << 20;
  qos.weight = 4;
  const uint64_t chunk = 1ull << 32;
  return {
      {MasterState::EncodeRegisterNode(1, true, true, 0),
       "0101000000010100000000", 0},
      {MasterState::EncodeRegisterNode(2, true, false, 0),
       "0102000000010000000000", 0},
      {MasterState::EncodeRegisterNode(3, false, true, 1),
       "0103000000000101000000", 1},
      {MasterState::EncodeCreateVolume("vol-a", 3),
       "0205766f6c2d6103000000", 1},
      {MasterState::EncodeCreateVolume("vol-b", 2, qos),
       "0205766f6c2d6202000080f40380804004000000", 2},
      {MasterState::EncodeAddMetaPartition(1, 1, chunk, {1, 2, 3}),
       "030101808080801003010000000200000003000000", 1},
      {MasterState::EncodeAddMetaPartition(1, chunk + 1, UINT64_MAX, {2, 3, 1}),
       "03018180808010ffffffffffffffffff0103020000000300000001000000", 2},
      {MasterState::EncodeAddDataPartition(1, {1, 3, 2}),
       "040103010000000300000002000000", 3},
      {MasterState::EncodeAddMetaPartition(2, 1, UINT64_MAX, {1, 2}),
       "030201ffffffffffffffffff01020100000002000000", 4},
      {MasterState::EncodeAddDataPartition(2, {3, 1}),
       "0402020300000001000000", 5},
      {MasterState::EncodeSetMetaPartitionEnd(2, chunk + 5000000),
       "0502c096b18210", chunk + 5000000},
      {MasterState::EncodeAddMetaPartition(1, chunk + 5000001, UINT64_MAX, {3, 1, 2}),
       "0301c196b18210ffffffffffffffffff0103030000000100000002000000", 6},
      {MasterState::EncodeSetPartitionReadOnly(3, false, true),
       "06030001", 0},
      {MasterState::EncodeSetPartitionReadOnly(1, true, true),
       "06010101", 0},
  };
}

constexpr const char* kSnapshotHex =
    "030703010000000101000000000200000001000000000003000000000101000000020105"
    "766f6c2d61030000000301020601030205766f6c2d6202000080f4038080400400000001"
    "040105040101018080808010010301000000020000000300000002018180808010c096b1"
    "82100003020000000300000001000000040201ffffffffffffffffff0100020100000002"
    "0000000601c196b18210ffffffffffffffffff0100030300000001000000020000000203"
    "010103010000000300000002000000050200020300000001000000";

TEST(MasterStateFormat, CommandsAndSnapshotKeepTheirBytes) {
  MasterState state(nullptr);
  raft::Index index = 0;
  for (const Step& step : Commands()) {
    EXPECT_EQ(Hex(step.cmd), step.hex);
    raft::ApplyOutcome out;
    state.Apply(++index, Buffer::FromString(step.cmd), {}, &out);
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.value, step.value);
  }
  EXPECT_EQ(Hex(state.TakeSnapshot().view()), kSnapshotHex);
}

TEST(MasterStateFormat, RestoreThenSnapshotRoundTrips) {
  MasterState state(nullptr);
  raft::Index index = 0;
  for (const Step& step : Commands()) {
    raft::ApplyOutcome out;
    state.Apply(++index, Buffer::FromString(step.cmd), {}, &out);
  }
  const Buffer snap = state.TakeSnapshot();
  MasterState restored(nullptr);
  (void)restored.Restore(snap.view());
  EXPECT_EQ(Hex(restored.TakeSnapshot().view()), Hex(snap.view()));
  ASSERT_NE(restored.FindVolume("vol-b"), nullptr);
  EXPECT_EQ(restored.FindVolume("vol-b")->qos.weight, 4u);
  EXPECT_EQ(restored.FindVolume("vol-b")->replica_factor, 2u);
  EXPECT_TRUE(restored.data_partitions().at(3).read_only);
  EXPECT_TRUE(restored.meta_partitions().at(1).read_only);
  EXPECT_EQ(restored.meta_partitions().at(2).end, (1ull << 32) + 5000000);
  EXPECT_EQ(restored.nodes().at(3).raft_set, 1u);
  // The restored id counters continue where the original left off.
  raft::ApplyOutcome out;
  restored.Apply(++index, Buffer::FromString(MasterState::EncodeAddDataPartition(2, {1, 3})),
                 {}, &out);
  EXPECT_EQ(out.value, 7u);
}

}  // namespace
}  // namespace cfs::master
