// The storage nodes' handler contract, request by request. Every
// client-facing meta and data request is sent raw (one rpc::Channel leg, no
// routing, no retries) to a replica that must refuse it, and the status it
// answers is the one the client's routing acts on:
//   * a node that does not host the partition answers NotFound;
//   * a raft follower answers NotLeader carrying the raft leader's id (meta
//     reads and writes, data overwrites, reads, extent deletes, hole
//     punches), and a replica other than replicas[0] answers NotLeader to
//     the chain-leader requests (CreateExtent, WritePacket, WriteSmall);
//   * a read-only partition refuses writes: meta writes with Unavailable,
//     CreateExtent and WriteSmall with NoSpace, WritePacket with Unavailable
//     plus the committed offset the client resends from.
// The recovery requests (ExtentInfo, FetchRange) and the chain hops answer
// NotFound from a node that does not host the partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/cluster.h"

namespace cfs::harness {
namespace {

using Named = std::vector<std::pair<std::string, Status>>;

class HandlerContract : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.num_nodes = 5;
    opts.seed = 5;
    cluster_ = std::make_unique<Cluster>(opts);
    auto st = RunTask(cluster_->sched(), cluster_->Start());
    ASSERT_TRUE(st && st->ok());
    st = RunTask(cluster_->sched(), cluster_->CreateVolume("v", 1, 1));
    ASSERT_TRUE(st && st->ok());
    // Let every follower learn its leader from a heartbeat.
    cluster_->sched().RunFor(2 * kSec);
    probe_ = cluster_->net().AddHost();
    channel_ = std::make_unique<rpc::Channel>(&cluster_->net());

    const master::MasterState& state = cluster_->master_leader()->state();
    ASSERT_FALSE(state.meta_partitions().empty());
    ASSERT_FALSE(state.data_partitions().empty());
    meta_pid_ = state.meta_partitions().begin()->first;
    meta_replicas_ = state.meta_partitions().begin()->second.replicas;
    data_pid_ = state.data_partitions().begin()->first;
    data_replicas_ = state.data_partitions().begin()->second.replicas;
    ASSERT_EQ(meta_replicas_.size(), 3u);
    ASSERT_EQ(data_replicas_.size(), 3u);
  }

  int IndexOf(sim::NodeId id) const {
    for (int i = 0; i < cluster_->num_nodes(); i++) {
      if (cluster_->node_host(i)->id() == id) return i;
    }
    return -1;
  }

  /// A storage node outside `replicas`.
  sim::NodeId Outsider(const std::vector<sim::NodeId>& replicas) const {
    for (int i = 0; i < cluster_->num_nodes(); i++) {
      const sim::NodeId id = cluster_->node_host(i)->id();
      if (std::find(replicas.begin(), replicas.end(), id) == replicas.end()) return id;
    }
    return sim::kInvalidNode;
  }

  sim::NodeId MetaLeader() const {
    for (sim::NodeId id : meta_replicas_) {
      raft::RaftNode* rn = cluster_->meta_node(IndexOf(id))->GetRaft(meta_pid_);
      if (rn != nullptr && rn->IsLeader()) return id;
    }
    return sim::kInvalidNode;
  }

  data::DataPartition* DataReplica(sim::NodeId id) const {
    return cluster_->data_node(IndexOf(id))->GetPartition(data_pid_);
  }

  sim::NodeId DataRaftLeader() const {
    for (sim::NodeId id : data_replicas_) {
      if (DataReplica(id)->raft_node()->IsLeader()) return id;
    }
    return sim::kInvalidNode;
  }

  template <typename Req, typename Resp>
  Resp Send(sim::NodeId to, Req req) {
    auto r = RunTask(cluster_->sched(),
                     channel_->Unary<Req, Resp>(probe_->id(), to, std::move(req), kSec));
    if (!r || !r->ok()) {
      ADD_FAILURE() << Req::kRpcName << " to node " << to << " got no reply";
      return Resp{Status::IOError("no reply")};
    }
    return std::move(**r);
  }

  template <typename Req, typename Resp>
  void Collect(Named* out, sim::NodeId to, Req req) {
    out->emplace_back(Req::kRpcName, Send<Req, Resp>(to, std::move(req)).status);
  }

  Named MetaWrites(sim::NodeId to) {
    const meta::PartitionId pid = meta_pid_;
    Named out;
    Collect<meta::MetaCreateInodeReq, meta::MetaCreateInodeResp>(&out, to, {.pid = pid});
    Collect<meta::MetaUnlinkInodeReq, meta::MetaUnlinkInodeResp>(&out, to, {.pid = pid, .ino = 1});
    Collect<meta::MetaLinkInodeReq, meta::MetaLinkInodeResp>(&out, to, {.pid = pid, .ino = 1});
    meta::MetaEvictInodeReq evict;
    evict.pid = pid;
    evict.inos = {1};
    Collect<meta::MetaEvictInodeReq, meta::MetaEvictInodeResp>(&out, to, std::move(evict));
    meta::MetaCreateDentryReq create_dentry;
    create_dentry.pid = pid;
    create_dentry.dentry = meta::Dentry{meta::kRootInode, "x", 1, meta::FileType::kFile};
    Collect<meta::MetaCreateDentryReq, meta::MetaCreateDentryResp>(&out, to,
                                                                    std::move(create_dentry));
    meta::MetaDeleteDentryReq delete_dentry;
    delete_dentry.pid = pid;
    delete_dentry.parent = meta::kRootInode;
    delete_dentry.name = "x";
    Collect<meta::MetaDeleteDentryReq, meta::MetaDeleteDentryResp>(&out, to,
                                                                    std::move(delete_dentry));
    Collect<meta::MetaAppendExtentReq, meta::MetaAppendExtentResp>(&out, to,
                                                                    {.pid = pid, .ino = 1});
    Collect<meta::MetaSetAttrReq, meta::MetaSetAttrResp>(&out, to, {.pid = pid, .ino = 1});
    Collect<meta::MetaTruncateReq, meta::MetaTruncateResp>(&out, to, {.pid = pid, .ino = 1});
    return out;
  }

  Named MetaReads(sim::NodeId to) {
    const meta::PartitionId pid = meta_pid_;
    Named out;
    Collect<meta::MetaGetInodeReq, meta::MetaGetInodeResp>(&out, to,
                                                            {.pid = pid, .ino = meta::kRootInode});
    meta::MetaBatchInodeGetReq batch;
    batch.pid = pid;
    batch.inos = {meta::kRootInode};
    Collect<meta::MetaBatchInodeGetReq, meta::MetaBatchInodeGetResp>(&out, to, std::move(batch));
    meta::MetaLookupReq lookup;
    lookup.pid = pid;
    lookup.parent = meta::kRootInode;
    lookup.name = "x";
    Collect<meta::MetaLookupReq, meta::MetaLookupResp>(&out, to, std::move(lookup));
    Collect<meta::MetaReadDirReq, meta::MetaReadDirResp>(
        &out, to, {.pid = pid, .parent = meta::kRootInode});
    return out;
  }

  /// The requests only the chain leader (replicas[0]) serves.
  Named ChainLeaderRequests(sim::NodeId to) {
    const data::PartitionId pid = data_pid_;
    Named out;
    Collect<data::CreateExtentReq, data::CreateExtentResp>(&out, to, {.pid = pid});
    data::WritePacketReq packet;
    packet.pid = pid;
    packet.data = Buffer::Filled(4 * kKiB, 'p');
    Collect<data::WritePacketReq, data::WritePacketResp>(&out, to, std::move(packet));
    data::WriteSmallReq small;
    small.pid = pid;
    small.data = Buffer::Filled(kKiB, 's');
    Collect<data::WriteSmallReq, data::WriteSmallResp>(&out, to, std::move(small));
    return out;
  }

  /// The requests only the raft leader serves.
  Named RaftLeaderRequests(sim::NodeId to) {
    const data::PartitionId pid = data_pid_;
    Named out;
    data::OverwriteReq overwrite;
    overwrite.pid = pid;
    overwrite.extent_id = 1;
    overwrite.data = Buffer::Filled(4 * kKiB, 'o');
    Collect<data::OverwriteReq, data::OverwriteResp>(&out, to, std::move(overwrite));
    Collect<data::ReadExtentReq, data::ReadExtentResp>(
        &out, to, {.pid = pid, .extent_id = 1, .len = 4 * kKiB});
    Collect<data::DeleteExtentReq, data::DeleteExtentResp>(&out, to,
                                                           {.pid = pid, .extent_id = 1});
    Collect<data::PunchHoleReq, data::PunchHoleResp>(
        &out, to, {.pid = pid, .extent_id = 1, .len = 4 * kKiB});
    return out;
  }

  /// Replica-to-replica requests: chain hops and recovery.
  Named ReplicaRequests(sim::NodeId to) {
    const data::PartitionId pid = data_pid_;
    Named out;
    Collect<data::ChainCreateExtentReq, data::ChainCreateExtentResp>(
        &out, to, {.pid = pid, .extent_id = 99, .chain_index = 2});
    data::ChainAppendReq append;
    append.pid = pid;
    append.extent_id = 99;
    append.data = Buffer::Filled(kKiB, 'c');
    append.chain_index = 2;
    Collect<data::ChainAppendReq, data::ChainAppendResp>(&out, to, std::move(append));
    Collect<data::ExtentInfoReq, data::ExtentInfoResp>(&out, to, {.pid = pid});
    Collect<data::FetchRangeReq, data::FetchRangeResp>(
        &out, to, {.pid = pid, .extent_id = 1, .len = kKiB});
    return out;
  }

  std::unique_ptr<Cluster> cluster_;
  sim::Host* probe_ = nullptr;
  std::unique_ptr<rpc::Channel> channel_;
  meta::PartitionId meta_pid_ = 0;
  std::vector<sim::NodeId> meta_replicas_;
  data::PartitionId data_pid_ = 0;
  std::vector<sim::NodeId> data_replicas_;
};

void ExpectAll(const Named& got, bool (Status::*is)() const, const std::string& want,
               const std::string& message = "") {
  for (const auto& [name, st] : got) {
    EXPECT_TRUE((st.*is)()) << name << " answered " << st.ToString() << ", want " << want;
    if (!message.empty()) {
      EXPECT_EQ(st.message(), message) << name;
    }
  }
}

TEST_F(HandlerContract, NodeWithoutThePartitionAnswersNotFound) {
  const sim::NodeId meta_outsider = Outsider(meta_replicas_);
  ASSERT_NE(meta_outsider, sim::kInvalidNode);
  ExpectAll(MetaWrites(meta_outsider), &Status::IsNotFound, "NotFound");
  ExpectAll(MetaReads(meta_outsider), &Status::IsNotFound, "NotFound");

  const sim::NodeId data_outsider = Outsider(data_replicas_);
  ASSERT_NE(data_outsider, sim::kInvalidNode);
  ExpectAll(ChainLeaderRequests(data_outsider), &Status::IsNotFound, "NotFound");
  ExpectAll(RaftLeaderRequests(data_outsider), &Status::IsNotFound, "NotFound");
  ExpectAll(ReplicaRequests(data_outsider), &Status::IsNotFound, "NotFound");
}

TEST_F(HandlerContract, MetaFollowerRedirectsToTheRaftLeader) {
  const sim::NodeId leader = MetaLeader();
  ASSERT_NE(leader, sim::kInvalidNode);
  for (sim::NodeId follower : meta_replicas_) {
    if (follower == leader) continue;
    ExpectAll(MetaWrites(follower), &Status::IsNotLeader, "NotLeader", std::to_string(leader));
    ExpectAll(MetaReads(follower), &Status::IsNotLeader, "NotLeader", std::to_string(leader));
  }
  // The leader serves the reads.
  for (const auto& [name, st] : MetaReads(leader)) {
    EXPECT_TRUE(st.ok() || st.IsNotFound()) << name << " answered " << st.ToString();
  }
}

TEST_F(HandlerContract, DataFollowersRedirect) {
  const sim::NodeId raft_leader = DataRaftLeader();
  ASSERT_NE(raft_leader, sim::kInvalidNode);
  for (sim::NodeId follower : data_replicas_) {
    if (follower == raft_leader) continue;
    ExpectAll(RaftLeaderRequests(follower), &Status::IsNotLeader, "NotLeader",
              std::to_string(raft_leader));
  }
  for (size_t i = 1; i < data_replicas_.size(); i++) {
    const Named got = ChainLeaderRequests(data_replicas_[i]);
    ExpectAll(got, &Status::IsNotLeader, "NotLeader");
    EXPECT_EQ(got[0].second.message(), std::to_string(data_replicas_[0])) << got[0].first;
  }
}

TEST_F(HandlerContract, ReadOnlyMetaPartitionRefusesWrites) {
  const sim::NodeId leader = MetaLeader();
  ASSERT_NE(leader, sim::kInvalidNode);
  cluster_->meta_node(IndexOf(leader))->GetPartition(meta_pid_)->set_read_only(true);
  ExpectAll(MetaWrites(leader), &Status::IsUnavailable, "Unavailable");
}

TEST_F(HandlerContract, ReadOnlyOrFullDataPartitionRefusesChainWrites) {
  const sim::NodeId head = data_replicas_[0];
  data::DataPartition* p = DataReplica(head);
  auto created = Send<data::CreateExtentReq, data::CreateExtentResp>(head, {.pid = data_pid_});
  ASSERT_TRUE(created.status.ok()) << created.status.ToString();
  data::WritePacketReq first;
  first.pid = data_pid_;
  first.extent_id = created.extent_id;
  first.data = Buffer::Filled(4 * kKiB, 'a');
  auto written = Send<data::WritePacketReq, data::WritePacketResp>(head, std::move(first));
  ASSERT_TRUE(written.status.ok()) << written.status.ToString();
  ASSERT_EQ(written.committed_offset, 4 * kKiB);

  // A packet that would run past the extent size limit: NoSpace, and the
  // committed offset to resend from.
  data::WritePacketReq past_end;
  past_end.pid = data_pid_;
  past_end.extent_id = created.extent_id;
  past_end.offset = p->store().options().extent_size_limit;
  past_end.data = Buffer::Filled(4 * kKiB, 'b');
  auto full = Send<data::WritePacketReq, data::WritePacketResp>(head, std::move(past_end));
  EXPECT_TRUE(full.status.IsNoSpace()) << full.status.ToString();
  EXPECT_EQ(full.committed_offset, 4 * kKiB);

  p->set_read_only(true);
  auto create = Send<data::CreateExtentReq, data::CreateExtentResp>(head, {.pid = data_pid_});
  EXPECT_TRUE(create.status.IsNoSpace()) << create.status.ToString();
  data::WriteSmallReq small;
  small.pid = data_pid_;
  small.data = Buffer::Filled(kKiB, 's');
  auto placed = Send<data::WriteSmallReq, data::WriteSmallResp>(head, std::move(small));
  EXPECT_TRUE(placed.status.IsNoSpace()) << placed.status.ToString();
  data::WritePacketReq next;
  next.pid = data_pid_;
  next.extent_id = created.extent_id;
  next.offset = 4 * kKiB;
  next.data = Buffer::Filled(4 * kKiB, 'c');
  auto refused = Send<data::WritePacketReq, data::WritePacketResp>(head, std::move(next));
  EXPECT_TRUE(refused.status.IsUnavailable()) << refused.status.ToString();
  EXPECT_EQ(refused.committed_offset, 4 * kKiB);
}

}  // namespace
}  // namespace cfs::harness
