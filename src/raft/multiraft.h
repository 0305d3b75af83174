// MultiRaft transport: routes raft RPCs to the local replicas of many
// groups, and replaces per-group idle heartbeats with one coalesced
// heartbeat message per (node, peer) pair — the optimization the paper
// adopts from CockroachDB's multiraft (§2.1.2) and extends with Raft sets
// (§2.5.1) by placing a group's replicas within one subset of nodes so the
// heartbeat fan-out of each node is bounded by the set size.
//
// All raft traffic (votes, appends, snapshots, coalesced heartbeats) issues
// through one rpc::Channel per host, so per-RPC outcome/latency metrics
// cover the consensus path like every other subsystem; they land in the
// host's registry next to the groups' "raft.gc.*" and "raft.log.*"
// counters.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "raft/raft_node.h"
#include "raft/types.h"
#include "rpc/channel.h"
#include "sim/network.h"
#include "sim/task.h"

namespace cfs::raft {

class RaftHost {
 public:
  RaftHost(sim::Network* net, sim::Host* host, const RaftOptions& opts = {})
      : net_(net), host_(host), opts_(opts), channel_(net) {
    RegisterHandlers();
    sim::Spawn(HeartbeatLoop());
  }

  RaftHost(const RaftHost&) = delete;
  RaftHost& operator=(const RaftHost&) = delete;

  sim::Host* host() { return host_; }
  const RaftOptions& options() const { return opts_; }

  /// Create a replica of group `gid` on this host. The caller retains
  /// ownership of the state machine and must call Start() (fresh group) or
  /// Recover() (after restart) on the returned node.
  RaftNode* CreateGroup(GroupId gid, std::vector<NodeId> peers, StateMachine* sm,
                        sim::Disk* disk) {
    auto node = std::make_unique<RaftNode>(opts_, gid, host_->id(), std::move(peers), net_,
                                           host_, disk, sm, &channel_);
    RaftNode* ptr = node.get();
    groups_[gid] = std::move(node);
    return ptr;
  }

  RaftNode* Get(GroupId gid) {
    auto it = groups_.find(gid);
    return it == groups_.end() ? nullptr : it->second.get();
  }

  void RemoveGroup(GroupId gid) {
    auto it = groups_.find(gid);
    if (it == groups_.end()) return;
    it->second->Stop();
    groups_.erase(it);
  }

  size_t num_groups() const { return groups_.size(); }

  /// Group ids of every replica hosted here, in id order (deep checks gather
  /// per-group replica snapshots across hosts with this).
  std::vector<GroupId> GroupIds() const {
    std::vector<GroupId> ids;
    ids.reserve(groups_.size());
    for (const auto& [gid, node] : groups_) ids.push_back(gid);
    return ids;
  }

  /// Recover every group from stable storage (host restart).
  sim::Task<void> RecoverAll() {
    // Iterate a snapshot: Recover() suspends, and groups_ can be mutated
    // (AddGroup/RemoveGroup) while this coroutine is parked, invalidating a
    // live iterator into the map (A1).
    for (GroupId gid : GroupIds()) {
      auto it = groups_.find(gid);
      if (it == groups_.end()) continue;
      (void)co_await it->second->Recover();
    }
  }

  /// Ablation knob: when false, one heartbeat message is sent per group
  /// instead of one per peer node (i.e. plain Raft without MultiRaft).
  void set_coalesce_heartbeats(bool v) { coalesce_ = v; }

  uint64_t heartbeat_msgs_sent() const { return hb_msgs_; }
  uint64_t heartbeat_items_sent() const { return hb_items_; }

 private:
  void RegisterHandlers() {
    host_->Register<VoteReq, VoteResp>([this](VoteReq req, NodeId) -> sim::Task<VoteResp> {
      RaftNode* g = Get(req.gid);
      if (!g) co_return VoteResp{req.gid, 0, false};
      co_return co_await g->OnVote(std::move(req));
    });
    host_->Register<AppendReq, AppendResp>(
        [this](AppendReq req, NodeId) -> sim::Task<AppendResp> {
          RaftNode* g = Get(req.gid);
          if (!g) co_return AppendResp{req.gid, 0, false, 0};
          co_return co_await g->OnAppend(std::move(req));
        });
    host_->Register<InstallSnapshotReq, InstallSnapshotResp>(
        [this](InstallSnapshotReq req, NodeId) -> sim::Task<InstallSnapshotResp> {
          RaftNode* g = Get(req.gid);
          if (!g) co_return InstallSnapshotResp{req.gid, 0, false};
          co_return co_await g->OnInstallSnapshot(std::move(req));
        });
    host_->Register<MultiHeartbeatReq, MultiHeartbeatResp>(
        [this](MultiHeartbeatReq req, NodeId from) -> sim::Task<MultiHeartbeatResp> {
          co_await host_->cpu().Use(opts_.cpu_per_message);
          MultiHeartbeatResp resp;
          for (const auto& item : req.items) {
            RaftNode* g = Get(item.gid);
            if (!g) continue;
            if (g->OnHeartbeat(item, from)) {
              resp.stale.emplace_back(item.gid, g->term());
            }
          }
          co_return resp;
        });
  }

  sim::Task<void> HeartbeatLoop() {
    while (true) {
      co_await sim::SleepFor{*net_->scheduler(), opts_.heartbeat_interval};
      if (!host_->up()) continue;
      // peer -> heartbeat items for all groups this node currently leads.
      std::map<NodeId, std::vector<HeartbeatItem>> outbox;
      for (auto& [gid, node] : groups_) {
        if (!node->IsLeader()) continue;
        HeartbeatItem item{gid, node->term(), node->commit_index()};
        for (NodeId peer : node->peers()) {
          if (peer != host_->id()) outbox[peer].push_back(item);
        }
      }
      for (auto& [peer, items] : outbox) {
        if (coalesce_) {
          hb_msgs_++;
          hb_items_ += items.size();
          sim::Spawn(SendHeartbeat(peer, std::move(items)));
        } else {
          for (auto& item : items) {
            hb_msgs_++;
            hb_items_++;
            sim::Spawn(SendHeartbeat(peer, {item}));
          }
        }
      }
    }
  }

  sim::Task<void> SendHeartbeat(NodeId peer, std::vector<HeartbeatItem> items) {
    MultiHeartbeatReq req{host_->id(), std::move(items)};
    auto r = co_await channel_.Unary<MultiHeartbeatReq, MultiHeartbeatResp>(
        host_->id(), peer, std::move(req), opts_.rpc_timeout);
    if (!r.ok()) co_return;
    for (const auto& [gid, term] : r->stale) {
      RaftNode* g = Get(gid);
      if (g) g->StepDownIfStale(term);
    }
  }

  sim::Network* net_;
  sim::Host* host_;
  RaftOptions opts_;
  rpc::Channel channel_;
  std::map<GroupId, std::unique_ptr<RaftNode>> groups_;
  bool coalesce_ = true;
  uint64_t hb_msgs_ = 0;
  uint64_t hb_items_ = 0;
};

}  // namespace cfs::raft
