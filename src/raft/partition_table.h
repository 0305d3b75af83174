// The partitions one storage node hosts, keyed by id, each holding its own
// raft node, and the serving-role guards every meta and data handler runs
// before its work (DESIGN.md "Handler prologue"). A partition replica has
// three serving roles (§2.1, §2.2.4, §2.7): any replica serves chain hops
// and recovery, the raft leader serves meta reads and writes and data
// overwrites and reads, and the chain leader, replicas[0], serves appends
// and small files. Each guard returns the partition or the status the
// client's routing acts on.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "raft/raft_node.h"

namespace cfs::raft {

/// `P` exposes raft_node(); the chain-leader guard also needs
/// IsChainLeader() and config().replicas.
template <typename P>
class PartitionTable {
 public:
  /// `kind` names the partition in NotFound ("meta partition").
  explicit PartitionTable(const char* kind) : kind_(kind) {}

  /// Hosts `p`, whose id must be new here, and returns it.
  P* Add(std::unique_ptr<P> p) {
    P* raw = p.get();
    map_[raw->id()] = std::move(p);
    return raw;
  }

  P* Find(uint64_t pid) const {
    auto it = map_.find(pid);
    return it == map_.end() ? nullptr : it->second.get();
  }

  /// Any replica: chain hops, recovery.
  Result<P*> Found(uint64_t pid) const {
    P* p = Find(pid);
    if (p == nullptr) return Status::NotFound(kind_);
    return p;
  }

  /// The raft leader; a follower answers with its leader hint.
  Result<P*> RaftLeader(uint64_t pid) const {
    Result<P*> p = Found(pid);
    if (!p.ok()) return p;
    RaftNode* rn = (*p)->raft_node();
    if (!rn->IsLeader()) return Status::NotLeader(std::to_string(rn->leader_hint()));
    return p;
  }

  /// The chain leader, replicas[0]; any other replica names it.
  Result<P*> ChainLeader(uint64_t pid) const {
    Result<P*> p = Found(pid);
    if (!p.ok() || (*p)->IsChainLeader()) return p;
    const auto& replicas = (*p)->config().replicas;
    return Status::NotLeader(std::to_string(replicas.empty() ? 0 : replicas[0]));
  }

  size_t size() const { return map_.size(); }
  auto begin() const { return map_.begin(); }
  auto end() const { return map_.end(); }

  /// Hosted ids in id order: a loop that suspends iterates these, not the
  /// map, which can gain entries while it is parked (A1).
  std::vector<uint64_t> Ids() const {
    std::vector<uint64_t> ids;
    for (const auto& [pid, p] : map_) ids.push_back(pid);
    return ids;
  }

 private:
  const char* kind_;
  std::map<uint64_t, std::unique_ptr<P>> map_;
};

}  // namespace cfs::raft
