#include "rpc/router.h"

#include <algorithm>
#include <cstdlib>

namespace cfs::rpc {

void Router::InstallViews(std::vector<master::MetaPartitionView> meta,
                          std::vector<master::DataPartitionView> data) {
  meta_views_ = std::move(meta);
  data_views_ = std::move(data);
  // Re-apply local unwritable marks: a refreshed view reflects the master's
  // (possibly stale) idea of fullness, not what this client just observed.
  const SimTime now = sched_->Now();
  for (auto& v : meta_views_) {
    auto it = unwritable_until_.find(v.pid);
    if (it != unwritable_until_.end() && it->second > now) v.writable = false;
  }
  for (auto& v : data_views_) {
    auto it = unwritable_until_.find(v.pid);
    if (it != unwritable_until_.end() && it->second > now) v.writable = false;
  }
}

void Router::UpsertDataPartition(master::DataPartitionView view) {
  for (auto& v : data_views_) {
    if (v.pid == view.pid) {
      // Keep the cached raft leader only if it is still a replica.
      auto it = data_leaders_.find(view.pid);
      if (it != data_leaders_.end() &&
          std::find(view.replicas.begin(), view.replicas.end(), it->second) ==
              view.replicas.end()) {
        data_leaders_.erase(it);
      }
      v = std::move(view);
      return;
    }
  }
  data_views_.push_back(std::move(view));
}

master::MetaPartitionView* Router::MetaView(PartitionId pid) {
  for (auto& v : meta_views_) {
    if (v.pid == pid) return &v;
  }
  return nullptr;
}

master::MetaPartitionView* Router::MetaViewForInode(InodeId ino) {
  for (auto& v : meta_views_) {
    if (ino >= v.start && ino <= v.end) return &v;
  }
  return nullptr;
}

master::DataPartitionView* Router::DataView(PartitionId pid) {
  for (auto& v : data_views_) {
    if (v.pid == pid) return &v;
  }
  return nullptr;
}

bool Router::HasView(bool is_meta, PartitionId pid) {
  return is_meta ? MetaView(pid) != nullptr : DataView(pid) != nullptr;
}

master::MetaPartitionView* Router::PickWritableMetaView() {
  // "The client simply selects the meta and data partitions in a random
  // fashion from the ones allocated by the resource manager" (§2.3.1).
  std::vector<master::MetaPartitionView*> writable;
  const SimTime now = sched_->Now();
  for (auto& v : meta_views_) {
    auto it = unwritable_until_.find(v.pid);
    if (it != unwritable_until_.end() && it->second > now) continue;
    if (v.writable) writable.push_back(&v);
  }
  if (writable.empty()) return nullptr;
  return writable[sched_->rng().Uniform(writable.size())];
}

master::DataPartitionView* Router::PickWritableDataView(PartitionId avoid) {
  std::vector<master::DataPartitionView*> writable;
  master::DataPartitionView* avoided = nullptr;
  const SimTime now = sched_->Now();
  for (auto& v : data_views_) {
    auto it = unwritable_until_.find(v.pid);
    if (it != unwritable_until_.end() && it->second > now) continue;
    if (!v.writable) continue;
    if (v.pid == avoid) {
      avoided = &v;
      continue;
    }
    writable.push_back(&v);
  }
  if (writable.empty()) return avoided;
  return writable[sched_->rng().Uniform(writable.size())];
}

void Router::MarkUnwritable(PartitionId pid, SimTime until) {
  unwritable_until_[pid] = until;
  if (auto* mv = MetaView(pid)) mv->writable = false;
  if (auto* dv = DataView(pid)) dv->writable = false;
}

sim::NodeId Router::MasterTarget(int attempt) const {
  if (master_leader_ != sim::kInvalidNode) return master_leader_;
  if (masters_.empty()) return sim::kInvalidNode;
  return masters_[static_cast<size_t>(attempt) % masters_.size()];
}

sim::NodeId Router::ParseLeaderHint(const Status& not_leader) {
  // NotLeader responses carry the current leader's node id as a decimal
  // string in the message; "0" (or empty) means "no leader elected yet".
  return static_cast<sim::NodeId>(
      std::strtoull(not_leader.message().c_str(), nullptr, 10));
}

bool Router::ApplyMasterRedirect(const Status& not_leader) {
  sim::NodeId hint = ParseLeaderHint(not_leader);
  if (hint != sim::kInvalidNode) {
    master_leader_ = hint;
    redirects_++;
    return true;
  }
  master_leader_ = sim::kInvalidNode;
  return false;
}

sim::NodeId Router::PartitionTarget(bool is_meta, PartitionId pid, int attempt) {
  if (attempt > 0) leader_probes_++;
  const auto& cache = is_meta ? meta_leaders_ : data_leaders_;
  auto it = cache.find(pid);
  if (it != cache.end()) {
    if (attempt == 0) leader_cache_hits_++;
    return it->second;
  }
  if (is_meta) {
    master::MetaPartitionView* v = MetaView(pid);
    if (!v || v->replicas.empty()) return sim::kInvalidNode;
    if (v->leader_hint != sim::kInvalidNode) return v->leader_hint;
    return v->replicas[static_cast<size_t>(attempt) % v->replicas.size()];
  }
  master::DataPartitionView* v = DataView(pid);
  if (!v || v->replicas.empty()) return sim::kInvalidNode;
  if (v->raft_leader_hint != sim::kInvalidNode) return v->raft_leader_hint;
  return v->replicas[static_cast<size_t>(attempt) % v->replicas.size()];
}

void Router::LegFailed(bool is_meta, PartitionId pid, sim::NodeId target) {
  auto& cache = is_meta ? meta_leaders_ : data_leaders_;
  auto it = cache.find(pid);
  if (it != cache.end() && it->second == target) {
    cache.erase(it);
    invalidations_++;
  }
  if (is_meta) {
    if (auto* v = MetaView(pid); v && v->leader_hint == target) {
      v->leader_hint = sim::kInvalidNode;
    }
  } else {
    if (auto* v = DataView(pid); v && v->raft_leader_hint == target) {
      v->raft_leader_hint = sim::kInvalidNode;
    }
  }
}

bool Router::ApplyRedirect(bool is_meta, PartitionId pid, const Status& not_leader) {
  auto& cache = is_meta ? meta_leaders_ : data_leaders_;
  sim::NodeId hint = ParseLeaderHint(not_leader);
  if (hint != sim::kInvalidNode) {
    cache[pid] = hint;
    redirects_++;
    return true;
  }
  // Election in progress: forget the stale leader and let the caller back
  // off before the next probe.
  cache.erase(pid);
  return false;
}

void Router::Confirmed(bool is_meta, PartitionId pid, sim::NodeId target) {
  (is_meta ? meta_leaders_ : data_leaders_)[pid] = target;
}

sim::NodeId Router::CachedLeader(bool is_meta, PartitionId pid) const {
  const auto& cache = is_meta ? meta_leaders_ : data_leaders_;
  auto it = cache.find(pid);
  return it == cache.end() ? sim::kInvalidNode : it->second;
}

}  // namespace cfs::rpc
