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

bool Router::HasView(Route route, PartitionId pid) {
  switch (route) {
    case Route::kMaster: return true;
    case Route::kMeta: return MetaView(pid) != nullptr;
    case Route::kData: return DataView(pid) != nullptr;
  }
  return false;
}

namespace {
/// One uniform pick among the views that satisfy `ok`: count them, draw
/// Uniform(n) once, return the k-th. Same draw and result as collecting the
/// matches into a vector first, without the vector.
template <typename View, typename Pred>
View* PickUniform(std::vector<View>& views, Rng& rng, Pred ok) {
  const size_t n = static_cast<size_t>(std::count_if(views.begin(), views.end(), ok));
  if (n == 0) return nullptr;
  uint64_t k = rng.Uniform(n);
  for (View& v : views) {
    if (ok(v) && k-- == 0) return &v;
  }
  return nullptr;  // unreachable: k < n
}
}  // namespace

bool Router::Writable(PartitionId pid, bool view_writable) const {
  if (!view_writable) return false;
  auto it = unwritable_until_.find(pid);
  return it == unwritable_until_.end() || it->second <= sched_->Now();
}

master::MetaPartitionView* Router::PickWritableMetaView() {
  // "The client simply selects the meta and data partitions in a random
  // fashion from the ones allocated by the resource manager" (§2.3.1).
  return PickUniform(meta_views_, sched_->rng(), [this](const master::MetaPartitionView& v) {
    return Writable(v.pid, v.writable);
  });
}

master::DataPartitionView* Router::PickWritableDataView(PartitionId avoid) {
  master::DataPartitionView* pick =
      PickUniform(data_views_, sched_->rng(), [this, avoid](const master::DataPartitionView& v) {
        return v.pid != avoid && Writable(v.pid, v.writable);
      });
  if (pick != nullptr) return pick;
  // Nothing else is writable: fall back to the avoided partition.
  master::DataPartitionView* avoided = DataView(avoid);
  return avoided != nullptr && Writable(avoided->pid, avoided->writable) ? avoided : nullptr;
}

void Router::MarkUnwritable(PartitionId pid, SimTime until) {
  unwritable_until_[pid] = until;
  if (auto* mv = MetaView(pid)) mv->writable = false;
  if (auto* dv = DataView(pid)) dv->writable = false;
}

sim::NodeId Router::ParseLeaderHint(const Status& not_leader) {
  // NotLeader responses carry the current leader's node id as a decimal
  // string in the message; "0" (or empty) means "no leader elected yet".
  return static_cast<sim::NodeId>(
      std::strtoull(not_leader.message().c_str(), nullptr, 10));
}

namespace {
/// The known leader when there is one, else round-robin over the group.
sim::NodeId Probe(const std::vector<sim::NodeId>& replicas, sim::NodeId leader, int attempt) {
  if (replicas.empty()) return sim::kInvalidNode;
  if (leader != sim::kInvalidNode) return leader;
  return replicas[static_cast<size_t>(attempt) % replicas.size()];
}
}  // namespace

sim::NodeId Router::Target(Route route, PartitionId pid, int attempt) {
  // Master legs stay out of the leader-cache counters: those describe the
  // §2.4 partition-leader cache only.
  if (route == Route::kMaster) return Probe(masters_, master_leader_, attempt);
  if (attempt > 0) leader_probes_++;
  const auto& cache = Leaders(route);
  auto it = cache.find(pid);
  if (it != cache.end()) {
    if (attempt == 0) leader_cache_hits_++;
    return it->second;
  }
  if (route == Route::kMeta) {
    master::MetaPartitionView* v = MetaView(pid);
    return v ? Probe(v->replicas, v->leader_hint, attempt) : sim::kInvalidNode;
  }
  master::DataPartitionView* v = DataView(pid);
  return v ? Probe(v->replicas, v->raft_leader_hint, attempt) : sim::kInvalidNode;
}

void Router::LegFailed(Route route, PartitionId pid, sim::NodeId target) {
  if (route == Route::kMaster) {
    master_leader_ = sim::kInvalidNode;
    return;
  }
  auto& cache = Leaders(route);
  auto it = cache.find(pid);
  if (it != cache.end() && it->second == target) {
    cache.erase(it);
    invalidations_++;
  }
  if (route == Route::kMeta) {
    if (auto* v = MetaView(pid); v && v->leader_hint == target) {
      v->leader_hint = sim::kInvalidNode;
    }
  } else {
    if (auto* v = DataView(pid); v && v->raft_leader_hint == target) {
      v->raft_leader_hint = sim::kInvalidNode;
    }
  }
}

bool Router::ApplyRedirect(Route route, PartitionId pid, const Status& not_leader) {
  const sim::NodeId hint = ParseLeaderHint(not_leader);
  // Without a hint an election is in progress: forget the stale leader and
  // let the caller back off before the next probe.
  if (route == Route::kMaster) {
    master_leader_ = hint;
  } else if (hint != sim::kInvalidNode) {
    Leaders(route)[pid] = hint;
  } else {
    Leaders(route).erase(pid);
  }
  if (hint == sim::kInvalidNode) return false;
  redirects_++;
  return true;
}

void Router::Confirmed(Route route, PartitionId pid, sim::NodeId target) {
  if (route == Route::kMaster) {
    master_leader_ = target;
  } else {
    Leaders(route)[pid] = target;
  }
}

}  // namespace cfs::rpc
