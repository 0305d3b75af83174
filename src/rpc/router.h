// Router: leader/replica-aware target selection for partitioned services
// and the master group. Owns what the seed duplicated between the CFS
// client, the master admin paths and the harness GC path: the cached
// partition views, the per-partition leader caches (§2.4: "by caching the
// last identified leader, the client can have [a] minimized number of
// retries in most cases"), the not-leader-redirect hint parsing, and the
// partition writability marks used by placement.
//
// Probe policy per logical call: attempt 0 goes to the cached leader if one
// is known, else the view's leader hint, else replica[0]; later attempts
// round-robin the replica list. A failed leg against the cached leader
// invalidates the cache exactly once ("router.invalidations"); a NotLeader
// response carrying a hint repoints the cache ("router.redirects") and the
// stub retries the hinted node immediately. Counters go to the registry the
// owner passes in (a client mount passes its host's).
#pragma once

#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "master/messages.h"
#include "obs/metrics.h"
#include "sim/network.h"

namespace cfs::rpc {

using meta::InodeId;
using meta::PartitionId;

class Router {
 public:
  Router(sim::Scheduler* sched, std::vector<sim::NodeId> masters, obs::Registry& metrics)
      : sched_(sched),
        masters_(std::move(masters)),
        leader_cache_hits_(metrics.Counter("router.leader_cache_hits")),
        leader_probes_(metrics.Counter("router.leader_probes")),
        invalidations_(metrics.Counter("router.invalidations")),
        redirects_(metrics.Counter("router.redirects")) {}

  // --- Views (installed from GetVolumeResp or upserted piecemeal) ---------

  void InstallViews(std::vector<master::MetaPartitionView> meta,
                    std::vector<master::DataPartitionView> data);
  /// Add or replace a single data partition view (the harness GC path knows
  /// replica sets from the master's replicated state, not from a volume).
  void UpsertDataPartition(master::DataPartitionView view);

  master::MetaPartitionView* MetaView(PartitionId pid);
  master::MetaPartitionView* MetaViewForInode(InodeId ino);
  master::DataPartitionView* DataView(PartitionId pid);
  bool HasView(bool is_meta, PartitionId pid);

  /// Random writable partition for placement (§2.3.1), skipping partitions
  /// marked unwritable. `avoid` (data only) is the partition a windowed
  /// append just failed on; reused only as the last resort (§2.2.5).
  master::MetaPartitionView* PickWritableMetaView();
  master::DataPartitionView* PickWritableDataView(PartitionId avoid = 0);

  /// NoSpace observed: skip this partition until `until` (survives view
  /// refreshes, which would otherwise resurrect it before the master learns
  /// it is full).
  void MarkUnwritable(PartitionId pid, SimTime until);

  // --- Master-group routing ----------------------------------------------

  sim::NodeId MasterTarget(int attempt) const;
  void MasterLegFailed() { master_leader_ = sim::kInvalidNode; }
  /// Apply a master NotLeader redirect; true when the status carried a hint.
  bool ApplyMasterRedirect(const Status& not_leader);
  void MasterConfirmed(sim::NodeId node) { master_leader_ = node; }
  sim::NodeId cached_master_leader() const { return master_leader_; }

  // --- Partition-leader routing (is_meta selects the table) ---------------

  /// Target for the given attempt of a logical call; kInvalidNode when no
  /// view (or an empty replica set) is known.
  sim::NodeId PartitionTarget(bool is_meta, PartitionId pid, int attempt);
  /// A leg against `target` failed at the network level: drop the cached
  /// leader / view hint if they pointed there.
  void LegFailed(bool is_meta, PartitionId pid, sim::NodeId target);
  /// Apply a NotLeader redirect; true when the status carried a hint (the
  /// caller should retry immediately), false when the group has no leader
  /// yet (election in progress — back off).
  bool ApplyRedirect(bool is_meta, PartitionId pid, const Status& not_leader);
  void Confirmed(bool is_meta, PartitionId pid, sim::NodeId target);
  sim::NodeId CachedLeader(bool is_meta, PartitionId pid) const;

 private:
  static sim::NodeId ParseLeaderHint(const Status& not_leader);

  sim::Scheduler* sched_;
  std::vector<sim::NodeId> masters_;
  sim::NodeId master_leader_ = sim::kInvalidNode;

  std::vector<master::MetaPartitionView> meta_views_;
  std::vector<master::DataPartitionView> data_views_;
  // Flat vectors: consulted on every routed RPC, tens of entries at most.
  FlatMap<PartitionId, sim::NodeId> meta_leaders_;
  FlatMap<PartitionId, sim::NodeId> data_leaders_;
  FlatMap<PartitionId, SimTime> unwritable_until_;

  uint64_t& leader_cache_hits_;  // attempt-0 targets served from the cache
  uint64_t& leader_probes_;      // legs beyond the first of a logical call
  uint64_t& invalidations_;      // cached leaders dropped after a failed leg
  uint64_t& redirects_;          // NotLeader hints applied to the cache
};

}  // namespace cfs::rpc
