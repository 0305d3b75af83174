// The meta node service (§2.1): hosts a set of meta partitions, routes
// client RPCs to them, executes writes through raft, serves reads from
// leader memory, and runs the background purge loop that frees the content
// of deleted inodes (§2.7.3's "separate process").
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "meta/messages.h"
#include "meta/meta_partition.h"
#include "qos/qos.h"
#include "raft/multiraft.h"
#include "sim/network.h"

namespace cfs::meta {

struct MetaNodeOptions {
  /// CPU charged per metadata RPC (request parse + btree op + respond).
  SimDuration cpu_per_op = 12;
  /// Background purge scan interval.
  SimDuration purge_interval = 500 * kMsec;
  /// Raft groups of meta partitions are stored on this local disk.
  int raft_disk = 0;
  /// Weighted-fair admission in front of client-facing handlers: bound on
  /// concurrently serviced requests. 0 = disabled (admit synchronously, no
  /// events — the default, keeping pinned schedules byte-identical).
  uint64_t admission_slots = 0;
};

class MetaNode {
 public:
  /// Frees the on-disk content of an evicted inode (wired to the data
  /// subsystem by the harness; receives the inode with its extent keys).
  using ExtentPurger = std::function<sim::Task<Status>(Inode)>;

  MetaNode(sim::Network* net, sim::Host* host, raft::RaftHost* raft,
           const MetaNodeOptions& opts = {});

  MetaNode(const MetaNode&) = delete;
  MetaNode& operator=(const MetaNode&) = delete;

  sim::Host* host() { return host_; }

  /// Create (or re-create during recovery) a partition replica.
  Status CreatePartition(const MetaPartitionConfig& config,
                         const std::vector<sim::NodeId>& peers, bool recover = false);

  MetaPartition* GetPartition(PartitionId pid);
  raft::RaftNode* GetRaft(PartitionId pid) { return raft_->Get(RaftGid(pid)); }
  size_t num_partitions() const { return partitions_.size(); }

  /// Partition ids hosted here, in id order (deep checks).
  std::vector<PartitionId> PartitionIds() const {
    std::vector<PartitionId> ids;
    ids.reserve(partitions_.size());
    for (const auto& [pid, p] : partitions_) ids.push_back(pid);
    return ids;
  }

  void set_extent_purger(ExtentPurger purger) { purger_ = std::move(purger); }

  /// Passive hook observing every successful raft-backed write (latency from
  /// Execute entry to apply-result pickup, plus the op's trace id). Invoked
  /// synchronously — pure observation, never a scheduler event. Health
  /// telemetry taps this for the per-node meta exec latency series.
  using ExecObserver = std::function<void(SimDuration, uint64_t)>;
  void set_exec_observer(ExecObserver obs) { exec_observer_ = std::move(obs); }

  /// Reports for the resource-manager heartbeat (§2.3.2: maxInodeID flows to
  /// the master through periodic communication).
  std::vector<MetaPartitionReport> Reports() const;

  /// Restart-time recovery of all partitions from raft snapshots + logs.
  sim::Task<void> RecoverAll();

  uint64_t ops_served() const { return admission_.served(); }

  /// Meta partition raft groups live in a distinct gid namespace.
  static raft::GroupId RaftGid(PartitionId pid) { return 0x4D00000000000000ull | pid; }

 private:
  void RegisterHandlers();

  /// Propose `cmd` on the partition's raft group and fetch the apply result.
  sim::Task<ApplyResult> Execute(PartitionId pid, std::string cmd,
                                 obs::TraceContext trace = {});

  /// Leader check for serving reads.
  Status CheckLeader(PartitionId pid) const;

  sim::Task<void> PurgeLoop();

  sim::Network* net_;
  sim::Host* host_;
  raft::RaftHost* raft_;
  MetaNodeOptions opts_;
  // Weighted-fair admission in front of the client-facing handlers; weights
  // arrive with each partition's config.
  qos::AdmissionQueue admission_;
  std::map<PartitionId, std::unique_ptr<MetaPartition>> partitions_;
  ExtentPurger purger_;
  ExecObserver exec_observer_;
};

}  // namespace cfs::meta
