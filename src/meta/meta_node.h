// The meta node service (§2.1): hosts a set of meta partitions, routes
// client RPCs to them, executes writes through raft, serves reads from
// leader memory, and runs the background purge loop that frees the content
// of deleted inodes (§2.7.3's "separate process").
#pragma once

#include <functional>

#include "meta/messages.h"
#include "meta/meta_partition.h"
#include "qos/qos.h"
#include "raft/multiraft.h"
#include "raft/partition_table.h"
#include "sim/network.h"

namespace cfs::meta {

/// CPU charged per metadata RPC (request parse + btree op + respond).
inline constexpr SimDuration kMetaCpuPerOp = 12;
/// Background purge scan interval.
inline constexpr SimDuration kPurgeInterval = 500 * kMsec;
/// Raft groups of meta partitions are stored on this local disk.
inline constexpr int kMetaRaftDisk = 0;

struct MetaNodeOptions {
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

  /// Create a partition replica and start its raft group.
  Status CreatePartition(const MetaPartitionConfig& config,
                         const std::vector<sim::NodeId>& peers);

  MetaPartition* GetPartition(PartitionId pid) { return partitions_.Find(pid); }
  raft::RaftNode* GetRaft(PartitionId pid) {
    MetaPartition* mp = partitions_.Find(pid);
    return mp ? mp->raft_node() : nullptr;
  }
  size_t num_partitions() const { return partitions_.size(); }

  /// Partition ids hosted here, in id order (deep checks).
  std::vector<PartitionId> PartitionIds() const { return partitions_.Ids(); }

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

  /// Restart-time recovery of this node's partitions from raft snapshots +
  /// logs. The data groups on the same RaftHost are DataNode::RecoverAll's.
  sim::Task<void> RecoverAll();

  uint64_t ops_served() const { return admission_.served(); }

  /// Meta partition raft groups live in a distinct gid namespace.
  static raft::GroupId RaftGid(PartitionId pid) { return 0x4D00000000000000ull | pid; }

 private:
  void RegisterHandlers();

  /// A raft-backed write: admission, then `cmd(req)` through Execute, then
  /// `reply(result)`.
  template <typename Req, typename Resp, typename Cmd, typename Reply>
  void RegisterWrite(Cmd cmd, Reply reply);

  /// Propose `cmd` on the partition's raft group and fetch the apply result:
  /// the raft-leader guard, then a read-only partition refuses the write.
  sim::Task<ApplyResult> Execute(PartitionId pid, std::string cmd,
                                 obs::TraceContext trace = {});

  sim::Task<void> PurgeLoop();

  sim::Network* net_;
  sim::Host* host_;
  raft::RaftHost* raft_;
  // Weighted-fair admission in front of the client-facing handlers; weights
  // arrive with each partition's config.
  qos::AdmissionQueue admission_;
  raft::PartitionTable<MetaPartition> partitions_{"meta partition"};
  ExtentPurger purger_;
  ExecObserver exec_observer_;
};

}  // namespace cfs::meta
