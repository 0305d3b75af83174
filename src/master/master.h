// The resource manager (§2.3): a 3-replica raft group whose state machine
// holds the cluster map (nodes, volumes, partitions) with write-through to a
// RocksDB-style KV store for backup/recovery, plus leader-side soft state
// (liveness, utilizations, partition reports).
//
// Responsibilities implemented here:
//  * utilization-based placement of meta/data partitions (§2.3.1), with
//    Raft sets (§2.5.1) and alternative policies for the ablation bench;
//  * volume creation and the client-facing volume view;
//  * meta partition splitting per Algorithm 1 (§2.3.2);
//  * automatic volume expansion when partitions fill up (§2.3.1);
//  * exception handling: heartbeat-loss and client-reported timeouts mark
//    partitions read-only (§2.3.3).
//
// Volume creation, split step 3 and expansion add partitions through one
// step, MasterNode::AddPartition (PickReplicas → Propose → install). Raft
// commands and snapshots share one codec per record piece (node record,
// volume spec, replica list), and Restore rejects a corrupt snapshot whole.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "kv/kvstore.h"
#include "master/messages.h"
#include "raft/multiraft.h"
#include "rpc/channel.h"
#include "sim/network.h"

namespace cfs::master {

enum class PlacementPolicy {
  kUtilization,  // the paper's policy: lowest memory/disk utilization
  kHash,         // baseline for the ablation: hash(pid) over the node ring
  kRandom,       // baseline: uniform random
};

struct MasterOptions {
  uint32_t raft_set_size = 5;
  PlacementPolicy placement = PlacementPolicy::kUtilization;
  bool use_raft_sets = true;
  /// Split a meta partition once it reports this many items (§2.3.2).
  uint64_t meta_split_threshold = 1u << 19;
  /// Inode-range headroom added above maxInodeID when cutting (Algorithm 1's ∆).
  uint64_t split_delta = 1u << 21;
  /// Keep at least this many writable data partitions per volume.
  uint32_t min_writable_data_partitions = 4;
  uint32_t expand_batch = 4;
  /// Initial inode-range chunk per meta partition (last partition gets ∞).
  uint64_t inode_chunk = 1ull << 32;
  SimDuration admin_interval = 500 * kMsec;
  SimDuration node_timeout = 4 * kSec;
  SimDuration admin_rpc_timeout = 1 * kSec;
};

/// Replicated cluster-map records.
struct NodeRecord {
  sim::NodeId node = 0;
  bool is_meta = false;
  bool is_data = false;
  uint32_t raft_set = 0;
};
struct MetaPartitionRecord {
  PartitionId pid = 0;
  VolumeId volume = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  std::vector<sim::NodeId> replicas;
  bool read_only = false;
};
struct DataPartitionRecord {
  PartitionId pid = 0;
  VolumeId volume = 0;
  std::vector<sim::NodeId> replicas;
  bool read_only = false;
};
struct VolumeRecord {
  VolumeId id = 0;
  std::string name;
  uint32_t replica_factor = 3;
  VolumeQos qos;
  std::vector<PartitionId> meta_partitions;
  std::vector<PartitionId> data_partitions;
};

/// Leader-side soft state per node (never replicated).
struct NodeRuntime {
  SimTime last_heartbeat = 0;
  double memory_utilization = 0;
  double disk_utilization = 0;
  std::map<PartitionId, meta::MetaPartitionReport> meta_reports;
  std::map<PartitionId, data::DataPartitionReport> data_reports;
  /// Latest gray-failure summary piggybacked on the node's heartbeat
  /// (empty structure when health telemetry is off).
  obs::NodeHealthSummary health;
};

/// The replicated state machine of the resource manager.
class MasterState : public raft::StateMachine {
 public:
  enum class Op : uint8_t {
    kRegisterNode = 1,
    kCreateVolume = 2,
    kAddMetaPartition = 3,
    kAddDataPartition = 4,
    kSetMetaPartitionEnd = 5,
    kSetPartitionReadOnly = 6,
  };

  explicit MasterState(kv::KvStore* kv) : kv_(kv) {}

  // raft::StateMachine
  /// Master commands carry no bulk payload: the whole command is `cmd`.
  /// `out->value` carries the allocated volume/partition id.
  void Apply(raft::Index index, const Buffer& cmd, const Buffer& payload,
             raft::ApplyOutcome* out) override;
  Buffer TakeSnapshot() override;
  Status Restore(std::string_view snapshot) override;

  // Command encoders. Their node record, volume spec (name, replica factor,
  // QoS) and replica list share one codec each with the snapshot.
  static std::string EncodeRegisterNode(sim::NodeId node, bool is_meta, bool is_data,
                                        uint32_t raft_set);
  static std::string EncodeCreateVolume(std::string_view name, uint32_t replica_factor,
                                        const VolumeQos& qos = {});
  static std::string EncodeAddMetaPartition(VolumeId vol, uint64_t start, uint64_t end,
                                            const std::vector<sim::NodeId>& replicas);
  static std::string EncodeAddDataPartition(VolumeId vol,
                                            const std::vector<sim::NodeId>& replicas);
  static std::string EncodeSetMetaPartitionEnd(PartitionId pid, uint64_t end);
  static std::string EncodeSetPartitionReadOnly(PartitionId pid, bool is_meta,
                                                bool read_only);

  // State access (leader reads).
  const std::map<sim::NodeId, NodeRecord>& nodes() const { return nodes_; }
  const std::map<VolumeId, VolumeRecord>& volumes() const { return volumes_; }
  const std::map<PartitionId, MetaPartitionRecord>& meta_partitions() const {
    return meta_partitions_;
  }
  const std::map<PartitionId, DataPartitionRecord>& data_partitions() const {
    return data_partitions_;
  }
  const VolumeRecord* FindVolume(const std::string& name) const;
  uint32_t next_raft_set(uint32_t set_size) const;

 private:
  void Persist(const char* kind, uint64_t id, std::string value);

  kv::KvStore* kv_;
  std::map<sim::NodeId, NodeRecord> nodes_;
  std::map<VolumeId, VolumeRecord> volumes_;
  std::map<std::string, VolumeId> volume_by_name_;
  std::map<PartitionId, MetaPartitionRecord> meta_partitions_;
  std::map<PartitionId, DataPartitionRecord> data_partitions_;
  VolumeId next_volume_ = 1;
  PartitionId next_partition_ = 1;
};

/// One resource-manager replica (service + raft + admin loops).
class MasterNode {
 public:
  MasterNode(sim::Network* net, sim::Host* host, raft::RaftHost* raft,
             std::vector<sim::NodeId> master_peers, const MasterOptions& opts = {});

  MasterNode(const MasterNode&) = delete;
  MasterNode& operator=(const MasterNode&) = delete;

  sim::Host* host() { return host_; }
  bool IsLeader() const { return raft_node_->IsLeader(); }
  sim::NodeId leader_hint() const { return raft_node_->leader_hint(); }
  MasterState& state() { return state_; }
  raft::RaftNode* raft_node() { return raft_node_; }

  uint64_t splits_performed() const { return splits_; }

  static raft::GroupId RaftGid() { return 0x5200000000000001ull; }

  // Exposed for tests/benches: deterministic placement given current soft
  // state. Returns empty when not enough candidate nodes exist.
  std::vector<sim::NodeId> PickReplicas(bool for_meta, uint32_t n, uint64_t salt);

  /// Cluster-wide health view from heartbeat-piggybacked summaries plus the
  /// master's own liveness judgment: {"time":t,"nodes":{id:{"alive":b,
  /// "last_heartbeat":t,"health":{...}}}} — byte-stable (ordered map, all
  /// integers). Meaningful on the leader; followers see only their own
  /// registration-time soft state.
  std::string HealthViewJson() const;

 private:
  void RegisterHandlers();
  Status NotLeaderStatus() const { return Status::NotLeader(std::to_string(leader_hint())); }
  sim::Task<raft::ApplyOutcome> Propose(std::string cmd);
  sim::Task<void> AdminLoop();
  sim::Task<void> CheckLiveness();
  sim::Task<void> MaybeSplitMetaPartitions();
  sim::Task<void> MaybeExpandVolumes();
  sim::Task<Status> CreatePartitionsForVolume(VolumeId vol, uint32_t meta_count,
                                              uint32_t data_count, uint32_t rf);
  /// The add-partition step of volume creation, split step 3 and expansion:
  /// PickReplicas → Propose → Install. A data partition ignores `start` and
  /// `end`. Returns the failure of the first step that failed; `*added`
  /// gets the new partition id once the proposal commits.
  sim::Task<Status> AddPartition(bool is_meta, VolumeId vol, uint64_t start, uint64_t end,
                                 uint32_t rf, uint64_t salt, PartitionId* added = nullptr);
  /// Sends the create request to each replica in turn and returns the last
  /// failure; a replica already holding the partition counts as installed.
  /// By value: `replicas` is iterated across RPC suspensions (A1).
  template <typename Resp, typename Req>
  sim::Task<Status> Install(std::vector<sim::NodeId> replicas, Req req);
  /// `node`'s latest meta or data report on `pid`; null if it sent none.
  template <typename Report>
  const Report* FindReport(std::map<PartitionId, Report> NodeRuntime::*reports,
                           sim::NodeId node, PartitionId pid) const;
  GetVolumeResp BuildVolumeView(const VolumeRecord& vol) const;

  sim::Network* net_;
  sim::Host* host_;
  raft::RaftHost* raft_;
  MasterOptions opts_;
  rpc::Channel admin_channel_;
  kv::KvStore kv_;
  MasterState state_;
  raft::RaftNode* raft_node_ = nullptr;
  std::map<sim::NodeId, NodeRuntime> runtime_;
  uint64_t splits_ = 0;
  uint64_t expansions_ = 0;
  std::set<PartitionId> splitting_;  // guards double-split of one partition
};

}  // namespace cfs::master
