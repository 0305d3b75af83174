// The data node service (§2.2): hosts data partitions, serves the
// primary-backup replication chain for sequential/small-file writes, routes
// overwrites through raft, serves reads at the raft leader bounded by the
// committed offset, and runs the two-phase replica recovery of §2.2.5
// (extent alignment first, then raft).
#pragma once

#include "datanode/data_partition.h"
#include "datanode/messages.h"
#include "qos/qos.h"
#include "raft/multiraft.h"
#include "raft/partition_table.h"
#include "rpc/channel.h"
#include "sim/network.h"

namespace cfs::data {

/// CPU charged per data RPC, plus a per-KiB component for payload handling.
inline constexpr SimDuration kDataCpuPerOp = 8;
inline constexpr SimDuration kDataCpuPerKib = 1;
/// Timeout of the legs a data node issues itself (chain forwards, recovery
/// aligns), and the longest a packet waits for its predecessor to land.
inline constexpr SimDuration kChainRpcTimeout = 500 * kMsec;

struct DataNodeOptions {
  /// Weighted-fair admission in front of client-facing handlers: bound on
  /// concurrently serviced requests. 0 = disabled (admit synchronously, no
  /// events — the default, keeping pinned schedules byte-identical).
  uint64_t admission_slots = 0;
};

class DataNode {
 public:
  /// `track_contents` applies to every partition's extent store: keep real
  /// bytes (tests) or account sizes and timing only (benches).
  DataNode(sim::Network* net, sim::Host* host, raft::RaftHost* raft, bool track_contents,
           const DataNodeOptions& opts = {});

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  sim::Host* host() { return host_; }

  /// Create a partition replica and start its raft group.
  Status CreatePartition(const DataPartitionConfig& config);
  DataPartition* GetPartition(PartitionId pid) { return partitions_.Find(pid); }
  size_t num_partitions() const { return partitions_.size(); }

  /// Partition ids hosted here, in id order (deep checks).
  std::vector<PartitionId> PartitionIds() const { return partitions_.Ids(); }

  std::vector<DataPartitionReport> Reports() const;

  /// Restart recovery: primary-backup alignment of every partition's
  /// extents against its peers, then raft recovery (§2.2.5's ordering).
  sim::Task<void> RecoverAll();

  uint64_t ops_served() const { return admission_.served(); }

  /// The channel carrying node-issued legs (chain forwards, recovery
  /// aligns) — exposed so the harness can attach its per-peer health
  /// observer (rpc::Channel::set_peer_observer).
  rpc::Channel& chain_channel() { return channel_; }

 private:
  void RegisterHandlers();

  /// Forward a chain request (ChainAppendReq, ChainCreateExtentReq) to the
  /// next replica; returns OK at chain end. A plain wrapper over the Impl
  /// coroutine (see the gcc-12 note in sim/network.h).
  template <typename Resp, typename Req>
  sim::Task<Status> ForwardChain(DataPartition* p, Req req) {
    return ForwardChainImpl<Resp>(p, std::move(req));
  }
  template <typename Resp, typename Req>
  sim::Task<Status> ForwardChainImpl(DataPartition* p, Req req);

  /// Shared body of the raft-routed mutations (overwrite, extent delete,
  /// punch hole): the raft-leader guard, then propose `head` + `payload`,
  /// and return the apply outcome. An overwrite passes its
  /// request as `overwrite`: the range it rewrites (its offset, the
  /// payload's length) must lie inside the local extent before the command
  /// pays for consensus.
  sim::Task<Status> ProposeMutation(PartitionId pid, std::string head, Buffer payload,
                                    obs::TraceContext trace,
                                    const OverwriteReq* overwrite = nullptr);

  sim::Task<void> AlignPartition(DataPartition* p);

  sim::Network* net_;
  sim::Host* host_;
  raft::RaftHost* raft_;
  bool track_contents_;
  rpc::Channel channel_;
  // Weighted-fair admission in front of the client-facing handlers; weights
  // arrive with each partition's config.
  qos::AdmissionQueue admission_;
  raft::PartitionTable<DataPartition> partitions_{"data partition"};
  uint64_t next_disk_ = 0;  // round-robin tie-break for fresh disks
};

}  // namespace cfs::data
