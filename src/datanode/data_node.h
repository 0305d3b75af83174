// The data node service (§2.2): hosts data partitions, serves the
// primary-backup replication chain for sequential/small-file writes, routes
// overwrites through raft, serves reads at the raft leader bounded by the
// committed offset, and runs the two-phase replica recovery of §2.2.5
// (extent alignment first, then raft).
#pragma once

#include <map>
#include <memory>

#include "datanode/data_partition.h"
#include "datanode/messages.h"
#include "qos/qos.h"
#include "raft/multiraft.h"
#include "rpc/channel.h"
#include "sim/network.h"

namespace cfs::data {

struct DataNodeOptions {
  /// Applied to every partition's extent store: keep real bytes (tests) or
  /// account sizes/timing only (benches).
  bool track_contents = true;
  /// CPU charged per data RPC, plus a per-KiB component for payload handling.
  SimDuration cpu_per_op = 8;
  SimDuration cpu_per_kib = 1;
  SimDuration chain_rpc_timeout = 500 * kMsec;
  /// Weighted-fair admission in front of client-facing handlers: bound on
  /// concurrently serviced requests. 0 = disabled (admit synchronously, no
  /// events — the default, keeping pinned schedules byte-identical).
  uint64_t admission_slots = 0;
};

class DataNode {
 public:
  DataNode(sim::Network* net, sim::Host* host, raft::RaftHost* raft,
           const DataNodeOptions& opts = {});

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  sim::Host* host() { return host_; }

  Status CreatePartition(const DataPartitionConfig& config, bool recover = false);
  DataPartition* GetPartition(PartitionId pid);
  size_t num_partitions() const { return partitions_.size(); }

  /// Partition ids hosted here, in id order (deep checks).
  std::vector<PartitionId> PartitionIds() const {
    std::vector<PartitionId> ids;
    ids.reserve(partitions_.size());
    for (const auto& [pid, p] : partitions_) ids.push_back(pid);
    return ids;
  }

  std::vector<DataPartitionReport> Reports() const;

  /// Restart recovery: primary-backup alignment of every partition's
  /// extents against its peers, then raft recovery (§2.2.5's ordering).
  sim::Task<void> RecoverAll();

  uint64_t ops_served() const { return ops_; }

  /// The channel carrying node-issued legs (chain forwards, recovery
  /// aligns) — exposed so the harness can attach its per-peer health
  /// observer (rpc::Channel::set_peer_observer).
  rpc::Channel& chain_channel() { return channel_; }

 private:
  void RegisterHandlers();
  SimDuration OpCost(size_t payload) const {
    return opts_.cpu_per_op +
           opts_.cpu_per_kib * static_cast<SimDuration>(payload / kKiB);
  }

  /// Forward a chain request to the next replica; returns OK at chain end.
  /// (Plain wrappers over the *Impl coroutines; see the gcc-12 note in
  /// sim/network.h.)
  sim::Task<Status> ForwardChain(DataPartition* p, ChainAppendReq req) {
    return ForwardChainImpl(p, std::move(req));
  }
  sim::Task<Status> ForwardChainCreate(DataPartition* p, ChainCreateExtentReq req) {
    return ForwardChainCreateImpl(p, std::move(req));
  }
  sim::Task<Status> ForwardChainImpl(DataPartition* p, ChainAppendReq req);
  sim::Task<Status> ForwardChainCreateImpl(DataPartition* p, ChainCreateExtentReq req);

  sim::Task<void> AlignPartition(DataPartition* p);

  sim::Network* net_;
  sim::Host* host_;
  raft::RaftHost* raft_;
  DataNodeOptions opts_;
  rpc::Channel channel_;
  // Weighted-fair admission in front of the client-facing handlers; weights
  // arrive with each partition's config.
  qos::AdmissionQueue admission_;
  std::map<PartitionId, std::unique_ptr<DataPartition>> partitions_;
  uint64_t next_disk_ = 0;  // round-robin tie-break for fresh disks
  uint64_t ops_ = 0;
};

}  // namespace cfs::data
