// A data partition replica (§2.2.1): partition metadata, an extent store,
// per-extent committed offsets (chain leader), a raft group for the
// overwrite path, and an out-of-order placement buffer for the replication
// chain.
//
// Scenario-aware replication (§2.2.4): sequential writes use the
// primary-backup chain implemented in DataNode; overwrites are proposed to
// this partition's raft group and applied here, paying raft's log-write
// amplification — the tradeoff the paper calls out explicitly.
#pragma once

#include <map>
#include <memory>

#include "common/flat_map.h"

#include "datanode/messages.h"
#include "raft/multiraft.h"
#include "sim/sync.h"
#include "storage/extent_store.h"

namespace cfs::data {

/// Raft command opcodes for the overwrite/purge path.
enum class DataOp : uint8_t {
  kOverwrite = 1,
  kDeleteExtent = 2,
  kPunchHole = 3,
};

class DataPartition : public raft::StateMachine {
 public:
  DataPartition(const DataPartitionConfig& config, sim::Network* net, sim::Host* host,
                raft::RaftHost* raft);

  const DataPartitionConfig& config() const { return config_; }
  PartitionId id() const { return config_.id; }
  storage::ExtentStore& store() { return *store_; }
  raft::RaftNode* raft_node() { return raft_node_; }

  /// Primary-backup chain leader: the first replica in the array (§2.7.1).
  bool IsChainLeader() const {
    return !config_.replicas.empty() && config_.replicas[0] == host_->id() && host_->up();
  }
  uint32_t ChainIndexOf(sim::NodeId node) const;

  bool read_only() const { return read_only_; }
  void set_read_only(bool v) { read_only_ = v; }
  bool IsFull() const { return store_->num_extents() >= config_.max_extents; }

  // --- Chain-leader bookkeeping ---
  /// Tiny extents are allocated store-side (WriteSmall) in the same id
  /// namespace, so fold the store's allocator in before handing out an id —
  /// otherwise a partition that served a small-file write first would hand a
  /// chained create a colliding id (AlreadyExists -> wasted client retry).
  storage::ExtentId AllocExtentId() {
    next_extent_id_ = std::max(next_extent_id_, store_->peek_next_id());
    return next_extent_id_++;
  }
  uint64_t committed(storage::ExtentId id) const {
    auto it = committed_.find(id);
    return it == committed_.end() ? 0 : it->second;
  }
  void set_committed(storage::ExtentId id, uint64_t offset) {
    uint64_t& c = committed_[id];
    c = std::max(c, offset);
    // A forced baseline (recovery/import) supersedes finer-grained ranges.
    auto it = durable_.find(id);
    if (it != durable_.end()) {
      while (!it->second.empty() && it->second.begin()->second <= c) {
        it->second.erase(it->second.begin());
      }
      if (it->second.empty()) durable_.erase(it);
    }
  }

  /// Pipelined-commit bookkeeping (§2.2.5): record that [begin, end) of an
  /// extent is durable on ALL replicas, and advance the committed offset only
  /// across the contiguous durable prefix. With a write window > 1, packet
  /// k+1 can finish replication before packet k; the leader must still
  /// "return the largest offset that has been committed by all the
  /// replicas", which is the contiguous one.
  void MarkDurable(storage::ExtentId id, uint64_t begin, uint64_t end);

  /// Notified after every successful local placement; lets a (rare)
  /// out-of-order packet at the primary wait for its predecessor instead of
  /// failing the whole window.
  sim::Notifier& placement_gate() { return placement_gate_; }

  /// Replica-side chain placement with buffering of out-of-order arrivals
  /// (shared tiny extents interleave placements from many clients). Takes
  /// the shared Buffer: the in-order fast path applies a view of it, and an
  /// out-of-order arrival parks the Buffer itself (refcount, no copy).
  sim::Task<Status> ApplyChainAppend(storage::ExtentId extent, uint64_t offset,
                                     Buffer data, bool tiny,
                                     obs::TraceContext trace = {});

  // --- Raft state machine (overwrite/purge path) ---
  /// Fills only `out->status`.
  void Apply(raft::Index index, const Buffer& head, const Buffer& payload,
             raft::ApplyOutcome* out) override;
  /// Extent contents are NOT snapshotted through raft (they are recovered by
  /// the primary-backup alignment phase first, §2.2.5); the snapshot is a
  /// marker carrying only the allocation high-water mark.
  Buffer TakeSnapshot() override;
  Status Restore(std::string_view snapshot) override;

  /// Head of an overwrite command: the payload's `len` bytes follow it
  /// logically, passed to RaftNode::Propose as a separate Buffer.
  static std::string EncodeOverwriteHead(storage::ExtentId id, uint64_t offset,
                                         uint64_t len);
  static std::string EncodeDeleteExtent(storage::ExtentId id);
  static std::string EncodePunchHole(storage::ExtentId id, uint64_t offset, uint64_t len);

  /// Post-restart: bump the extent-id allocator past everything on disk.
  void ReinitAfterRecovery();

  /// Deep check (see common/check.h): delegates to the extent store, then
  /// verifies chain-commit bookkeeping — every committed offset is within the
  /// local extent, durable ranges sit strictly beyond the committed prefix
  /// (MarkDurable merges anything touching it), and the id allocator on the
  /// chain leader is past every allocated extent. Violations are tagged
  /// "data" and prefixed with `label`.
  void CheckInvariants(InvariantReport* report, const std::string& label = "") const;

  static raft::GroupId RaftGid(PartitionId pid) { return 0x4400000000000000ull | pid; }

 private:
  void TryDrainPending(storage::ExtentId extent);

  DataPartitionConfig config_;
  sim::Network* net_;
  sim::Host* host_;
  std::unique_ptr<storage::ExtentStore> store_;
  raft::RaftNode* raft_node_ = nullptr;

  storage::ExtentId next_extent_id_ = 1;
  FlatMap<storage::ExtentId, uint64_t> committed_;  // point-looked-up per packet
  /// extent -> begin -> end: all-replica durable ranges beyond the
  /// contiguous committed prefix (out-of-order completions in the window).
  std::map<storage::ExtentId, std::map<uint64_t, uint64_t>> durable_;
  sim::Notifier placement_gate_;
  bool read_only_ = false;

  /// extent -> offset -> payload: buffered until contiguous (refcounted, so
  /// parking an out-of-order arrival shares the sender's bytes).
  std::map<storage::ExtentId, std::map<uint64_t, Buffer>> pending_;
};

}  // namespace cfs::data
