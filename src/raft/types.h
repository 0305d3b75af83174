// Raft protocol types shared by RaftNode and the MultiRaft transport.
//
// The paper replicates meta partitions and the overwrite path of data
// partitions with "MultiRaft" (§2.1.2): many raft groups whose heartbeats
// between the same pair of nodes are coalesced into one message. Raft sets
// (§2.5.1) further bound heartbeat fan-out by preferring replicas from the
// same subset of nodes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "sim/network.h"

namespace cfs::raft {

using GroupId = uint64_t;
using Term = uint64_t;
using Index = uint64_t;
using sim::NodeId;

/// A log entry's command is logically `head || payload`. `head` is the small
/// encoded part (opcode and arguments); `payload` carries bulk bytes by
/// reference — the raft overwrite path passes the client's write Buffer here,
/// so proposal, replication, WAL and apply never copy it. Entries decoded from
/// the WAL at recovery are flat: the whole command sits in `head`. Both parts
/// are shared immutable Buffers: copying an entry (into an AppendEntries
/// batch, a peer catch-up, a ReplicaSnapshot) bumps refcounts.
struct LogEntry {
  Term term = 0;
  Index index = 0;
  Buffer head;
  Buffer payload;

  /// Logical command length (`head || payload`).
  size_t size() const { return head.size() + payload.size(); }
  size_t WireBytes() const { return 24 + size(); }
};

/// Deterministic state machine replicated by a raft group. Applied exactly
/// once per replica in log order.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  /// Apply the committed command `head || payload` (see LogEntry; `payload`
  /// is empty for commands that carry no bulk bytes and for entries recovered
  /// flat from the WAL).
  virtual void Apply(Index index, const Buffer& head, const Buffer& payload) = 0;
  /// Serialize the complete state (for snapshots / log compaction).
  virtual std::string TakeSnapshot() = 0;
  /// Replace the state from a snapshot.
  virtual void Restore(std::string_view snapshot) = 0;
};

// --- Wire messages -------------------------------------------------------

struct VoteReq {
  static constexpr const char* kRpcName = "RaftVote";
  GroupId gid = 0;
  Term term = 0;
  NodeId candidate = 0;
  Index last_log_index = 0;
  Term last_log_term = 0;
};
struct VoteResp {
  GroupId gid = 0;
  Term term = 0;
  bool granted = false;
};

struct AppendReq {
  static constexpr const char* kRpcName = "RaftAppend";
  GroupId gid = 0;
  Term term = 0;
  NodeId leader = 0;
  Index prev_index = 0;
  Term prev_term = 0;
  Index commit = 0;
  std::vector<LogEntry> entries;

  size_t WireBytes() const {
    size_t n = 64;
    for (const auto& e : entries) n += e.WireBytes();
    return n;
  }
};
struct AppendResp {
  GroupId gid = 0;
  Term term = 0;
  bool success = false;
  /// On success: last replicated index. On failure: follower's suggestion
  /// for the next probe point (its last index + 1, capped).
  Index match_hint = 0;
};

struct InstallSnapshotReq {
  static constexpr const char* kRpcName = "RaftInstallSnapshot";
  GroupId gid = 0;
  Term term = 0;
  NodeId leader = 0;
  Index snap_index = 0;
  Term snap_term = 0;
  std::string data;

  size_t WireBytes() const { return 64 + data.size(); }
};
struct InstallSnapshotResp {
  GroupId gid = 0;
  Term term = 0;
  bool ok = false;
};

/// One coalesced heartbeat per (leader node -> peer node) pair covering all
/// groups led by that node with a replica on the peer (the MultiRaft
/// optimization; compare bench_ablation_raftset).
struct HeartbeatItem {
  GroupId gid = 0;
  Term term = 0;
  Index commit = 0;
};
struct MultiHeartbeatReq {
  static constexpr const char* kRpcName = "RaftMultiHeartbeat";
  NodeId from = 0;
  std::vector<HeartbeatItem> items;
  size_t WireBytes() const { return 32 + items.size() * 20; }
};
struct MultiHeartbeatResp {
  /// Groups where the follower observed a higher term (leader must step
  /// down) paired with that term.
  std::vector<std::pair<GroupId, Term>> stale;
  size_t WireBytes() const { return 16 + stale.size() * 16; }
};

struct RaftOptions {
  SimDuration heartbeat_interval = 50 * kMsec;
  SimDuration election_timeout_min = 250 * kMsec;
  SimDuration election_timeout_max = 500 * kMsec;
  SimDuration rpc_timeout = 200 * kMsec;
  /// How long Propose() waits for commit+apply before returning TimedOut.
  SimDuration propose_timeout = 2 * kSec;
  /// Take a snapshot and truncate the log after this many applied entries.
  uint64_t compaction_threshold = 4096;
  /// Max entries per AppendEntries batch.
  size_t max_batch_entries = 64;
  /// CPU cost charged per processed raft message.
  SimDuration cpu_per_message = 3;
  // --- Group commit (leader-side proposal batching) ---
  /// Max concurrent proposals folded into one leader log write (and one
  /// AppendEntries kick). 1 disables batching: every proposal pays its own
  /// log write, the pre-group-commit behaviour.
  size_t max_batch_proposals = 64;
  /// Max payload bytes per proposal batch. A single command larger than this
  /// still ships, as a batch of one.
  size_t max_batch_bytes = 1 * kMiB;
  /// Optional wait before the batcher drains its queue, trading latency for
  /// larger batches. 0 (default) relies on natural batching only: the next
  /// batch forms while the previous log write is in flight, so an
  /// uncontended proposal is never delayed.
  SimDuration batch_linger = 0;
};

}  // namespace cfs::raft
