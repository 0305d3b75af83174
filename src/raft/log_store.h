// Persistent raft log, hard state and snapshot for one group, stored in the
// node's StableStorage with IO time charged to a disk.
//
// This is where raft's write amplification lives: every replicated command
// is written to the log file before it is acknowledged, which is exactly the
// extra IO the paper cites (§2.2.4) as the reason CFS uses primary-backup
// replication for sequential writes and reserves raft for overwrites.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "raft/types.h"
#include "sim/disk.h"
#include "sim/network.h"
#include "sim/task.h"

namespace cfs::raft {

class LogStore {
 public:
  /// The log lives in `host`'s stable storage and counts its writes in the
  /// host's registry ("raft.log.*", summed over the host's groups).
  LogStore(sim::Host* host, sim::Disk* disk, GroupId gid);

  /// Load hard state, snapshot metadata and log entries from stable storage
  /// (crash recovery). Charges a disk read for the bytes scanned.
  sim::Task<Status> Load();

  // --- Hard state ---
  Term term() const { return term_; }
  NodeId voted_for() const { return voted_for_; }
  sim::Task<Status> SaveHardState(Term term, NodeId voted_for);

  // --- Log ---
  Index first_index() const { return snap_index_ + 1; }
  Index last_index() const { return snap_index_ + entries_.size(); }
  Term last_term() const {
    return entries_.empty() ? snap_term_ : entries_.back().term;
  }
  /// Term of the entry at `index`; 0 if unknown (compacted away, except the
  /// snapshot boundary itself).
  Term TermAt(Index index) const;
  bool Has(Index index) const { return index >= first_index() && index <= last_index(); }
  /// Valid until the next append, truncation or compaction.
  const LogEntry& At(Index index) const { return entries_[index - first_index()]; }

  /// Append entries (already indexed/termed by the caller) and persist them.
  /// A traced caller (the group-commit batcher) passes its batch span
  /// context so the WAL flush shows up as a "disk:write" child span.
  sim::Task<Status> Append(std::span<const LogEntry> entries, obs::TraceContext trace = {});

  /// Drop all entries with index >= `from` (follower conflict resolution)
  /// and rewrite the log file.
  sim::Task<Status> TruncateFrom(Index from);

  // --- Snapshot ---
  Index snapshot_index() const { return snap_index_; }
  Term snapshot_term() const { return snap_term_; }
  const Buffer& snapshot_data() const { return snap_data_; }
  bool has_snapshot() const { return snap_index_ > 0 || !snap_data_.empty(); }

  /// Persist a snapshot at `index` and compact the log prefix up to it.
  /// `data` is kept by reference, here and in stable storage.
  sim::Task<Status> SaveSnapshot(Index index, Term term, Buffer data);

  /// Install a snapshot that is ahead of the log (follower catching up):
  /// the whole log is discarded.
  sim::Task<Status> InstallSnapshot(Index index, Term term, Buffer data);

 private:
  std::string Key(const char* what) const;
  sim::Task<Status> RewriteLog();
  sim::Task<Status> PersistSnapshot();

  sim::StableStorage* storage_;
  sim::Disk* disk_;
  GroupId gid_;
  // Built once from gid_ (declared after it: init order); keeps per-batch
  // WAL appends free of string concatenation.
  const std::string key_hs_, key_snap_, key_log_;

  Term term_ = 0;
  NodeId voted_for_ = sim::kInvalidNode;

  Index snap_index_ = 0;
  Term snap_term_ = 0;
  Buffer snap_data_;

  // entries_[i] has index snap_index_ + 1 + i. A vector keeps its capacity
  // across compactions, so steady-state appends allocate nothing.
  std::vector<LogEntry> entries_;
  Encoder wal_enc_;  // WAL record buffer, reused by every append
  // Host registry counters. Every persisted byte counts; Append() writes
  // and the entries they carry give the realized WAL coalescing factor
  // (appended_entries / append_writes; 1.0 = no batching).
  uint64_t& persisted_bytes_;
  uint64_t& append_writes_;
  uint64_t& appended_entries_;
};

}  // namespace cfs::raft
