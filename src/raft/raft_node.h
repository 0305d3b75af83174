// A single raft group replica: leader election, log replication, commit,
// apply, snapshots/compaction, and crash recovery.
//
// One RaftNode exists per (group, host). Message transport and heartbeat
// coalescing live in RaftHost (multiraft.h); RaftNode exposes the protocol
// entry points the transport routes into.
//
// Group commit (§2.2.4 write amplification): Propose() enqueues into a
// leader-side batch queue; BatcherLoop drains it, assigning contiguous
// indices and persisting the whole batch with ONE LogStore::Append (so
// concurrent proposals share a log disk write) and kicking each peer once
// per batch. A dedicated apply loop decouples state-machine application
// from commit advance, so applying batch i overlaps replication and
// persistence of batch i+1.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "raft/log_store.h"
#include "raft/types.h"
#include "rpc/channel.h"
#include "sim/network.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace cfs::raft {

enum class Role { kFollower, kCandidate, kLeader };

class RaftNode {
 public:
  /// `peers` lists every replica of the group including `self`. `channel`
  /// (owned by RaftHost) meters every raft RPC leg into the host's
  /// registry; group-commit counters go there too ("raft.gc.*").
  RaftNode(const RaftOptions& opts, GroupId gid, NodeId self, std::vector<NodeId> peers,
           sim::Network* net, sim::Host* host, sim::Disk* disk, StateMachine* sm,
           rpc::Channel* channel);

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Start the election timer and the apply loop (fresh group, empty state).
  void Start();

  /// Crash-recover from stable storage, then start. Resets the state
  /// machine from the latest snapshot and re-applies nothing beyond it
  /// (commit is re-learned from the leader).
  sim::Task<Status> Recover();

  /// Stop participating (node decommissioned or test teardown).
  void Stop();

  /// Replicate a command; resolves once the command is committed AND applied
  /// on this replica. Returns NotLeader (with leader_hint) when this replica
  /// is not the leader. A traced caller passes its span context: the whole
  /// consensus round runs under a "raft:propose" span with "raft:batch"
  /// (group-commit WAL flush) and "raft:apply" children.
  sim::Task<Status> Propose(std::string cmd, obs::TraceContext trace = {});

  /// Like Propose, but returns the log index the command committed at, so
  /// state machines can hand back per-command apply results (see
  /// MetaPartition::TakeResult). The command is `head || payload`: bulk bytes
  /// passed as `payload` ride every log copy, replication leg and WAL chunk
  /// by reference and reach StateMachine::Apply as the same Buffer.
  sim::Task<Result<Index>> ProposeIndexed(std::string head, Buffer payload = {},
                                          obs::TraceContext trace = {});

  // --- Observers ---
  GroupId gid() const { return gid_; }
  NodeId self() const { return self_; }
  const std::vector<NodeId>& peers() const { return peers_; }
  bool IsLeader() const { return role_ == Role::kLeader && host_->up(); }
  NodeId leader_hint() const { return leader_; }
  Term term() const { return log_.term(); }
  Index commit_index() const { return commit_; }
  Index applied_index() const { return applied_; }
  Index last_log_index() const { return log_.last_index(); }
  Role role() const { return role_; }
  LogStore& log() { return log_; }
  const LogStore& log() const { return log_; }

  // --- Transport entry points (called by RaftHost) ---
  sim::Task<VoteResp> OnVote(VoteReq req);
  sim::Task<AppendResp> OnAppend(AppendReq req);
  sim::Task<InstallSnapshotResp> OnInstallSnapshot(InstallSnapshotReq req);
  /// Returns true if the item is stale (heartbeat term < our term).
  bool OnHeartbeat(const HeartbeatItem& item, NodeId from);

  /// Leader-side: peer observed a higher term via heartbeat response.
  void StepDownIfStale(Term observed);

  /// Test hook: force an immediate election attempt.
  void TriggerElection() { election_deadline_ = 0; }

 private:
  /// A waiting proposer. Lives in propose_queue_ until the batcher assigns
  /// an index, then in pending_ until committed+applied (or failed over).
  /// shared_ptr because the proposer can abandon it on timeout while the
  /// batcher/apply loop still holds it.
  struct ProposeWaiter {
    explicit ProposeWaiter(sim::Scheduler* s) : done(s) {}
    sim::Promise<Status> done;
    Index index = 0;        // 0 until the batcher assigns one
    bool cancelled = false; // proposer timed out; skip if still queued
    obs::TraceContext trace;  // propose-span context; batch/apply spans chain here
  };
  using WaiterPtr = std::shared_ptr<ProposeWaiter>;

  sim::Scheduler& sched() { return *net_->scheduler(); }
  int Majority() const { return static_cast<int>(peers_.size() / 2 + 1); }
  SimDuration RandomElectionTimeout();

  sim::Task<void> ElectionLoop(uint64_t gen);
  sim::Task<void> RunElection(uint64_t gen);
  void BecomeFollower(Term term, NodeId leader);
  void BecomeLeader();
  sim::Task<void> PersistTerm(Term term, NodeId voted_for);

  /// Ensure the batcher coroutine is draining the propose queue.
  void KickBatcher();
  sim::Task<void> BatcherLoop(uint64_t gen);

  /// Ensure a replication pump is running toward `peer`.
  void KickPeer(NodeId peer);
  sim::Task<void> PeerPump(NodeId peer, Term my_term, uint64_t gen);
  sim::Task<bool> SendSnapshotTo(NodeId peer, Term my_term);

  void AdvanceCommit();
  void KickApply() { apply_notifier_.NotifyAll(); }
  sim::Task<void> ApplyLoop(uint64_t gen);
  sim::Task<void> MaybeCompact();

  void FailPendingProposals(const Status& status);
  /// Leader-change failover: proposals still queued (no index yet) are
  /// failed so callers re-route to the new leader.
  void FailQueuedProposals(const Status& status);

  RaftOptions opts_;
  GroupId gid_;
  NodeId self_;
  std::vector<NodeId> peers_;
  sim::Network* net_;
  sim::Host* host_;
  StateMachine* sm_;
  rpc::Channel* channel_;
  LogStore log_;

  Role role_ = Role::kFollower;
  NodeId leader_ = sim::kInvalidNode;
  Index commit_ = 0;
  Index applied_ = 0;
  SimTime election_deadline_ = 0;

  std::map<NodeId, Index> next_index_;
  std::map<NodeId, Index> match_index_;
  std::map<NodeId, bool> pump_active_;

  /// Leader-side group commit: commands awaiting a batch slot. Heads are
  /// adopted into shared Buffers at Propose(), so the batcher, log store and
  /// every replication leg share one allocation per command (and the
  /// proposer's payload Buffer itself).
  struct QueuedProposal {
    Buffer head;
    Buffer payload;
    WaiterPtr waiter;
  };
  std::deque<QueuedProposal> propose_queue_;
  bool batcher_running_ = false;
  // Leader-side group-commit accounting in the host registry, shared by
  // every group this host leads: batches (one log write each), proposals
  // and payload bytes folded into them, the largest batch, the deepest
  // propose queue, and per-batch shape histograms.
  uint64_t& gc_batches_;
  uint64_t& gc_proposals_;
  uint64_t& gc_batched_bytes_;
  int64_t& gc_max_batch_;
  int64_t& gc_queue_high_watermark_;
  obs::Histogram& gc_batch_entries_;
  obs::Histogram& gc_batch_bytes_;

  /// index -> (term at proposal, waiter). Batch-atomic: the batcher
  /// registers a whole batch before its single Append await.
  std::map<Index, std::pair<Term, WaiterPtr>> pending_;

  sim::Notifier apply_notifier_;
  bool compacting_ = false;
  bool running_ = false;
  uint64_t gen_ = 0;  // bumped on Stop/Recover; loops from old gens exit
};

}  // namespace cfs::raft
