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
#include <map>
#include <memory>
#include <vector>

#include "common/flat_map.h"
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
  /// (commit is re-learned from the leader). A corrupt log or a snapshot the
  /// state machine cannot decode returns Corruption and the node stays
  /// stopped. Each call counts "raft.recoveries" in the host registry.
  sim::Task<Status> Recover();

  /// Replicate the command `head || payload`; resolves once it is committed
  /// AND applied on this replica, after StateMachine::Apply wrote its outcome
  /// into `*out` (when given; `out` must outlive the await). Returns
  /// NotLeader (with leader_hint) when this replica is not the leader. Bulk
  /// bytes passed as `payload` ride every log copy, replication leg and WAL
  /// chunk by reference and reach Apply as the same Buffer. A traced caller
  /// passes its span context: the whole consensus round runs under a
  /// "raft:propose" span with "raft:batch" (group-commit WAL flush) and
  /// "raft:apply" children.
  sim::Task<Status> Propose(std::string head, Buffer payload = {},
                            obs::TraceContext trace = {}, ApplyOutcome* out = nullptr);

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

  /// Test hook: a running follower stands for election now.
  void TriggerElection();

 private:
  /// A waiting proposer, living in its Propose() frame. propose_queue_
  /// points at it until the batcher assigns an index, then pending_ until
  /// the entry is committed+applied (or failed over). Whoever resolves it
  /// unregisters it in the same step; a proposer that times out unregisters
  /// it before its frame dies.
  struct ProposeWaiter {
    ProposeWaiter(sim::Scheduler* s, ApplyOutcome* o) : done(s), out(o) {}
    sim::Promise<Status> done;
    Index index = 0;          // 0 until the batcher assigns one
    ApplyOutcome* out;        // proposer's outcome slot
    obs::TraceContext trace;  // propose-span context; batch/apply spans chain here
  };

  sim::Scheduler& sched() { return *net_->scheduler(); }
  int Majority() const { return static_cast<int>(peers_.size() / 2 + 1); }
  SimDuration RandomElectionTimeout();

  /// Incarnation `gen` still runs (and leads, in `term`): what each loop
  /// re-checks after an await.
  bool Live(uint64_t gen) const { return running_ && gen_ == gen; }
  bool Leads(uint64_t gen) const { return Live(gen) && role_ == Role::kLeader; }
  bool Leads(uint64_t gen, Term term) const { return Leads(gen) && log_.term() == term; }

  sim::Task<void> ElectionLoop(uint64_t gen);
  sim::Task<void> RunElection(uint64_t gen);
  void BecomeFollower(NodeId leader);
  void BecomeLeader();
  sim::Task<void> AppendNoop();
  sim::Task<void> PersistTerm(Term term, NodeId voted_for);
  /// Step down to a higher `term` seen in a message; persist it in the
  /// background.
  void AdoptTerm(Term term, NodeId leader);
  /// Prologue of AppendEntries and InstallSnapshot: false refuses a stale
  /// or stopped call; else persist a higher term and follow `leader`.
  sim::Task<bool> AcceptLeader(Term term, NodeId leader, Term* reply_term);

  /// Ensure the batcher coroutine is draining the propose queue.
  void KickBatcher();
  sim::Task<void> BatcherLoop(uint64_t gen);

  /// Ensure a replication pump is running toward `peer`.
  void KickPeer(NodeId peer);
  sim::Task<void> PeerPump(NodeId peer, Term my_term, uint64_t gen);
  sim::Task<bool> SendSnapshotTo(NodeId peer, Term my_term);
  void Acked(NodeId peer, Index index);  // `peer` holds the log up to `index`
  /// Kick each peer's pump, then commit what a majority holds.
  void ReplicateAndCommit();

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

  /// The leader's view of each other replica. Entries appear when this
  /// replica first leads, so a replica that never led holds none.
  struct Peer {
    Index next = 0;        // next index to send
    Index match = 0;       // highest index known replicated there
    bool pumping = false;  // a PeerPump toward it is running
  };
  std::map<NodeId, Peer> replicas_;

  /// Leader-side group commit: commands awaiting a batch slot. Heads are
  /// adopted into shared Buffers at Propose(), so the batcher, log store and
  /// every replication leg share one allocation per command (and the
  /// proposer's payload Buffer itself).
  struct QueuedProposal {
    Buffer head;
    Buffer payload;
    ProposeWaiter* waiter;
  };
  std::deque<QueuedProposal> propose_queue_;
  /// Generation whose batcher is running (0: none). Scoped to one
  /// incarnation: a batcher parked in a WAL write across a crash and
  /// Recover() neither blocks the new incarnation's batcher nor clears its
  /// flag.
  uint64_t batcher_gen_ = 0;
  /// Entry vector capacity kept between batches. The batcher swaps it into
  /// its frame for one batch and back afterwards, so no reference into a
  /// member crosses the WAL write.
  std::vector<LogEntry> batch_entries_;
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
  /// registers a whole batch before its single Append await. Indices arrive
  /// in increasing order, so a sorted vector appends at its end.
  FlatMap<Index, std::pair<Term, ProposeWaiter*>> pending_;

  sim::Notifier apply_notifier_;
  bool compacting_ = false;
  bool running_ = false;
  uint64_t gen_ = 0;  // bumped on Stop/Recover; loops from old gens exit
};

}  // namespace cfs::raft
