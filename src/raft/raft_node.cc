#include "raft/raft_node.h"

#include <algorithm>

#include "common/logging.h"
#include "rpc/retry_policy.h"

namespace cfs::raft {

using sim::SleepFor;
using sim::Spawn;
using sim::Task;

// Concurrency rule used throughout this file: all structural state mutation
// happens synchronously (between awaits); co_await is used only for timing
// (disk persistence, RPCs). After any await, generation (Live) and
// leadership/term (Leads) are re-checked before acting.
//
// Index-assignment rule (group commit): a log index is valid only if it is
// computed and handed to LogStore::Append with NO intervening await —
// Append pushes entries into the in-memory log synchronously before
// awaiting the disk write, so concurrent appenders (batcher, BecomeLeader
// no-op) always see a current last_index().

RaftNode::RaftNode(const RaftOptions& opts, GroupId gid, NodeId self, std::vector<NodeId> peers,
                   sim::Network* net, sim::Host* host, sim::Disk* disk, StateMachine* sm,
                   rpc::Channel* channel)
    : opts_(opts),
      gid_(gid),
      self_(self),
      peers_(std::move(peers)),
      net_(net),
      host_(host),
      sm_(sm),
      channel_(channel),
      log_(host, disk, gid),
      gc_batches_(host->metrics().Counter("raft.gc.batches")),
      gc_proposals_(host->metrics().Counter("raft.gc.proposals")),
      gc_batched_bytes_(host->metrics().Counter("raft.gc.batched_bytes")),
      gc_max_batch_(host->metrics().Gauge("raft.gc.max_batch")),
      gc_queue_high_watermark_(host->metrics().Gauge("raft.gc.queue_high_watermark")),
      gc_batch_entries_(host->metrics().Hist("raft.gc.batch_entries")),
      gc_batch_bytes_(host->metrics().Hist("raft.gc.batch_bytes")),
      apply_notifier_(net->scheduler()) {}

SimDuration RaftNode::RandomElectionTimeout() {
  return static_cast<SimDuration>(sched().rng().Range(
      static_cast<uint64_t>(kElectionTimeoutMin), static_cast<uint64_t>(kElectionTimeoutMax)));
}

void RaftNode::Start() {
  running_ = true;
  gen_++;
  election_deadline_ = sched().Now() + RandomElectionTimeout();
  Spawn(ElectionLoop(gen_));
  Spawn(ApplyLoop(gen_));
}

sim::Task<Status> RaftNode::Recover() {
  host_->metrics().Add("raft.recoveries");
  gen_++;  // kill any loops from the previous incarnation
  running_ = false;
  FailPendingProposals(Status::Unavailable("raft node restarting"));
  apply_notifier_.NotifyAll();
  role_ = Role::kFollower;
  leader_ = sim::kInvalidNode;
  CFS_CO_RETURN_IF_ERROR(co_await log_.Load());
  if (log_.has_snapshot()) {
    CFS_CO_RETURN_IF_ERROR(sm_->Restore(log_.snapshot_data().view()));
  }
  // Volatile indices restart at the snapshot boundary; commit is re-learned
  // from the current leader.
  applied_ = log_.snapshot_index();
  commit_ = log_.snapshot_index();
  Start();
  co_return Status::OK();
}

void RaftNode::FailPendingProposals(const Status& status) {
  for (auto& [idx, p] : pending_) p.second->done.Set(status);
  pending_.clear();
  FailQueuedProposals(status);
}

void RaftNode::FailQueuedProposals(const Status& status) {
  for (auto& q : propose_queue_) q.waiter->done.Set(status);
  propose_queue_.clear();
}

// --- Election ------------------------------------------------------------

Task<void> RaftNode::ElectionLoop(uint64_t gen) {
  const SimDuration tick = kElectionTimeoutMin / 5;
  while (Live(gen)) {
    co_await SleepFor{sched(), tick};
    if (!Live(gen)) break;
    if (!host_->up()) {
      election_deadline_ = sched().Now() + RandomElectionTimeout();
      continue;
    }
    if (role_ == Role::kLeader) continue;
    if (sched().Now() >= election_deadline_) {
      co_await RunElection(gen);
    }
  }
}

void RaftNode::TriggerElection() {
  if (running_ && role_ == Role::kFollower) Spawn(RunElection(gen_));
}

Task<void> RaftNode::RunElection(uint64_t gen) {
  role_ = Role::kCandidate;
  leader_ = sim::kInvalidNode;
  Term my_term = log_.term() + 1;
  election_deadline_ = sched().Now() + RandomElectionTimeout();
  co_await PersistTerm(my_term, self_);
  if (!Live(gen) || log_.term() != my_term) co_return;

  struct Tally {
    int votes = 1;  // self
    bool done = false;
  };
  auto tally = std::make_shared<Tally>();
  sim::Promise<bool> won(&sched());

  for (NodeId peer : peers_) {
    if (peer == self_) continue;
    VoteReq req{gid_, my_term, self_, log_.last_index(), log_.last_term()};
    Spawn([](RaftNode* self, NodeId peer, VoteReq req, std::shared_ptr<Tally> tally,
             sim::Promise<bool> won, Term my_term) -> Task<void> {
      auto r = co_await self->channel_->Unary<VoteReq, VoteResp>(
          self->self_, peer, req, kRpcTimeout);
      if (!r.ok() || tally->done) co_return;
      if (r->term > my_term) {
        tally->done = true;
        self->StepDownIfStale(r->term);
        won.Set(false);
        co_return;
      }
      if (r->granted && self->role_ == Role::kCandidate && self->log_.term() == my_term) {
        tally->votes++;
        if (tally->votes >= self->Majority()) {
          tally->done = true;
          won.Set(true);
        }
      }
    }(this, peer, req, tally, won, my_term));
  }
  if (Majority() == 1) won.Set(true);  // single-replica group

  auto v = co_await won.future().WithTimeout(kElectionTimeoutMin);
  tally->done = true;
  if (!Live(gen)) co_return;
  if (v.value_or(false) && role_ == Role::kCandidate && log_.term() == my_term) {
    BecomeLeader();
  }
}

void RaftNode::BecomeFollower(NodeId leader) {
  role_ = Role::kFollower;
  leader_ = leader;
  election_deadline_ = sched().Now() + RandomElectionTimeout();
}

void RaftNode::AdoptTerm(Term term, NodeId leader) {
  BecomeFollower(leader);
  Spawn([](RaftNode* self, Term t) -> Task<void> {
    if (t > self->log_.term()) co_await self->PersistTerm(t, sim::kInvalidNode);
  }(this, term));
}

void RaftNode::StepDownIfStale(Term observed) {
  if (observed > log_.term()) AdoptTerm(observed, sim::kInvalidNode);
}

Task<void> RaftNode::PersistTerm(Term term, NodeId voted_for) {
  (void)co_await log_.SaveHardState(term, voted_for);
}

void RaftNode::BecomeLeader() {
  role_ = Role::kLeader;
  leader_ = self_;
  LOG_DEBUG("raft group ", gid_, " node ", self_, " became leader, term ", log_.term());
  for (NodeId peer : peers_) {
    if (peer == self_) continue;
    Peer& p = replicas_[peer];
    p.next = log_.last_index() + 1;
    p.match = 0;
  }
  Spawn(AppendNoop());
  if (!propose_queue_.empty()) KickBatcher();
}

// Commit a no-op entry from the new term so earlier-term entries become
// committable (Raft §5.4.2).
Task<void> RaftNode::AppendNoop() {
  LogEntry noop{log_.term(), log_.last_index() + 1, {}};
  (void)co_await log_.Append(std::span<const LogEntry>(&noop, 1));
  ReplicateAndCommit();
}

// --- Proposals -----------------------------------------------------------

Task<Status> RaftNode::Propose(std::string head, Buffer payload, obs::TraceContext trace,
                               ApplyOutcome* out) {
  if (!host_->up() || !running_) co_return Status::Unavailable("node down");
  if (role_ != Role::kLeader) {
    co_return Status::NotLeader(std::to_string(leader_));
  }
  ProposeWaiter w(&sched(), out);
  obs::Tracer& tracer = sched().tracer();
  obs::SpanRef propose_span;
  if (tracer.enabled() && trace.valid()) {
    propose_span = tracer.BeginSpan("raft:propose", trace, self_);
    tracer.Note(propose_span, "gid", static_cast<int64_t>(gid_));
    tracer.Note(propose_span, "queue_depth", static_cast<int64_t>(propose_queue_.size()));
    w.trace = propose_span.ctx;
  }
  propose_queue_.push_back({Buffer::FromString(std::move(head)), std::move(payload), &w});
  gc_queue_high_watermark_ =
      std::max<int64_t>(gc_queue_high_watermark_, static_cast<int64_t>(propose_queue_.size()));
  // Spawn runs the batcher synchronously up to its first await (the log
  // disk write), so an uncontended proposal persists immediately — same
  // latency as the unbatched path.
  KickBatcher();

  auto st = co_await w.done.future().WithTimeout(opts_.propose_timeout);
  tracer.End(propose_span);  // covers enqueue -> commit+apply (or failure)
  if (!st) {
    // The waiter (and the caller's outcome slot) dies with this frame:
    // unregister it, so a late batch or apply finds nothing to write into.
    if (w.index == 0) {
      auto it = std::find_if(propose_queue_.begin(), propose_queue_.end(),
                             [&w](const QueuedProposal& q) { return q.waiter == &w; });
      if (it != propose_queue_.end()) propose_queue_.erase(it);
    } else {
      auto it = pending_.find(w.index);
      if (it != pending_.end() && it->second.second == &w) pending_.erase(it);
    }
    co_return Status::TimedOut("propose not committed in time");
  }
  co_return *st;
}

void RaftNode::KickBatcher() {
  if (batcher_gen_ == gen_) return;
  batcher_gen_ = gen_;
  Spawn(BatcherLoop(gen_));
}

Task<void> RaftNode::BatcherLoop(uint64_t gen) {
  std::vector<LogEntry> entries;
  while (Leads(gen) && host_->up() && !propose_queue_.empty()) {
    // Drain one batch: assign contiguous indices and register the whole
    // batch in pending_ synchronously (batch-atomic bookkeeping), then
    // persist with ONE Append. New proposals arriving during that disk
    // write queue up and form the next batch (natural batching).
    const Term my_term = log_.term();
    const size_t cap = std::max<size_t>(1, opts_.max_batch_proposals);
    entries.swap(batch_entries_);
    size_t bytes = 0;
    obs::TraceContext first_trace;  // first traced proposer in the batch
    while (!propose_queue_.empty() && entries.size() < cap) {
      QueuedProposal& q = propose_queue_.front();
      size_t size = q.head.size() + q.payload.size();
      if (!entries.empty() && bytes + size > kMaxBatchBytes) break;
      Index idx = log_.last_index() + entries.size() + 1;
      bytes += size;
      q.waiter->index = idx;
      if (!first_trace.valid()) first_trace = q.waiter->trace;
      pending_.emplace(idx, std::make_pair(my_term, q.waiter));
      entries.push_back(LogEntry{my_term, idx, std::move(q.head), std::move(q.payload)});
      propose_queue_.pop_front();
    }
    const Index first = entries.front().index;
    const size_t n = entries.size();

    gc_batches_++;
    gc_proposals_ += n;
    gc_batched_bytes_ += bytes;
    gc_max_batch_ = std::max<int64_t>(gc_max_batch_, static_cast<int64_t>(n));
    // Batch shapes: count = batches, sum/count = mean batch size (entries)
    // and mean WAL write (bytes).
    gc_batch_entries_.Add(static_cast<SimDuration>(n));
    gc_batch_bytes_.Add(static_cast<SimDuration>(bytes));

    // The batch's WAL flush runs under a "raft:batch" span chained to the
    // first traced proposer (one span per batch, annotated with its shape).
    obs::Tracer& tracer = sched().tracer();
    obs::SpanRef batch_span;
    if (tracer.enabled() && first_trace.valid()) {
      batch_span = tracer.BeginSpan("raft:batch", first_trace, self_);
      tracer.Note(batch_span, "entries", static_cast<int64_t>(n));
      tracer.Note(batch_span, "bytes", static_cast<int64_t>(bytes));
    }
    Status st = co_await log_.Append(std::span<const LogEntry>(entries), batch_span.ctx);
    tracer.End(batch_span);
    entries.clear();
    entries.swap(batch_entries_);
    if (!Live(gen)) break;
    if (!st.ok()) {
      // Fail the batch's proposers that are still waiting (one that timed
      // out meanwhile has unregistered itself).
      for (Index idx = first; idx < first + n; idx++) {
        auto it = pending_.find(idx);
        if (it == pending_.end() || it->second.first != my_term) continue;
        it->second.second->done.Set(st);
        pending_.erase(it);
      }
      continue;
    }
    if (Leads(gen, my_term)) ReplicateAndCommit();
  }
  if (batcher_gen_ == gen) batcher_gen_ = 0;
  if (!Live(gen)) co_return;
  // Leader-change failover: anything still queued never got an index here;
  // fail it so callers retry against the new leader.
  if (role_ != Role::kLeader) {
    FailQueuedProposals(Status::NotLeader(std::to_string(leader_)));
  }
}

void RaftNode::KickPeer(NodeId peer) {
  Peer& p = replicas_[peer];
  if (p.pumping) return;
  p.pumping = true;
  Spawn(PeerPump(peer, log_.term(), gen_));
}

void RaftNode::ReplicateAndCommit() {
  for (NodeId peer : peers_) {
    if (peer != self_) KickPeer(peer);
  }
  AdvanceCommit();  // single-replica groups commit immediately
}

void RaftNode::Acked(NodeId peer, Index index) {
  Peer& p = replicas_[peer];
  p.match = std::max(p.match, index);
  p.next = p.match + 1;
}

Task<void> RaftNode::PeerPump(NodeId peer, Term my_term, uint64_t gen) {
  rpc::Backoff backoff(&sched(), rpc::RetryPolicy::RaftPump());
  while (Leads(gen, my_term) && host_->up()) {
    const Index next = replicas_[peer].next;
    if (next > log_.last_index()) break;  // caught up; pump goes idle

    if (next < log_.first_index()) {
      // Peer is behind the compacted prefix: ship the snapshot.
      bool ok = co_await SendSnapshotTo(peer, my_term);
      if (!Leads(gen, my_term)) break;
      if (!ok) {
        backoff.NextAttempt();
        co_await backoff.Delay();
      } else {
        backoff.Reset();
      }
      continue;
    }

    AppendReq req;
    req.gid = gid_;
    req.term = my_term;
    req.leader = self_;
    req.prev_index = next - 1;
    req.prev_term = log_.TermAt(next - 1);
    req.commit = commit_;
    Index end = std::min(log_.last_index(), next + opts_.max_batch_entries - 1);
    req.entries.reserve(end - next + 1);
    for (Index i = next; i <= end; i++) req.entries.push_back(log_.At(i));

    auto r = co_await channel_->Unary<AppendReq, AppendResp>(self_, peer, std::move(req),
                                                              kRpcTimeout);
    if (!Leads(gen, my_term)) break;
    if (!r.ok()) {
      backoff.NextAttempt();
      co_await backoff.Delay();
      continue;
    }
    backoff.Reset();
    if (r->term > my_term) {
      StepDownIfStale(r->term);
      break;
    }
    if (r->success) {
      Acked(peer, r->match_hint);
      AdvanceCommit();
    } else {
      replicas_[peer].next = std::max<Index>(1, std::min(next - 1, r->match_hint));
    }
  }
  replicas_[peer].pumping = false;
  // New entries may have arrived while we were finishing; re-arm if so,
  // under the current incarnation and term: a pump that outlived `gen` or
  // `my_term` kept KickPeer out while this node led again. Without the
  // host_->up() guard a crashed leader would respawn pumps that exit at
  // once, blowing the stack.
  if (Leads(gen_) && host_->up() && replicas_[peer].next <= log_.last_index()) {
    KickPeer(peer);
  }
}

Task<bool> RaftNode::SendSnapshotTo(NodeId peer, Term my_term) {
  InstallSnapshotReq req;
  req.gid = gid_;
  req.term = my_term;
  req.leader = self_;
  req.snap_index = log_.snapshot_index();
  req.snap_term = log_.snapshot_term();
  req.data = log_.snapshot_data();
  auto r = co_await channel_->Unary<InstallSnapshotReq, InstallSnapshotResp>(
      self_, peer, std::move(req), kRpcTimeout * 4);
  if (!r.ok()) co_return false;
  if (r->term > my_term) {
    StepDownIfStale(r->term);
    co_return false;
  }
  if (r->ok) Acked(peer, log_.snapshot_index());
  co_return r->ok;
}

void RaftNode::AdvanceCommit() {
  if (role_ != Role::kLeader) return;
  // The highest index a majority holds: the largest match with at least
  // Majority() replicas at or beyond it. Quadratic over a handful of
  // replicas, and free of heap traffic.
  auto match_of = [this](NodeId p) { return p == self_ ? log_.last_index() : replicas_[p].match; };
  Index candidate = 0;
  for (NodeId p : peers_) {
    Index m = match_of(p);
    if (m <= candidate) continue;
    int holders = 0;
    for (NodeId q : peers_) holders += match_of(q) >= m ? 1 : 0;
    if (holders >= Majority()) candidate = m;
  }
  if (candidate > commit_ && log_.TermAt(candidate) == log_.term()) {
    commit_ = candidate;
    KickApply();
  }
}

// Dedicated apply loop (one per Start/Recover incarnation): drains
// [applied_+1, commit_], resolving waiters as their entries apply, then
// parks on apply_notifier_. Decoupling apply from commit advance means the
// state machine chews batch i while the batcher/pumps replicate batch i+1.
Task<void> RaftNode::ApplyLoop(uint64_t gen) {
  while (Live(gen)) {
    while (applied_ < commit_ && Live(gen)) {
      Index idx = applied_ + 1;
      if (idx <= log_.snapshot_index()) {
        applied_ = log_.snapshot_index();
        continue;
      }
      if (!log_.Has(idx)) break;  // should not happen; wait for entries
      const LogEntry& e = log_.At(idx);
      // A proposer whose term still matches gets the outcome written
      // straight into its slot; everyone else's apply writes nowhere.
      auto it = pending_.find(idx);
      bool same_term = it != pending_.end() && it->second.first == e.term;
      if (!e.head.empty()) {  // a payload never travels without a head
        sm_->Apply(idx, e.head, e.payload, same_term ? it->second.second->out : nullptr);
      }
      applied_ = idx;
      obs::SpanRef apply_span;
      if (it != pending_.end()) {
        obs::Tracer& tracer = sched().tracer();
        apply_span = tracer.BeginSpan("raft:apply", it->second.second->trace, self_);
        tracer.Note(apply_span, "index", static_cast<int64_t>(idx));
        Status st = same_term ? Status::OK()
                              : Status::NotLeader("entry overwritten by new leader");
        it->second.second->done.Set(st);
        pending_.erase(it);
      }
      co_await host_->cpu().Use(2);  // apply cost
      sched().tracer().End(apply_span);
    }
    if (!Live(gen)) break;
    co_await MaybeCompact();
    if (!Live(gen)) break;
    // Re-check before parking: commit may have advanced during the awaits
    // above, and Notifier wakeups are not sticky.
    if (applied_ >= commit_ || !log_.Has(applied_ + 1)) {
      co_await apply_notifier_.Wait();
    }
  }
}

Task<void> RaftNode::MaybeCompact() {
  if (compacting_) co_return;
  if (applied_ - log_.snapshot_index() < opts_.compaction_threshold) co_return;
  compacting_ = true;
  Index snap_at = applied_;
  Term snap_term = log_.TermAt(snap_at);
  // Synchronous: consistent at applied_.
  Buffer snap = sm_->TakeSnapshot();
  (void)co_await log_.SaveSnapshot(snap_at, snap_term, std::move(snap));
  compacting_ = false;
}

// --- Handlers (called via RaftHost) --------------------------------------

Task<VoteResp> RaftNode::OnVote(VoteReq req) {
  co_await host_->cpu().Use(kCpuPerMessage);
  VoteResp resp;
  resp.gid = gid_;
  if (!running_) {
    resp.term = log_.term();
    co_return resp;
  }
  Term term = log_.term();
  NodeId voted_for = log_.voted_for();
  if (req.term < term) {
    resp.term = term;
    resp.granted = false;
    co_return resp;
  }
  if (req.term > term) {
    term = req.term;
    voted_for = sim::kInvalidNode;
    BecomeFollower(sim::kInvalidNode);
  }
  bool log_ok = req.last_log_term > log_.last_term() ||
                (req.last_log_term == log_.last_term() && req.last_log_index >= log_.last_index());
  bool grant = log_ok && (voted_for == sim::kInvalidNode || voted_for == req.candidate);
  if (grant) {
    voted_for = req.candidate;
    election_deadline_ = sched().Now() + RandomElectionTimeout();
  }
  if (term != log_.term() || voted_for != log_.voted_for()) {
    co_await PersistTerm(term, voted_for);
  }
  resp.term = term;
  resp.granted = grant;
  co_return resp;
}

Task<bool> RaftNode::AcceptLeader(Term term, NodeId leader, Term* reply_term) {
  co_await host_->cpu().Use(kCpuPerMessage);
  *reply_term = log_.term();
  if (!running_ || term < log_.term()) co_return false;
  if (term > log_.term()) co_await PersistTerm(term, sim::kInvalidNode);
  BecomeFollower(leader);
  *reply_term = term;
  co_return true;
}

Task<AppendResp> RaftNode::OnAppend(AppendReq req) {
  AppendResp resp;
  resp.gid = gid_;
  if (!co_await AcceptLeader(req.term, req.leader, &resp.term)) co_return resp;

  // Consistency check against prev_index/prev_term. Anything at or below the
  // snapshot boundary is known committed and therefore matches.
  if (req.prev_index > log_.last_index()) {
    resp.success = false;
    resp.match_hint = log_.last_index() + 1;
    co_return resp;
  }
  if (req.prev_index > log_.snapshot_index() &&
      log_.TermAt(req.prev_index) != req.prev_term) {
    resp.success = false;
    resp.match_hint = req.prev_index;  // probe backwards
    co_return resp;
  }

  // Append, resolving conflicts. The entries to append are always a suffix
  // of req.entries: everything before it is covered by the snapshot or
  // already in the log with the same term.
  const Index last_new = req.entries.empty() ? req.prev_index : req.entries.back().index;
  size_t first_new = 0;
  while (first_new < req.entries.size()) {
    const Index idx = req.entries[first_new].index;
    if (idx > log_.snapshot_index() &&
        (!log_.Has(idx) || log_.TermAt(idx) != req.entries[first_new].term)) {
      break;
    }
    first_new++;
  }
  if (first_new < req.entries.size()) {
    const Index from = req.entries[first_new].index;
    if (log_.Has(from)) {
      // Conflict: drop our divergent suffix (and fail proposals that lived
      // in it — they were overwritten by a newer leader).
      for (auto it = pending_.lower_bound(from); it != pending_.end();) {
        it->second.second->done.Set(Status::NotLeader("entry overwritten"));
        it = pending_.erase(it);
      }
      (void)co_await log_.TruncateFrom(from);
    }
    Status st =
        co_await log_.Append(std::span<const LogEntry>(req.entries).subspan(first_new));
    if (!st.ok()) {
      resp.success = false;
      resp.match_hint = log_.last_index() + 1;
      co_return resp;
    }
  }

  if (req.commit > commit_) {
    commit_ = std::min(req.commit, last_new);
    KickApply();
  }
  resp.success = true;
  resp.match_hint = last_new;
  co_return resp;
}

Task<InstallSnapshotResp> RaftNode::OnInstallSnapshot(InstallSnapshotReq req) {
  InstallSnapshotResp resp;
  resp.gid = gid_;
  if (!co_await AcceptLeader(req.term, req.leader, &resp.term)) co_return resp;
  if (req.snap_index <= log_.snapshot_index()) {
    resp.ok = true;  // already have it
    co_return resp;
  }
  // A snapshot the state machine cannot decode is refused whole: the log
  // keeps its own snapshot and the leader sees ok=false.
  if (!sm_->Restore(req.data.view()).ok()) co_return resp;
  (void)co_await log_.InstallSnapshot(req.snap_index, req.snap_term, std::move(req.data));
  applied_ = std::max(applied_, log_.snapshot_index());
  commit_ = std::max(commit_, log_.snapshot_index());
  resp.ok = true;
  co_return resp;
}

bool RaftNode::OnHeartbeat(const HeartbeatItem& item, NodeId from) {
  if (!running_ || !host_->up()) return false;
  if (item.term < log_.term()) return true;  // stale leader
  if (item.term > log_.term()) {
    AdoptTerm(item.term, from);
    return false;  // don't advance commit until the term is persisted
  }
  if (role_ == Role::kLeader) return false;  // self heartbeat echo; ignore
  BecomeFollower(from);
  // Commit advance is safe only when our tail is from the leader's term
  // (log matching property guarantees our prefix equals the leader's).
  if (log_.last_term() == item.term && item.commit > commit_) {
    commit_ = std::min(item.commit, log_.last_index());
    KickApply();
  }
  return false;
}

}  // namespace cfs::raft
