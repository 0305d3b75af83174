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
// (disk persistence, RPCs). After any await, leadership/term/generation are
// re-checked before acting.
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
      static_cast<uint64_t>(opts_.election_timeout_min),
      static_cast<uint64_t>(opts_.election_timeout_max)));
}

void RaftNode::Start() {
  running_ = true;
  gen_++;
  election_deadline_ = sched().Now() + RandomElectionTimeout();
  Spawn(ElectionLoop(gen_));
  Spawn(ApplyLoop(gen_));
}

void RaftNode::Stop() {
  running_ = false;
  gen_++;
  FailPendingProposals(Status::Unavailable("raft node stopped"));
  apply_notifier_.NotifyAll();  // wake the apply loop so it observes gen_
}

sim::Task<Status> RaftNode::Recover() {
  gen_++;  // kill any loops from the previous incarnation
  running_ = false;
  FailPendingProposals(Status::Unavailable("raft node restarting"));
  apply_notifier_.NotifyAll();
  role_ = Role::kFollower;
  leader_ = sim::kInvalidNode;
  CFS_CO_RETURN_IF_ERROR(co_await log_.Load());
  if (log_.has_snapshot()) {
    sm_->Restore(log_.snapshot_data());
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
  const SimDuration tick = opts_.election_timeout_min / 5;
  while (running_ && gen_ == gen) {
    co_await SleepFor{sched(), tick};
    if (!running_ || gen_ != gen) break;
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

Task<void> RaftNode::RunElection(uint64_t gen) {
  role_ = Role::kCandidate;
  leader_ = sim::kInvalidNode;
  Term my_term = log_.term() + 1;
  election_deadline_ = sched().Now() + RandomElectionTimeout();
  co_await PersistTerm(my_term, self_);
  if (!running_ || gen_ != gen || log_.term() != my_term) co_return;

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
          self->self_, peer, req, self->opts_.rpc_timeout);
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

  auto v = co_await won.future().WithTimeout(opts_.election_timeout_min);
  tally->done = true;
  if (!running_ || gen_ != gen) co_return;
  if (v.value_or(false) && role_ == Role::kCandidate && log_.term() == my_term) {
    BecomeLeader();
  }
}

void RaftNode::BecomeFollower(Term term, NodeId leader) {
  role_ = Role::kFollower;
  leader_ = leader;
  election_deadline_ = sched().Now() + RandomElectionTimeout();
  (void)term;  // persisted by the caller where required
}

void RaftNode::StepDownIfStale(Term observed) {
  if (observed <= log_.term()) return;
  BecomeFollower(observed, sim::kInvalidNode);
  Spawn([](RaftNode* self, Term t) -> Task<void> {
    if (t > self->log_.term()) co_await self->PersistTerm(t, sim::kInvalidNode);
  }(this, observed));
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
    next_index_[peer] = log_.last_index() + 1;
    match_index_[peer] = 0;
  }
  // Commit a no-op entry from the new term so earlier-term entries become
  // committable (Raft §5.4.2).
  Spawn([](RaftNode* self) -> Task<void> {
    if (self->role_ != Role::kLeader) co_return;
    LogEntry noop{self->log_.term(), self->log_.last_index() + 1, {}};
    (void)co_await self->log_.Append(std::span<const LogEntry>(&noop, 1));
    for (NodeId peer : self->peers_) {
      if (peer != self->self_) self->KickPeer(peer);
    }
    self->AdvanceCommit();
  }(this));
  if (!propose_queue_.empty()) KickBatcher();
}

// --- Proposals -----------------------------------------------------------

Task<Status> RaftNode::Propose(std::string cmd, obs::TraceContext trace) {
  auto r = co_await ProposeIndexed(std::move(cmd), {}, trace);
  co_return r.status();
}

Task<Result<Index>> RaftNode::ProposeIndexed(std::string head, Buffer payload,
                                             obs::TraceContext trace) {
  if (!host_->up() || !running_) co_return Status::Unavailable("node down");
  if (role_ != Role::kLeader) {
    co_return Status::NotLeader(std::to_string(leader_));
  }
  auto w = std::make_shared<ProposeWaiter>(&sched());
  obs::Tracer& tracer = sched().tracer();
  obs::SpanRef propose_span;
  if (tracer.enabled() && trace.valid()) {
    propose_span = tracer.BeginSpan("raft:propose", trace, self_);
    tracer.Note(propose_span, "gid", static_cast<int64_t>(gid_));
    tracer.Note(propose_span, "queue_depth", static_cast<int64_t>(propose_queue_.size()));
    w->trace = propose_span.ctx;
  }
  propose_queue_.push_back({Buffer::FromString(std::move(head)), std::move(payload), w});
  gc_queue_high_watermark_ =
      std::max<int64_t>(gc_queue_high_watermark_, static_cast<int64_t>(propose_queue_.size()));
  // Spawn runs the batcher synchronously up to its first await (the log
  // disk write), so an uncontended proposal persists immediately — same
  // latency as the unbatched path.
  KickBatcher();

  auto st = co_await w->done.future().WithTimeout(opts_.propose_timeout);
  tracer.End(propose_span);  // covers enqueue -> commit+apply (or failure)
  if (!st) {
    w->cancelled = true;
    auto it = pending_.find(w->index);
    if (w->index != 0 && it != pending_.end() && it->second.second == w) {
      pending_.erase(it);
    }
    co_return Status::TimedOut("propose not committed in time");
  }
  if (!st->ok()) co_return *st;
  co_return w->index;
}

void RaftNode::KickBatcher() {
  if (batcher_running_) return;
  batcher_running_ = true;
  Spawn(BatcherLoop(gen_));
}

Task<void> RaftNode::BatcherLoop(uint64_t gen) {
  while (running_ && gen_ == gen && role_ == Role::kLeader && host_->up() &&
         !propose_queue_.empty()) {
    if (opts_.batch_linger > 0) {
      co_await SleepFor{sched(), opts_.batch_linger};
      if (!running_ || gen_ != gen || role_ != Role::kLeader || !host_->up()) break;
    }
    // Drain one batch: assign contiguous indices and register the whole
    // batch in pending_ synchronously (batch-atomic bookkeeping), then
    // persist with ONE Append. New proposals arriving during that disk
    // write queue up and form the next batch (natural batching).
    const Term my_term = log_.term();
    const size_t cap = std::max<size_t>(1, opts_.max_batch_proposals);
    std::vector<LogEntry> entries;
    std::vector<WaiterPtr> waiters;
    size_t bytes = 0;
    while (!propose_queue_.empty() && waiters.size() < cap) {
      QueuedProposal& q = propose_queue_.front();
      if (q.waiter->cancelled) {
        propose_queue_.pop_front();
        continue;
      }
      size_t size = q.head.size() + q.payload.size();
      if (!entries.empty() && bytes + size > opts_.max_batch_bytes) break;
      Index idx = log_.last_index() + entries.size() + 1;
      bytes += size;
      q.waiter->index = idx;
      pending_.emplace(idx, std::make_pair(my_term, q.waiter));
      waiters.push_back(q.waiter);
      entries.push_back(LogEntry{my_term, idx, std::move(q.head), std::move(q.payload)});
      propose_queue_.pop_front();
    }
    if (entries.empty()) continue;  // everything at the front was cancelled

    gc_batches_++;
    gc_proposals_ += entries.size();
    gc_batched_bytes_ += bytes;
    gc_max_batch_ = std::max<int64_t>(gc_max_batch_, static_cast<int64_t>(entries.size()));
    // Batch shapes: count = batches, sum/count = mean batch size (entries)
    // and mean WAL write (bytes).
    gc_batch_entries_.Add(static_cast<SimDuration>(entries.size()));
    gc_batch_bytes_.Add(static_cast<SimDuration>(bytes));

    // The batch's WAL flush runs under a "raft:batch" span chained to the
    // first traced proposer (one span per batch, annotated with its shape).
    obs::Tracer& tracer = sched().tracer();
    obs::SpanRef batch_span;
    if (tracer.enabled()) {
      for (const auto& w : waiters) {
        if (!w->trace.valid()) continue;
        batch_span = tracer.BeginSpan("raft:batch", w->trace, self_);
        tracer.Note(batch_span, "entries", static_cast<int64_t>(entries.size()));
        tracer.Note(batch_span, "bytes", static_cast<int64_t>(bytes));
        break;
      }
    }
    Status st = co_await log_.Append(std::span<const LogEntry>(entries), batch_span.ctx);
    tracer.End(batch_span);
    if (!running_ || gen_ != gen) co_return;
    if (!st.ok()) {
      for (auto& w : waiters) {
        auto it = pending_.find(w->index);
        if (it != pending_.end() && it->second.second == w) pending_.erase(it);
        w->done.Set(st);
      }
      continue;
    }
    if (role_ == Role::kLeader && log_.term() == my_term) {
      for (NodeId peer : peers_) {
        if (peer != self_) KickPeer(peer);
      }
      AdvanceCommit();  // single-replica groups commit immediately
    }
  }
  batcher_running_ = false;
  if (!running_ || gen_ != gen) co_return;
  // Leader-change failover: anything still queued never got an index here;
  // fail it so callers retry against the new leader.
  if (role_ != Role::kLeader) {
    FailQueuedProposals(Status::NotLeader(std::to_string(leader_)));
  }
}

void RaftNode::KickPeer(NodeId peer) {
  if (pump_active_[peer]) return;
  pump_active_[peer] = true;
  Spawn(PeerPump(peer, log_.term(), gen_));
}

Task<void> RaftNode::PeerPump(NodeId peer, Term my_term, uint64_t gen) {
  rpc::Backoff backoff(&sched(), rpc::RetryPolicy::RaftPump());
  while (running_ && gen_ == gen && role_ == Role::kLeader && log_.term() == my_term &&
         host_->up()) {
    Index next = next_index_[peer];
    if (next > log_.last_index()) break;  // caught up; pump goes idle

    if (next < log_.first_index()) {
      // Peer is behind the compacted prefix: ship the snapshot.
      bool ok = co_await SendSnapshotTo(peer, my_term);
      if (!running_ || gen_ != gen || role_ != Role::kLeader || log_.term() != my_term) break;
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
    for (Index i = next; i <= end; i++) req.entries.push_back(log_.At(i));

    auto r = co_await channel_->Unary<AppendReq, AppendResp>(
        self_, peer, std::move(req), opts_.rpc_timeout);
    if (!running_ || gen_ != gen || role_ != Role::kLeader || log_.term() != my_term) break;
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
      match_index_[peer] = std::max(match_index_[peer], r->match_hint);
      next_index_[peer] = match_index_[peer] + 1;
      AdvanceCommit();
    } else {
      Index hint = std::max<Index>(1, std::min(next - 1, r->match_hint));
      next_index_[peer] = hint;
    }
  }
  pump_active_[peer] = false;
  // New entries may have arrived while we were finishing; re-arm if so. The
  // host_->up() guard matters: without it a crashed leader would respawn a
  // pump that exits immediately, recursing until the stack blows.
  if (running_ && gen_ == gen && role_ == Role::kLeader && log_.term() == my_term &&
      host_->up() && next_index_[peer] <= log_.last_index()) {
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
      self_, peer, std::move(req), opts_.rpc_timeout * 4);
  if (!r.ok()) co_return false;
  if (r->term > my_term) {
    StepDownIfStale(r->term);
    co_return false;
  }
  if (r->ok) {
    match_index_[peer] = std::max(match_index_[peer], log_.snapshot_index());
    next_index_[peer] = match_index_[peer] + 1;
  }
  co_return r->ok;
}

void RaftNode::AdvanceCommit() {
  if (role_ != Role::kLeader) return;
  std::vector<Index> matches;
  matches.push_back(log_.last_index());  // self
  for (NodeId peer : peers_) {
    if (peer != self_) matches.push_back(match_index_[peer]);
  }
  std::sort(matches.begin(), matches.end(), std::greater<>());
  Index candidate = matches[Majority() - 1];
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
  while (running_ && gen_ == gen) {
    while (applied_ < commit_ && running_ && gen_ == gen) {
      Index idx = applied_ + 1;
      if (idx <= log_.snapshot_index()) {
        applied_ = log_.snapshot_index();
        continue;
      }
      if (!log_.Has(idx)) break;  // should not happen; wait for entries
      const LogEntry& e = log_.At(idx);
      if (!e.head.empty()) {  // a payload never travels without a head
        sm_->Apply(idx, e.head, e.payload);
      }
      applied_ = idx;
      obs::SpanRef apply_span;
      auto it = pending_.find(idx);
      if (it != pending_.end()) {
        obs::Tracer& tracer = sched().tracer();
        apply_span = tracer.BeginSpan("raft:apply", it->second.second->trace, self_);
        tracer.Note(apply_span, "index", static_cast<int64_t>(idx));
        Status st = it->second.first == e.term
                        ? Status::OK()
                        : Status::NotLeader("entry overwritten by new leader");
        it->second.second->done.Set(st);
        pending_.erase(it);
      }
      co_await host_->cpu().Use(2);  // apply cost
      sched().tracer().End(apply_span);
    }
    if (!running_ || gen_ != gen) break;
    co_await MaybeCompact();
    if (!running_ || gen_ != gen) break;
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
  std::string snap = sm_->TakeSnapshot();  // synchronous: consistent at applied_
  (void)co_await log_.SaveSnapshot(snap_at, snap_term, std::move(snap));
  compacting_ = false;
}

// --- Handlers (called via RaftHost) --------------------------------------

Task<VoteResp> RaftNode::OnVote(VoteReq req) {
  co_await host_->cpu().Use(opts_.cpu_per_message);
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
    BecomeFollower(term, sim::kInvalidNode);
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

Task<AppendResp> RaftNode::OnAppend(AppendReq req) {
  co_await host_->cpu().Use(opts_.cpu_per_message);
  AppendResp resp;
  resp.gid = gid_;
  resp.term = log_.term();
  if (!running_) co_return resp;

  if (req.term < log_.term()) {
    resp.success = false;
    co_return resp;
  }
  if (req.term > log_.term()) {
    co_await PersistTerm(req.term, sim::kInvalidNode);
  }
  BecomeFollower(req.term, req.leader);
  resp.term = req.term;

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

  // Append, resolving conflicts. All structural mutation is synchronous;
  // persistence cost is charged once at the end.
  Index last_new = req.prev_index;
  bool truncated = false;
  std::vector<LogEntry> to_append;
  for (auto& e : req.entries) {
    last_new = e.index;
    if (e.index <= log_.snapshot_index()) continue;  // covered by snapshot
    if (log_.Has(e.index)) {
      if (log_.TermAt(e.index) == e.term) continue;  // duplicate
      // Conflict: drop our divergent suffix (and fail proposals that lived
      // in it — they were overwritten by a newer leader).
      for (auto it = pending_.lower_bound(e.index); it != pending_.end();) {
        it->second.second->done.Set(Status::NotLeader("entry overwritten"));
        it = pending_.erase(it);
      }
      (void)co_await log_.TruncateFrom(e.index);
      truncated = true;
    }
    to_append.push_back(std::move(e));
  }
  (void)truncated;
  if (!to_append.empty()) {
    Status st = co_await log_.Append(std::span<const LogEntry>(to_append));
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
  co_await host_->cpu().Use(opts_.cpu_per_message);
  InstallSnapshotResp resp;
  resp.gid = gid_;
  resp.term = log_.term();
  if (!running_) co_return resp;
  if (req.term < log_.term()) co_return resp;
  if (req.term > log_.term()) {
    co_await PersistTerm(req.term, sim::kInvalidNode);
  }
  BecomeFollower(req.term, req.leader);
  resp.term = req.term;
  if (req.snap_index <= log_.snapshot_index()) {
    resp.ok = true;  // already have it
    co_return resp;
  }
  sm_->Restore(req.data);
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
    BecomeFollower(item.term, from);
    Spawn([](RaftNode* self, Term t) -> Task<void> {
      if (t > self->log_.term()) co_await self->PersistTerm(t, sim::kInvalidNode);
    }(this, item.term));
    return false;  // don't advance commit until the term is persisted
  }
  if (role_ == Role::kLeader) return false;  // self heartbeat echo; ignore
  BecomeFollower(item.term, from);
  // Commit advance is safe only when our tail is from the leader's term
  // (log matching property guarantees our prefix equals the leader's).
  if (log_.last_term() == item.term && item.commit > commit_) {
    commit_ = std::min(item.commit, log_.last_index());
    KickApply();
  }
  return false;
}

}  // namespace cfs::raft
