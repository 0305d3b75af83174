// Typed service stubs: call sites say WHAT they want (partition + request);
// the stub decides WHERE (Router: cached leader, hint, replica probe) and
// HOW OFTEN (RetryPolicy budget + backoff, bounded by a propagated
// Deadline), and meters every leg into the calling host's registry (via
// Channel), plus retries and failed logical calls.
//
// One retry loop (RoutedService::CallImpl) serves every replica group; the
// Router route picks the targets:
//   MasterService — route kMaster: resource-manager RPCs, probing the master
//                   replica group.
//   MetaService   — route kMeta: meta-partition RPCs with §2.4 leader
//                   caching and the §2.3.3 timeout-report hook.
//   DataService   — route kData: data-partition RPCs against the raft
//                   leader, plus ChainCall for chain-leader (replicas[0])
//                   one-shots.
//
// Retry semantics (the "one uniform budget" of this layer): a logical call
// gets policy.max_attempts legs; network failures and hintless NotLeader
// responses back off before the next leg, hinted redirects retry
// immediately. On termination without success the stub records
// retry-exhausted / deadline-exceeded and, when the failure pattern looks
// like a dead partition (>= kReportAfterRpcFailures network-level failures),
// fires the timeout-report hook so the master can mark the partition
// read-only (§2.3.3).
//
// All public entry points are plain functions forwarding by value into *Impl
// coroutines. A braced request with a string, vector, Buffer or map member
// still must not be written inside the co_await (the gcc 12 rule at
// sim/network.h Network::Call; analyzer check A5).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "obs/trace.h"
#include "rpc/channel.h"
#include "rpc/deadline.h"
#include "rpc/retry_policy.h"
#include "rpc/router.h"

namespace cfs::rpc {

struct CallOptions {
  Deadline deadline;                   // default: unbounded
  const RetryPolicy* policy = nullptr; // default: the service's policy
  obs::TraceContext trace;             // parent span for this logical call
};

/// Counter of legs issued by one stub, in the calling host's registry
/// (e.g. "client.meta_rpcs"); null when `name` is empty.
inline uint64_t* LegCounter(sim::Network* net, sim::NodeId self, std::string_view name) {
  return name.empty() ? nullptr : &net->host(self)->metrics().Counter(name);
}

/// Network-level failures on this many legs of one logical call trigger the
/// timeout-report hook (§2.3.3). One lost message is noise; a repeatedly
/// unreachable partition is reported.
inline constexpr int kReportAfterRpcFailures = 2;

/// A traced logical call runs under one "call:<rpc>" span; each leg chains
/// an "rpc:<rpc>" child under it (Channel) and retries are annotated here.
/// `span_name` is the interned "call:<name>" label (sim::MsgSpanCall<Req>()),
/// so starting a traced call performs no string concatenation.
inline obs::SpanScope BeginCallSpan(sim::Scheduler* sched, std::string_view span_name,
                                    const obs::TraceContext& parent, sim::NodeId self) {
  obs::Tracer& t = sched->tracer();
  if (t.enabled() && parent.valid()) {
    return obs::SpanScope(&t, t.BeginSpan(span_name, parent, self));
  }
  return {};
}

/// The one stub engine: leader-probing calls to a replica group — the master
/// group or one meta/data partition, chosen by the Route — with the
/// view-refresh and timeout-report hooks. The master route needs no view
/// and its owners set no hooks.
class RoutedService {
 public:
  using RefreshFn = std::function<sim::Task<Status>()>;
  using ReportFn = std::function<sim::Task<Status>(PartitionId)>;

  /// Re-fetch partition views when a pid has no view (non-mounted callers
  /// leave this unset and pre-populate the Router instead).
  void set_refresh(RefreshFn f) { refresh_ = std::move(f); }
  /// §2.3.3 exception handling: invoked when a logical call dies with
  /// repeated network-level failures, so the owner can report the partition
  /// to the master.
  void set_timeout_report(ReportFn f) { report_ = std::move(f); }
  /// Bind the mount's tenant label onto every outgoing request (Channel).
  void set_tenant(uint64_t tenant) { channel_.set_tenant(tenant); }
  const RetryPolicy& policy() const { return policy_; }

 protected:
  RoutedService(Route route, sim::Network* net, sim::NodeId self, Router* router,
                RetryPolicy policy, std::string_view leg_counter)
      : channel_(net),
        self_(self),
        router_(router),
        policy_(policy),
        route_(route),
        legs_(LegCounter(net, self, leg_counter)) {}

  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> CallImpl(PartitionId pid, Req req, CallOptions opts) {
    const RetryPolicy& policy = opts.policy ? *opts.policy : policy_;
    sim::Scheduler* sched = channel_.net()->scheduler();
    obs::SpanScope call = BeginCallSpan(sched, sim::MsgSpanCall<Req>(), opts.trace, self_);
    CFS_CO_RETURN_IF_ERROR((co_await EnsureView(pid)));
    Backoff backoff(sched, policy);
    int rpc_failures = 0;
    // `last` stays OK until a leg actually fails; the error message is built
    // lazily at exit so the no-failure path never pays for the string.
    Status last;
    while (backoff.NextAttempt()) {
      if (opts.deadline.Expired(sched->Now())) {
        channel_.meter<Req>(self_).deadline_exceeded++;
        MaybeReport(pid, rpc_failures);
        co_return Status::TimedOut("deadline exceeded on " + GroupName(pid));
      }
      sim::NodeId target = router_->Target(route_, pid, backoff.attempt());
      if (target == sim::kInvalidNode) break;
      if (legs_) (*legs_)++;
      if (backoff.attempt() > 0) {
        channel_.meter<Req>(self_).retries++;
        call.Note("retry", backoff.attempt());
      }
      auto r = co_await channel_.Unary<Req, Resp>(
          self_, target, req, opts.deadline.ClampTimeout(sched->Now(), policy.rpc_timeout),
          call.ctx());
      if (!r.ok()) {
        rpc_failures++;
        router_->LegFailed(route_, pid, target);
        last = r.status();
        co_await backoff.Delay();
        continue;
      }
      if (r->status.IsNotLeader()) {
        last = r->status;
        if (!router_->ApplyRedirect(route_, pid, r->status)) co_await backoff.Delay();
        continue;
      }
      router_->Confirmed(route_, pid, target);
      co_return std::move(*r);
    }
    channel_.meter<Req>(self_).retry_exhausted++;
    MaybeReport(pid, rpc_failures);
    if (last.ok()) last = Status::TimedOut(GroupName(pid) + " unreachable");
    co_return last;
  }

  sim::Task<Status> EnsureView(PartitionId pid) {
    return EnsureViewImpl(pid);
  }

  std::string GroupName(PartitionId pid) const {
    switch (route_) {
      case Route::kMaster: return "master group";
      case Route::kMeta: return "meta partition " + std::to_string(pid);
      case Route::kData: return "data partition " + std::to_string(pid);
    }
    return {};
  }

  Channel channel_;
  sim::NodeId self_;
  Router* router_;
  RetryPolicy policy_;
  Route route_;
  uint64_t* legs_;
  RefreshFn refresh_;
  ReportFn report_;

 private:
  sim::Task<Status> EnsureViewImpl(PartitionId pid) {
    if (router_->HasView(route_, pid)) co_return Status::OK();
    if (refresh_) (void)co_await refresh_();
    if (router_->HasView(route_, pid)) co_return Status::OK();
    co_return Status::NotFound(GroupName(pid));
  }

  /// Fire-and-forget: the report is an asynchronous exception signal to the
  /// master, and must not hold the failing call past its deadline.
  void MaybeReport(PartitionId pid, int rpc_failures) {
    if (report_ && rpc_failures >= kReportAfterRpcFailures) {
      sim::Spawn(DiscardStatus(report_(pid)));
    }
  }

  static sim::Task<void> DiscardStatus(sim::Task<Status> t) {
    (void)co_await std::move(t);
  }
};

class MasterService : public RoutedService {
 public:
  /// `leg_counter` names a counter bumped per leg issued (see LegCounter).
  MasterService(sim::Network* net, sim::NodeId self, Router* router,
                RetryPolicy policy = RetryPolicy::Control(), std::string_view leg_counter = {})
      : RoutedService(Route::kMaster, net, self, router, policy, leg_counter) {}

  /// Resource-manager RPC, probing the master replicas until the leader
  /// answers.
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> Call(Req req, CallOptions opts = {}) {
    return CallImpl<Req, Resp>(0, std::move(req), opts);
  }
};

class MetaService : public RoutedService {
 public:
  MetaService(sim::Network* net, sim::NodeId self, Router* router,
              RetryPolicy policy = RetryPolicy::Control(), std::string_view leg_counter = {})
      : RoutedService(Route::kMeta, net, self, router, policy, leg_counter) {}

  /// Meta RPC to the partition's raft leader with NotLeader redirect +
  /// retry; keeps the leader cache current (§2.4).
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> Call(PartitionId pid, Req req, CallOptions opts = {}) {
    return CallImpl<Req, Resp>(pid, std::move(req), opts);
  }
};

class DataService : public RoutedService {
 public:
  DataService(sim::Network* net, sim::NodeId self, Router* router,
              RetryPolicy policy = RetryPolicy::Data(), std::string_view leg_counter = {})
      : RoutedService(Route::kData, net, self, router, policy, leg_counter) {}

  /// Data RPC to the partition's raft leader, probing replicas one by one
  /// and caching the last identified leader (§2.4).
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> Call(PartitionId pid, Req req, CallOptions opts = {}) {
    return CallImpl<Req, Resp>(pid, std::move(req), opts);
  }

  /// One-shot RPC to the partition's chain leader (replicas[0], §2.7.1). No
  /// retries: append placement reacts to a failed chain call by resending to
  /// a DIFFERENT partition (§2.2.5), which is the caller's loop to drive.
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> ChainCall(PartitionId pid, Req req, CallOptions opts = {}) {
    return ChainCallImpl<Req, Resp>(pid, std::move(req), opts);
  }

 private:
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> ChainCallImpl(PartitionId pid, Req req, CallOptions opts) {
    const RetryPolicy& policy = opts.policy ? *opts.policy : policy_;
    sim::Scheduler* sched = channel_.net()->scheduler();
    CFS_CO_RETURN_IF_ERROR((co_await EnsureView(pid)));
    master::DataPartitionView* view = router_->DataView(pid);
    if (!view || view->replicas.empty()) co_return Status::NotFound(GroupName(pid));
    if (opts.deadline.Expired(sched->Now())) {
      channel_.meter<Req>(self_).deadline_exceeded++;
      co_return Status::TimedOut("deadline exceeded on " + GroupName(pid));
    }
    if (legs_) (*legs_)++;
    auto r = co_await channel_.Unary<Req, Resp>(
        self_, view->replicas[0], std::move(req),
        opts.deadline.ClampTimeout(sched->Now(), policy.rpc_timeout), opts.trace);
    co_return std::move(r);
  }
};

}  // namespace cfs::rpc
