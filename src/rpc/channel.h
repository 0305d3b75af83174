// Channel: the one place in the codebase that issues a raw Network::Call.
// Every leg is metered into the sending host's registry (outcome + latency
// under "rpc.<kRpcName>.", see sim::RpcMeter). Call sites outside src/rpc/
// must go through a Channel or a service stub — the analyzer's rule R4
// (raw-rpc, `python3 -m tools.analyze`) enforces it.
#pragma once

#include <functional>
#include <typeinfo>
#include <utility>

#include "common/status.h"
#include "sim/network.h"

namespace cfs::rpc {

/// Responses carrying an application-level Status get NotLeader legs metered
/// separately; protocol responses without one (the raft wire messages encode
/// rejection in protocol fields like `granted`/`success`) meter as plain Ok.
template <typename T>
concept HasStatusField = requires(const T& t) {
  { t.status.IsNotLeader() } -> std::convertible_to<bool>;
};

/// Requests carrying a tenant label get it stamped from the channel's bound
/// tenant (per-mount channels bind their volume id after Mount resolves it),
/// the same way trace contexts propagate. Explicit labels win; unlabeled
/// requests on an unbound channel stay 0.
template <typename T>
concept HasTenantField = requires(T& t) {
  { t.tenant } -> std::convertible_to<uint64_t>;
};

class Channel {
 public:
  explicit Channel(sim::Network* net) : net_(net) {}

  sim::Network* net() const { return net_; }

  /// Host `from`'s metrics for request type Req ("rpc.<kRpcName>.*").
  template <typename Req>
  sim::RpcMeter& meter(sim::NodeId from) const {
    return net_->host(from)->rpc_meter(sim::MsgTypeIdOf<Req>());
  }

  /// Bind a tenant label (= VolumeId); every subsequent request whose struct
  /// has a `tenant` field and hasn't set one gets it stamped on send.
  void set_tenant(uint64_t tenant) { tenant_ = tenant; }
  uint64_t tenant() const { return tenant_; }

  /// Passive per-leg hook: (destination, ok, latency, trace id). Invoked
  /// synchronously right after the leg is metered — pure observation, never
  /// a scheduler event. Health telemetry taps this to score peers.
  using PeerObserver = std::function<void(sim::NodeId, bool, SimDuration, uint64_t)>;
  void set_peer_observer(PeerObserver obs) { peer_observer_ = std::move(obs); }

  /// One metered RPC leg; no retries, no routing. Plain function forwarding
  /// by value into the Impl coroutine. That alone does not make a braced
  /// request argument safe: see the gcc 12 rule at sim/network.h
  /// Network::Call.
  ///
  /// Traced callers pass `parent`: the leg runs under an "rpc:<name>" span
  /// whose context is stamped onto the request (when the request struct has
  /// a `trace` field), so the receiving host's handler span chains to it.
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> Unary(sim::NodeId from, sim::NodeId to, Req req,
                                SimDuration timeout = sim::kDefaultRpcTimeout,
                                obs::TraceContext parent = {}) {
    return UnaryImpl<Req, Resp>(from, to, std::move(req), timeout, parent);
  }

 private:
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> UnaryImpl(sim::NodeId from, sim::NodeId to, Req req,
                                    SimDuration timeout, obs::TraceContext parent) {
    sim::Scheduler* sched = net_->scheduler();
    obs::Tracer& tracer = sched->tracer();
    obs::SpanRef leg;
    if (tracer.enabled() && parent.valid()) {
      // Interned per-type label (sim/msg_type.h): no per-call concatenation.
      leg = tracer.BeginSpan(sim::MsgSpanRpc<Req>(), parent, from);
    }
    if constexpr (sim::HasTraceContext<Req>) {
      if (leg.valid()) req.trace = leg.ctx;
    }
    if constexpr (HasTenantField<Req>) {
      if (req.tenant == 0 && tenant_ != 0) req.tenant = tenant_;
    }
    const SimTime start = sched->Now();
    auto r = co_await net_->Call<Req, Resp>(from, to, std::move(req), timeout);  // lint:allow(raw-rpc)
    const SimDuration latency = sched->Now() - start;
    sim::RpcMeter& m = meter<Req>(from);
    m.latency.Add(latency);
    if (!r.ok()) {
      m.timeout++;
      tracer.Note(leg, "ok", 0);
    } else if constexpr (HasStatusField<Resp>) {
      if (r->status.IsNotLeader()) {
        m.not_leader++;
        tracer.Note(leg, "not_leader", 1);
      } else {
        m.ok++;
      }
    } else {
      m.ok++;
    }
    if (peer_observer_) peer_observer_(to, r.ok(), latency, parent.trace_id);
    tracer.End(leg);
    co_return std::move(r);
  }

  sim::Network* net_;
  uint64_t tenant_ = 0;
  PeerObserver peer_observer_;
};

}  // namespace cfs::rpc
