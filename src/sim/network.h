// Simulated cluster network: hosts, typed RPC, latency/bandwidth modelling,
// partitions and message loss.
//
// An RPC is dispatched by request type: each Host registers one handler per
// request struct. Handlers are coroutines; the network charges NIC transfer
// time on both sides plus propagation latency, so large transfers (128 KB
// write packets) consume bandwidth and small control messages are
// latency-bound — exactly the distinction the paper's sequential-vs-random
// results hinge on.
//
// A call is a sim::Promise<Resp> (DESIGN.md "RPC transport"). The request
// event carries the request and the promise by value to the callee, whose
// handler table is indexed by the dense MsgTypeId (sim/msg_type.h); the
// reply event carries the promise and the response back and Sets it, which
// cancels the caller's timeout watchdog, so a call answered in time leaves
// no event behind. A message lives only in its scheduler closure: a drop, a
// dead host or a torn-down scheduler destroys it with the event. Closures,
// coroutine frames and promise states recycle through the FramePool, so a
// call allocates nothing in steady state (golden schedule hashes:
// tests/schedule_hash_test.cc, tests/network_test.cc).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/flat_map.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/disk.h"
#include "sim/msg_type.h"
#include "sim/resource.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace cfs::sim {

using NodeId = uint32_t;
constexpr NodeId kInvalidNode = 0;  // node ids are 1-based

constexpr SimDuration kDefaultRpcTimeout = 1 * kSec;

/// Size-on-the-wire of a message. Messages can report their own payload size
/// via a `WireBytes()` member; otherwise the in-memory size is used.
template <typename T>
concept HasWireBytes = requires(const T& t) {
  { t.WireBytes() } -> std::convertible_to<size_t>;
};

template <typename T>
size_t WireBytesOf(const T& v) {
  if constexpr (HasWireBytes<T>) {
    return v.WireBytes() + 64;  // + header
  } else {
    return sizeof(T) + 64;
  }
}

/// Requests carrying a TraceContext propagate it across the wire: the rpc
/// layer stamps it on send and the receiving host opens a handler span
/// under it. The field is inert (all zero) on untraced requests, so its
/// presence never changes scheduling.
template <typename T>
concept HasTraceContext = requires(const T& t) {
  { t.trace } -> std::convertible_to<obs::TraceContext>;
};

/// Durable per-node blob store: stands in for the node's local file system
/// (raft logs, snapshots, extent files survive a crash). Backed by a sorted
/// flat map so List() enumerates in name order — recovery paths iterate
/// the listing, and their scheduling order must not depend on hash layout.
///
/// Blobs are ropes (shared chunks + an owned tail): the raft WAL appends a
/// record per commit batch to a blob that grows to many MiB, and keeping it
/// contiguous meant geometric reallocation copied the whole log over and
/// over. Chunks are shared Buffers, so appending a raft overwrite payload
/// stores a reference to the client's bytes, not a copy; small records are
/// copied into the tail, which becomes a chunk at 64 KiB. Get() — recovery
/// only — compacts the rope back into the tail.
class StableStorage {
 public:
  void Put(const std::string& name, std::string data) {
    Blob& b = blobs_[name];
    b.chunks.clear();
    b.tail = std::move(data);
    b.size = b.tail.size();
  }
  void Append(const std::string& name, Buffer data) {
    Blob& b = blobs_[name];
    b.Seal();
    b.size += data.size();
    b.chunks.push_back(std::move(data));
  }
  void AppendBytes(const std::string& name, std::string_view bytes) {
    Blob& b = blobs_[name];
    b.size += bytes.size();
    b.tail.append(bytes);
    if (b.tail.size() >= 64 * 1024) b.Seal();
  }
  bool Get(const std::string& name, std::string* out) const {
    auto it = blobs_.find(name);
    if (it == blobs_.end()) return false;
    it->second.Compact();
    *out = it->second.tail;
    return true;
  }
  bool Has(const std::string& name) const { return blobs_.count(name) > 0; }
  void Delete(const std::string& name) { blobs_.erase(name); }
  std::vector<std::string> List(const std::string& prefix) const {
    std::vector<std::string> names;
    for (const auto& [k, v] : blobs_) {
      if (k.rfind(prefix, 0) == 0) names.push_back(k);
    }
    return names;
  }

 private:
  struct Blob {
    void Seal() {
      if (!tail.empty()) chunks.push_back(Buffer::FromString(std::exchange(tail, {})));
    }
    void Compact() const {
      if (chunks.empty()) return;
      std::string all;
      all.reserve(size);
      for (const Buffer& c : chunks) all.append(c.view());
      tail = std::move(all.append(tail));
      chunks.clear();
    }
    // Compaction is caching, not mutation: the logical value is unchanged.
    mutable std::vector<Buffer> chunks;
    mutable std::string tail;
    size_t size = 0;
  };
  FlatMap<std::string, Blob> blobs_;
};

struct HostOptions {
  int cpu_cores = 16;              // paper testbed: Xeon E5-2683V4, 16 cores
  int num_disks = 16;              // 16 x 960 GB SSD
  DiskOptions disk;
  uint64_t memory_bytes = 256ull * kGiB;  // 8 x 32 GB
};

class Network;

/// One message type's RPC metrics in one host's registry, under
/// "rpc.<name>.": leg outcomes (ok / timeout / not_leader), logical-call
/// terminations (retry_exhausted / deadline_exceeded), retry legs, and the
/// leg latency histogram (latency_usec). rpc::Channel and the service stubs
/// meter into the sending host's meter for the request type.
struct RpcMeter {
  RpcMeter(obs::Registry& r, const std::string& prefix)
      : ok(r.Counter(prefix + "ok")),
        timeout(r.Counter(prefix + "timeout")),
        not_leader(r.Counter(prefix + "not_leader")),
        retry_exhausted(r.Counter(prefix + "retry_exhausted")),
        deadline_exceeded(r.Counter(prefix + "deadline_exceeded")),
        retries(r.Counter(prefix + "retries")),
        latency(r.Hist(prefix + "latency_usec")) {}

  uint64_t& ok;
  uint64_t& timeout;
  uint64_t& not_leader;
  uint64_t& retry_exhausted;
  uint64_t& deadline_exceeded;
  uint64_t& retries;
  obs::Histogram& latency;
};

/// What a request event carries to the callee: the request and the
/// caller's promise, both by value. The handler that Host::Register stores
/// casts the type-erased delivery back to this one type, so Register and
/// Call must name the same Resp for a request type.
template <typename Req, typename Resp>
struct Delivery {
  Req req;
  Promise<Resp> reply;
};

/// A simulated machine: CPU, NIC accounting, disks, durable storage, and the
/// RPC handler registry. Hosts are never destroyed mid-simulation; a crash
/// marks the host down and bumps its epoch so in-flight handlers bail out.
class Host {
 public:
  Host(Scheduler* sched, NodeId id, const HostOptions& opts)
      : sched_(sched),
        id_(id),
        opts_(opts),
        cpu_(sched, opts.cpu_cores),
        nic_in_(sched, 1),
        nic_out_(sched, 1) {
    for (int i = 0; i < opts.num_disks; i++) {
      disks_.push_back(std::make_unique<Disk>(sched, opts.disk, id));
    }
  }

  NodeId id() const { return id_; }
  bool up() const { return up_; }
  uint64_t epoch() const { return epoch_; }

  void Crash() {
    up_ = false;
    epoch_++;
  }
  void Restart() {
    up_ = true;
    epoch_++;
    cpu_.Reset();
  }

  Resource& cpu() { return cpu_; }
  Resource& nic_in() { return nic_in_; }
  Resource& nic_out() { return nic_out_; }
  Disk* disk(int i) { return disks_[i].get(); }
  int num_disks() const { return static_cast<int>(disks_.size()); }
  StableStorage& storage() { return storage_; }
  const HostOptions& options() const { return opts_; }

  /// This host's metric registry: every component running here writes its
  /// counters, gauges and histograms into it (harness::Cluster::Metrics()
  /// merges them).
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  /// RPC metrics of message type `t`, resolved in the registry on the first
  /// use per (host, type); later calls index a flat table, no lookup.
  RpcMeter& rpc_meter(MsgTypeId t) {
    if (t >= rpc_meters_.size()) rpc_meters_.resize(t + 1);
    std::optional<RpcMeter>& m = rpc_meters_[t];
    if (!m) {
      m.emplace(metrics_, std::string("rpc.") + MsgTypeRegistry::Instance().info(t).name + ".");
    }
    return *m;
  }

  /// Tracked memory use (meta partitions report in; drives utilization-based
  /// placement, §2.3.1).
  uint64_t memory_used() const { return memory_used_; }
  void AddMemory(int64_t delta) {
    memory_used_ = static_cast<uint64_t>(static_cast<int64_t>(memory_used_) + delta);
  }
  double MemoryUtilization() const {
    return static_cast<double>(memory_used_) / static_cast<double>(opts_.memory_bytes);
  }
  double DiskUtilization() const {
    uint64_t used = 0, cap = 0;
    for (const auto& d : disks_) {
      used += d->used_bytes();
      cap += d->capacity_bytes();
    }
    return cap ? static_cast<double>(used) / static_cast<double>(cap) : 0.0;
  }
  /// A registered handler: `delivery` points at the Delivery<Req, Resp> of
  /// the request type it was registered for.
  using Handler = std::function<void(Network*, void* delivery, NodeId from)>;

  /// Register the coroutine handler for request type Req. `h` is
  /// `Task<Resp>(Req, NodeId from)`. Handlers live in a flat vector indexed
  /// by the dense MsgTypeId — delivery dispatch is one bounds check and an
  /// array load; the only handler-related allocation happens here, at
  /// registration. (Defined after Network below.)
  template <typename Req, typename Resp, typename F>
  void Register(F h);

  /// Remove all handlers (a decommissioned node).
  void ClearHandlers() { handlers_.clear(); }

  const Handler* FindHandler(MsgTypeId t) const {
    if (t >= handlers_.size() || !handlers_[t]) return nullptr;
    return &handlers_[t];
  }

 private:
  friend class Network;

  /// Every registered handler runs under a "handler:<rpc>" span when the
  /// request is traced: the one interception point that covers master, meta
  /// and data services alike. The request and the caller's promise are
  /// moved into this frame before it starts, so nothing it touches lives in
  /// the delivery event. `h` arrives by value (copied into the frame):
  /// ClearHandlers() while the handler is suspended cannot dangle it.
  template <typename Req, typename Resp, typename F>
  static Task<void> InvokeHandler(Host* self, Network* net, F h, Req req, NodeId from,
                                  Promise<Resp> reply);

  template <typename Req>
  obs::SpanScope OpenHandlerSpan(const Req& req) {
    if constexpr (HasTraceContext<Req>) {
      obs::Tracer& t = sched_->tracer();
      if (t.enabled() && req.trace.valid()) {
        return obs::SpanScope(&t, t.BeginSpan(MsgSpanHandler<Req>(), req.trace, id_));
      }
    }
    return {};
  }

  Scheduler* sched_;
  NodeId id_;
  HostOptions opts_;
  bool up_ = true;
  uint64_t epoch_ = 1;
  Resource cpu_;
  Resource nic_in_, nic_out_;
  std::vector<std::unique_ptr<Disk>> disks_;
  StableStorage storage_;
  uint64_t memory_used_ = 0;
  obs::Registry metrics_;
  std::vector<std::optional<RpcMeter>> rpc_meters_;  // indexed by MsgTypeId
  /// Flat handler table indexed by MsgTypeId. Ids are first-use-ordered and
  /// never iterated here — only point-indexed — so the (build-dependent)
  /// assignment order can't leak into scheduling decisions.
  std::vector<Handler> handlers_;
};

struct NetworkOptions {
  SimDuration base_latency_usec = 120;  // same-datacenter RTT/2 incl. stack
  SimDuration jitter_usec = 30;
  uint64_t bandwidth_mib = 117;  // 1000 Mbps ~= 117 MiB/s (paper testbed NIC)
};

class Network {
 public:
  Network(Scheduler* sched, const NetworkOptions& opts = {}) : sched_(sched), opts_(opts) {}

  Scheduler* scheduler() { return sched_; }

  Host* AddHost(const HostOptions& opts = {}) {
    NodeId id = static_cast<NodeId>(hosts_.size() + 1);
    hosts_.push_back(std::make_unique<Host>(sched_, id, opts));
    return hosts_.back().get();
  }

  Host* host(NodeId id) { return hosts_[id - 1].get(); }
  size_t num_hosts() const { return hosts_.size(); }

  /// Bidirectional partition between two nodes.
  void SetPartitioned(NodeId a, NodeId b, bool partitioned) {
    auto key = std::minmax(a, b);
    if (partitioned) {
      partitions_.insert(key);
    } else {
      partitions_.erase(key);
    }
  }
  bool IsPartitioned(NodeId a, NodeId b) const {
    return partitions_.count(std::minmax(a, b)) > 0;
  }

  /// Probability that any given message is dropped (failure injection).
  void SetDropProbability(double p) { drop_prob_ = p; }

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// Timeout-watchdog accounting: replies delivered in time cancel their
  /// watchdog; only genuinely lost/late calls let it fire.
  uint64_t rpc_timeouts_cancelled() const { return rpc_timeouts_cancelled_; }
  uint64_t rpc_timeouts_fired() const { return rpc_timeouts_fired_; }

  /// Calls issued and not yet resumed (answered or timed out).
  size_t rpc_calls_in_flight() const { return calls_in_flight_; }

  /// Awaitable returned by Call(): the caller's side of the call's promise,
  /// awaited with the call's timeout. Resolves to Result<Resp>, TimedOut on
  /// network-level failure, and settles the watchdog accounting.
  template <typename Resp>
  struct RpcAwaitable {
    using Wait = decltype(std::declval<Future<Resp>&>().WithTimeout(SimDuration{}));

    Network* net;
    NodeId to;
    Wait wait;

    bool await_ready() const noexcept { return wait.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { wait.await_suspend(h); }
    Result<Resp> await_resume() {
      net->calls_in_flight_--;
      std::optional<Resp> resp = wait.await_resume();
      if (resp.has_value()) {
        net->rpc_timeouts_cancelled_++;
        return std::move(*resp);
      }
      net->rpc_timeouts_fired_++;
      // Built lazily: the timeout path is the only one that pays for the
      // message string.
      return Status::TimedOut("rpc to node " + std::to_string(to));
    }
  };

  /// Issue a typed RPC. Network-level failures (timeout, drop, dead or
  /// partitioned destination) surface as Status::TimedOut; application-level
  /// errors travel inside Resp.
  ///
  /// This is the transport primitive, not the application API: service code
  /// goes through the rpc layer (src/rpc/ — rpc::Channel and the typed
  /// stubs), which adds deadlines, retry policy, leader routing and per-RPC
  /// metrics on top. Analyzer rule R4 (`python3 -m tools.analyze`) flags
  /// direct Call<> use outside src/rpc/; the only raw call is
  /// rpc::Channel::Unary.
  ///
  /// The gcc 12 braced-temporary rule, stated once for the repo: gcc 12 has
  /// destroyed twice a braced aggregate temporary that owns a std::string,
  /// std::vector, Buffer or std::map and is written inside a co_await
  /// full-expression: passed straight to a coroutine (seen under ASan), and
  /// behind a plain forwarding function like this one (seen in Release with
  /// `MetaEvictInodeReq{pid, inos}` passed to MountContext::MetaCall). Build
  /// such a request as a named local and std::move it in; analyzer check A5
  /// flags the pattern. Requests with only trivial members are fine inline.
  template <typename Req, typename Resp>
  RpcAwaitable<Resp> Call(NodeId from, NodeId to, Req req,
                          SimDuration timeout = kDefaultRpcTimeout) {
    Promise<Resp> reply(sched_);
    RpcAwaitable<Resp> call{this, to, reply.future().WithTimeout(timeout)};
    calls_in_flight_++;
    const size_t bytes = WireBytesOf(req);
    if (ShouldDrop(from, to)) return call;
    const SimTime at = TransferFinish(from, to, bytes);
    MixTrace<Req>(from, to, bytes, at);
    Delivery<Req, Resp> d{std::move(req), std::move(reply)};
    // The Network is a sim-lifetime singleton owned by the harness: it
    // strictly outlives every scheduled delivery, so capturing `this` into
    // the deferred event cannot dangle (crash schedules kill Hosts, checked
    // via h->up() below, never the Network itself).
    sched_->At(at, [this, from, to, d = std::move(d)]() mutable {  // analyze:allow(A2)
      Host* h = host(to);
      const Host::Handler* handler = h->up() ? h->FindHandler(MsgTypeIdOf<Req>()) : nullptr;
      // Dead node or no service registered: the request dies with this
      // event and the caller's watchdog fires for real.
      if (handler != nullptr) (*handler)(this, &d, from);
    });
    return call;
  }

  /// Reply-path entry (Host::InvokeHandler): charge the reverse transfer,
  /// then carry the response to the caller's promise. Transfer metering and
  /// the audit mix happen before the drop check — the exact (odd, but
  /// golden-hashed) order of the transport this replaced.
  template <typename Resp>
  void Reply(NodeId callee, NodeId caller, Promise<Resp> reply, Resp resp) {
    const size_t bytes = WireBytesOf(resp);
    const SimTime at = TransferFinish(callee, caller, bytes);
    MixTrace<Resp>(callee, caller, bytes, at);
    if (ShouldDrop(callee, caller)) return;
    // A reply after the caller timed out is stored in the orphaned promise
    // and dies with it; Set resumes nobody.
    sched_->At(at, [reply = std::move(reply), resp = std::move(resp)]() mutable {
      reply.Set(std::move(resp));
    });
  }

 private:
  /// Determinism auditor: fold one message into the trace hash. The
  /// registry's stored RTTI name (not the dense id, which is assignment-
  /// order-dependent) feeds the digest, so iteration-order or wall-clock
  /// bugs change the hash while ASLR and registration order do not.
  template <typename T>
  void MixTrace(NodeId from, NodeId to, size_t bytes, SimTime at) {
    TraceHasher& t = sched_->trace();
    t.Mix(from);
    t.Mix(to);
    t.Mix(bytes);
    t.Mix(at);
    const MsgTypeRegistry::Info& info = MsgTypeRegistry::Instance().info(MsgTypeIdOf<T>());
    t.MixBytes(info.trace_name, info.trace_len);
  }

  bool ShouldDrop(NodeId from, NodeId to) {
    if (IsPartitioned(from, to)) return true;
    if (drop_prob_ > 0 && sched_->rng().Chance(drop_prob_)) return true;
    return false;
  }

  /// Charge sender egress + propagation + receiver ingress; returns the
  /// delivery completion time. Local (same-node) messages skip the NIC.
  SimTime TransferFinish(NodeId from, NodeId to, size_t bytes) {
    messages_sent_++;
    bytes_sent_ += bytes;
    if (from == to) return sched_->Now() + 2;  // loopback
    SimDuration wire = static_cast<SimDuration>(bytes * kSec / (opts_.bandwidth_mib * kMiB));
    SimTime out_done = host(from)->nic_out().Reserve(wire);
    SimDuration lat = opts_.base_latency_usec +
                      static_cast<SimDuration>(sched_->rng().Uniform(opts_.jitter_usec + 1));
    SimTime arrive = out_done + lat;
    // Ingress reservation begins when the bytes arrive.
    SimTime in_free = host(to)->nic_in().Reserve(wire);
    return std::max(arrive, in_free);
  }

  Scheduler* sched_;
  NetworkOptions opts_;
  std::vector<std::unique_ptr<Host>> hosts_;
  FlatSet<std::pair<NodeId, NodeId>> partitions_;
  double drop_prob_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t rpc_timeouts_cancelled_ = 0;
  uint64_t rpc_timeouts_fired_ = 0;
  size_t calls_in_flight_ = 0;
};

// --- Host template definitions (need the complete Network type) -------------

template <typename Req, typename Resp, typename F>
void Host::Register(F h) {
  const MsgTypeId id = MsgTypeIdOf<Req>();
  if (handlers_.size() <= id) handlers_.resize(id + 1);
  handlers_[id] = [this, h = std::move(h)](Network* net, void* delivery, NodeId from) {
    auto* d = static_cast<Delivery<Req, Resp>*>(delivery);
    Spawn(InvokeHandler<Req, Resp, F>(this, net, h, std::move(d->req), from,
                                      std::move(d->reply)));
  };
}

template <typename Req, typename Resp, typename F>
Task<void> Host::InvokeHandler(Host* self, Network* net, F h, Req req, NodeId from,
                               Promise<Resp> reply) {
  obs::SpanScope span = self->OpenHandlerSpan(req);
  Resp resp = co_await h(std::move(req), from);
  net->Reply(self->id_, from, std::move(reply), std::move(resp));
}

}  // namespace cfs::sim
