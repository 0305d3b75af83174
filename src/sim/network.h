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
// The transport is zero-heap-allocation per RPC in steady state (DESIGN.md
// "RPC transport"): requests/responses travel in slab-pooled Envelopes with
// inline storage, dispatch indexes a flat per-host handler table by the
// dense MsgTypeId (sim/msg_type.h) instead of probing a type_index map, and
// the caller's pending-call state lives in a generation-checked RpcSlot
// slab instead of a shared_ptr promise. The reply path cancels the timeout
// watchdog, so a call that is answered in time leaves no event behind
// (golden schedule hashes: tests/schedule_hash_test.cc,
// tests/network_test.cc).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
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

/// Type-erased message payload in a pooled, fixed-size node. Small payloads
/// (nearly every RPC struct: the big data-path Buffers are shared-ownership
/// handles, not byte arrays) are constructed inline; oversized ones live in
/// a FramePool cell referenced from the node. Envelopes are pinned — never
/// relocated — and recycled LIFO through the owning pool's free list, so a
/// raw Envelope* must NOT be held across a co_await (the analyzer's
/// A1.pooled check enforces this; see tests/analyze/fixtures/envelope_bad.cc).
struct Envelope {
  static constexpr size_t kInlineBytes = 192;

  template <typename T>
  static constexpr bool IsInline() {
    return sizeof(T) <= kInlineBytes && alignof(T) <= alignof(std::max_align_t);
  }

  template <typename T>
  T* Payload() {
    if constexpr (IsInline<T>()) {
      return std::launder(reinterpret_cast<T*>(buf));
    } else {
      return static_cast<T*>(heap);
    }
  }

  template <typename T>
  static void DestroyPayload(Envelope* e) {
    if constexpr (IsInline<T>()) {
      std::launder(reinterpret_cast<T*>(e->buf))->~T();
    } else {
      static_cast<T*>(e->heap)->~T();
      detail::FramePool::Free(e->heap, sizeof(T));
      e->heap = nullptr;
    }
  }

  MsgTypeId type = 0;
  uint32_t next = kNilIndex;             // pool free-list link
  void (*destroy)(Envelope*) = nullptr;  // non-null while a payload is held
  void* heap = nullptr;                  // oversize payload cell (FramePool)
  alignas(std::max_align_t) unsigned char buf[kInlineBytes];
};

/// Slab allocator for Envelopes: chunked storage, LIFO free list, no
/// deallocation until the pool dies. Steady-state Make/Take/Free cycles
/// touch only the free list — zero heap traffic.
class EnvelopePool {
 public:
  EnvelopePool() = default;
  EnvelopePool(const EnvelopePool&) = delete;
  EnvelopePool& operator=(const EnvelopePool&) = delete;

  /// Tear-down safety: envelopes parked in never-dispatched delivery events
  /// (a simulation cut off mid-flight) still hold payloads; destroy them so
  /// owning resources (strings, buffers) are released.
  ~EnvelopePool() {
    for (auto& chunk : chunks_) {
      for (uint32_t i = 0; i < kChunk; i++) {
        Envelope& e = chunk[i];
        if (e.destroy != nullptr) e.destroy(&e);
      }
    }
  }

  template <typename T>
  Envelope* Make(T v) {
    Envelope* e = Alloc();
    e->type = MsgTypeIdOf<T>();
    if constexpr (Envelope::IsInline<T>()) {
      new (e->buf) T(std::move(v));
    } else {
      void* cell = detail::FramePool::Alloc(sizeof(T));
      e->heap = new (cell) T(std::move(v));
    }
    e->destroy = &Envelope::DestroyPayload<T>;
    return e;
  }

  /// Move the payload out and recycle the envelope.
  template <typename T>
  T Take(Envelope* e) {
    T v = std::move(*e->Payload<T>());
    Free(e);
    return v;
  }

  /// Destroy the payload (if any) and recycle the node — every drop path
  /// (dead destination, partition, message loss, stale reply) ends here.
  void Free(Envelope* e) {
    if (e->destroy != nullptr) {
      e->destroy(e);
      e->destroy = nullptr;
    }
    const uint32_t idx = IndexOf(e);
    e->next = free_head_;
    free_head_ = idx;
    in_use_--;
  }

  size_t capacity() const { return chunks_.size() * kChunk; }
  size_t in_use() const { return in_use_; }

 private:
  static constexpr uint32_t kChunk = 128;

  Envelope* Alloc() {
    if (free_head_ == kNilIndex) {
      const uint32_t base = static_cast<uint32_t>(chunks_.size() * kChunk);
      chunks_.push_back(std::make_unique<Envelope[]>(kChunk));
      for (uint32_t i = kChunk; i-- > 0;) {
        Envelope& e = chunks_.back()[i];
        e.next = free_head_;
        free_head_ = base + i;
      }
    }
    Envelope* e = At(free_head_);
    free_head_ = e->next;
    e->next = kNilIndex;
    in_use_++;
    return e;
  }

  Envelope* At(uint32_t idx) { return &chunks_[idx / kChunk][idx % kChunk]; }
  uint32_t IndexOf(const Envelope* e) const {
    for (uint32_t c = 0; c < chunks_.size(); c++) {
      if (e >= chunks_[c].get() && e < chunks_[c].get() + kChunk) {
        return static_cast<uint32_t>(c * kChunk + (e - chunks_[c].get()));
      }
    }
    return kNilIndex;
  }

  std::vector<std::unique_ptr<Envelope[]>> chunks_;
  uint32_t free_head_ = kNilIndex;
  size_t in_use_ = 0;
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

/// The caller's claim on a pending-call slot, handed to the handler side so
/// the reply can find its way back. A 16-byte POD — replaces the per-call
/// heap-allocated std::function reply closure of the boxing transport.
struct ReplyTicket {
  uint32_t slot = 0;
  uint32_t gen = 0;
  NodeId caller = kInvalidNode;  // the node awaiting the response
  NodeId callee = kInvalidNode;  // the node running the handler
};

/// Move-only type-erased handler entry with small-buffer storage:
/// `void(Network*, Envelope* request, NodeId from, ReplyTicket)`. The
/// registered closure (Host* + the user handler functor) almost always fits
/// inline; a larger one costs one heap cell at Register() time — never per
/// message.
class HandlerFn {
 public:
  static constexpr size_t kInlineBytes = 64;

  HandlerFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, HandlerFn>)
  explicit HandlerFn(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (buf_) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(static_cast<void*>(buf_)) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  HandlerFn(HandlerFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  HandlerFn& operator=(HandlerFn&& o) noexcept {
    if (this != &o) {
      Reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  HandlerFn(const HandlerFn&) = delete;
  HandlerFn& operator=(const HandlerFn&) = delete;
  ~HandlerFn() { Reset(); }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }
  explicit operator bool() const { return ops_ != nullptr; }
  void operator()(Network* net, Envelope* req, NodeId from, ReplyTicket ticket) const {
    ops_->invoke(const_cast<unsigned char*>(buf_), net, req, from, ticket);
  }

 private:
  struct Ops {
    void (*invoke)(void*, Network*, Envelope*, NodeId, ReplyTicket);
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* p, Network* net, Envelope* req, NodeId from, ReplyTicket t) {
      (*std::launder(reinterpret_cast<Fn*>(p)))(net, req, from, t);
    }
    static void Relocate(void* dst, void* src) {
      Fn* s = std::launder(reinterpret_cast<Fn*>(src));
      new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void Destroy(void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Get(void* p) { return *reinterpret_cast<Fn**>(p); }
    static void Invoke(void* p, Network* net, Envelope* req, NodeId from, ReplyTicket t) {
      (*Get(p))(net, req, from, t);
    }
    static void Relocate(void* dst, void* src) { std::memcpy(dst, src, sizeof(Fn*)); }
    static void Destroy(void* p) { delete Get(p); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy};
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
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
  /// Register the coroutine handler for request type Req. `h` is
  /// `Task<Resp>(Req, NodeId from)`. Handlers live in a flat vector indexed
  /// by the dense MsgTypeId — delivery dispatch is one bounds check and an
  /// array load; the only handler-related allocation happens here, at
  /// registration. (Defined after Network below.)
  template <typename Req, typename Resp, typename F>
  void Register(F h);

  /// Remove all handlers (a decommissioned node).
  void ClearHandlers() { handlers_.clear(); }

  const HandlerFn* FindHandler(MsgTypeId t) const {
    if (t >= handlers_.size() || !handlers_[t]) return nullptr;
    return &handlers_[t];
  }

 private:
  friend class Network;

  /// Every registered handler runs under a "handler:<rpc>" span when the
  /// request is traced: the one interception point that covers master, meta
  /// and data services alike. The request payload is moved OUT of its pooled
  /// envelope before this coroutine starts, so handler code never touches
  /// recycled storage. `h` arrives by value (copied into the frame):
  /// ClearHandlers() while the handler is suspended cannot dangle it.
  template <typename Req, typename Resp, typename F>
  static Task<void> InvokeHandler(Host* self, Network* net, F h, Req req, NodeId from,
                                  ReplyTicket ticket);

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
  std::vector<HandlerFn> handlers_;
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

  /// Pool/slab introspection (tests pin reuse and leak-freedom on these).
  EnvelopePool& envelope_pool() { return pool_; }
  size_t rpc_slots_in_use() const { return slots_in_use_; }
  size_t rpc_slot_capacity() const { return slots_.size(); }

  /// Awaitable returned by Call(): resolves to Result<Resp> (TimedOut on
  /// network-level failure). Holds only the slot coordinates — the pending
  /// state itself lives in the Network's recycled slab.
  template <typename Resp>
  struct RpcAwaitable {
    Network* net;
    uint32_t slot;
    uint32_t gen;
    SimDuration timeout;
    NodeId to;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { net->ArmRpc(slot, gen, h, timeout); }
    Result<Resp> await_resume() { return net->FinishRpc<Resp>(slot, gen, to); }
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
    const uint32_t slot = AllocSlot();
    const uint32_t gen = slots_[slot].gen;
    const size_t req_bytes = WireBytesOf(req);
    SendRequest(from, to, pool_.Make<Req>(std::move(req)), req_bytes,
                ReplyTicket{slot, gen, from, to});
    return RpcAwaitable<Resp>{this, slot, gen, timeout, to};
  }

  /// Reply-path entry (Host::InvokeHandler): charge the reverse transfer,
  /// then deliver into the caller's slot. Transfer metering and the audit
  /// mix happen before the drop check — the exact (odd, but golden-hashed)
  /// order of the transport this replaced.
  void Reply(ReplyTicket ticket, Envelope* resp, size_t resp_bytes) {
    SimTime at = TransferFinish(ticket.callee, ticket.caller, resp_bytes);
    MixTrace(ticket.callee, ticket.caller, resp_bytes, resp->type, at);
    if (ShouldDrop(ticket.callee, ticket.caller)) {
      pool_.Free(resp);
      return;
    }
    // Network is a sim-lifetime singleton owned by the harness (see
    // SendRequest): `this` in a deferred event cannot dangle.
    sched_->At(at, [this, ticket, resp] { DeliverReply(ticket, resp); });  // analyze:allow(A2)
  }

 private:
  /// One pending unary call. Slots are recycled through a free list; `gen`
  /// distinguishes the current occupant from stale replies/timeouts aimed at
  /// a previous one (the same trick TimerWheel plays with TimerIds).
  struct RpcSlot {
    std::coroutine_handle<> waiter = nullptr;
    Envelope* resp = nullptr;
    Scheduler::TimerId timer{};
    uint32_t gen = 0;
    uint32_t next_free = kNilIndex;
    bool delivered = false;  // waiter resumption initiated (reply or timeout)
  };

  /// Determinism auditor: fold one message into the trace hash. The
  /// registry's stored RTTI name (not the dense id, which is assignment-
  /// order-dependent) feeds the digest, so iteration-order or wall-clock
  /// bugs change the hash while ASLR and registration order do not.
  void MixTrace(NodeId from, NodeId to, size_t bytes, MsgTypeId type, SimTime at) {
    TraceHasher& t = sched_->trace();
    t.Mix(from);
    t.Mix(to);
    t.Mix(bytes);
    t.Mix(at);
    const MsgTypeRegistry::Info& info = MsgTypeRegistry::Instance().info(type);
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

  void SendRequest(NodeId from, NodeId to, Envelope* req, size_t bytes, ReplyTicket ticket) {
    if (ShouldDrop(from, to)) {
      pool_.Free(req);
      return;
    }
    SimTime at = TransferFinish(from, to, bytes);
    MixTrace(from, to, bytes, req->type, at);
    // The Network is a sim-lifetime singleton owned by the harness: it
    // strictly outlives every scheduled delivery, so capturing `this` into
    // the deferred event cannot dangle (crash schedules kill Hosts, checked
    // via h->up() below, never the Network itself).
    sched_->At(at, [this, to, from, req, ticket] {  // analyze:allow(A2)
      Host* h = host(to);
      const HandlerFn* handler = h->up() ? h->FindHandler(req->type) : nullptr;
      if (handler == nullptr) {
        // Dead node or no service registered: the request vanishes and the
        // caller's watchdog fires for real.
        pool_.Free(req);
        return;
      }
      (*handler)(this, req, from, ticket);
    });
  }

  void ArmRpc(uint32_t slot, uint32_t gen, std::coroutine_handle<> h, SimDuration timeout) {
    RpcSlot& s = slots_[slot];
    s.waiter = h;
    // Same singleton-lifetime argument as SendRequest for the `this` capture.
    s.timer = sched_->ScheduleAfter(timeout, [this, slot, gen] {  // analyze:allow(A2)
      TimeoutFire(slot, gen);
    });
  }

  void TimeoutFire(uint32_t slot, uint32_t gen) {
    RpcSlot& s = slots_[slot];
    if (s.gen != gen || s.delivered) return;
    rpc_timeouts_fired_++;
    s.delivered = true;
    s.timer = {};
    auto w = std::exchange(s.waiter, nullptr);
    if (w) w.resume();
  }

  void DeliverReply(ReplyTicket ticket, Envelope* resp) {
    RpcSlot& s = slots_[ticket.slot];
    if (s.gen != ticket.gen || s.delivered) {
      pool_.Free(resp);  // caller already timed out: late reply drops
      return;
    }
    s.resp = resp;
    s.delivered = true;
    // The watchdog leaves the wheel now: its closure is released and it
    // never executes.
    if (sched_->Cancel(s.timer)) rpc_timeouts_cancelled_++;
    s.timer = {};
    // Resume via the scheduler at the current timestamp to bound recursion —
    // the same two-event delivery (store + resume) the promise path used.
    sched_->After(0, [this, slot = ticket.slot, gen = ticket.gen] {  // analyze:allow(A2)
      RpcSlot& s2 = slots_[slot];
      if (s2.gen != gen) return;
      auto w = std::exchange(s2.waiter, nullptr);
      if (w) w.resume();
    });
  }

  template <typename Resp>
  Result<Resp> FinishRpc(uint32_t slot, uint32_t gen, NodeId to) {
    RpcSlot& s = slots_[slot];
    (void)gen;  // the waiter is the slot's only consumer; gens match by construction
    if (s.resp != nullptr) {
      Envelope* e = std::exchange(s.resp, nullptr);
      FreeSlot(slot);
      return pool_.Take<Resp>(e);
    }
    FreeSlot(slot);
    // Built lazily: the timeout path is the only one that pays for the
    // message string.
    return Status::TimedOut("rpc to node " + std::to_string(to));
  }

  uint32_t AllocSlot() {
    uint32_t idx;
    if (slot_free_ != kNilIndex) {
      idx = slot_free_;
      slot_free_ = slots_[idx].next_free;
    } else {
      idx = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_in_use_++;
    return idx;
  }

  void FreeSlot(uint32_t idx) {
    RpcSlot& s = slots_[idx];
    s.gen++;  // stale tickets/timers aimed at the old occupant miss
    s.waiter = nullptr;
    s.resp = nullptr;
    s.timer = {};
    s.delivered = false;
    s.next_free = slot_free_;
    slot_free_ = idx;
    slots_in_use_--;
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
  EnvelopePool pool_;
  /// Pending-call slab: deque for reference stability under growth; slots
  /// are recycled LIFO via the embedded free list.
  std::deque<RpcSlot> slots_;
  uint32_t slot_free_ = kNilIndex;
  size_t slots_in_use_ = 0;
};

// --- Host template definitions (need the complete Network type) -------------

template <typename Req, typename Resp, typename F>
void Host::Register(F h) {
  const MsgTypeId id = MsgTypeIdOf<Req>();
  if (handlers_.size() <= id) handlers_.resize(id + 1);
  handlers_[id] = HandlerFn(
      [this, h = std::move(h)](Network* net, Envelope* req, NodeId from, ReplyTicket ticket) {
        // Take() moves the payload out and recycles the envelope BEFORE the
        // handler coroutine can suspend — no pooled storage crosses a
        // co_await.
        Spawn(InvokeHandler<Req, Resp, F>(this, net, h, net->envelope_pool().Take<Req>(req),
                                          from, ticket));
      });
}

template <typename Req, typename Resp, typename F>
Task<void> Host::InvokeHandler(Host* self, Network* net, F h, Req req, NodeId from,
                               ReplyTicket ticket) {
  obs::SpanScope span = self->OpenHandlerSpan(req);
  Resp resp = co_await h(std::move(req), from);
  const size_t bytes = WireBytesOf(resp);
  net->Reply(ticket, net->envelope_pool().Make<Resp>(std::move(resp)), bytes);
}

}  // namespace cfs::sim
