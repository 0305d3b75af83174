// The CFS client (§2.4, §2.6, §2.7): mounts volumes, caches partition
// routes / leaders / metadata, and implements the metadata-operation
// workflows of Fig. 3 and the file I/O paths of Fig. 4/5.
//
// Multi-tenancy: one Client (one container host) holds N mounts. All
// per-volume state — the volume view, partition/leader caches, metadata
// caches, open files, orphan list, the refresh loop, and the QoS token
// buckets — lives in an explicit MountContext. The Client itself keeps only
// what is genuinely per-host: the metered channel. Every counter goes to the
// client host's registry ("client.*", "rpc.*", "router.*", and the
// per-mount "tenant.<id>.*" slice). MountVolume/Unmount are first-class;
// unmounting stops the mount's refresh loop (its coroutine observes the
// generation bump at the next wakeup) and retires the context — it stays
// alive until the Client dies so detached coroutines started under it
// (refresh sleep, async unlink, window packets) can land safely.
//
// Caching (§2.4):
//  * partition views cached at mount and refreshed periodically (the client
//    talks to the resource manager over non-persistent connections);
//  * inodes/dentries cached on create and readdir; forced re-sync on open;
//  * the most recently identified raft leader of each data partition is
//    cached so reads rarely probe replicas.
//
// All RPC goes through the typed stubs in src/rpc: routing and leader
// caching live in rpc::Router, retries/backoff in rpc::RetryPolicy, and
// every leg is metered into the client host's registry. The mount
// context itself only keeps the workflow logic: what to call, in what
// order, and how to compensate on failure.
//
// Multi-tenant QoS: each mount charges a deterministic virtual-time
// token bucket (IOPS and bytes) before issuing work; the limits come from
// the volume's master-side VolumeQos record with the volume view. The
// mount's tenant label (= VolumeId) is bound onto its service channels so
// every request downstream carries who is calling.
//
// Failure semantics: metadata workflows retry and fall back to the mount's
// orphan-inode list (§2.6.1); sequential writes that fail mid-stream resend
// the uncommitted suffix to a new extent on a different partition (§2.2.5).
#pragma once

#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "datanode/messages.h"
#include "master/messages.h"
#include "meta/messages.h"
#include "qos/qos.h"
#include "rpc/deadline.h"
#include "rpc/retry_policy.h"
#include "rpc/router.h"
#include "rpc/service.h"
#include "sim/network.h"
#include "sim/sync.h"

namespace cfs::client {

using master::DataPartitionView;
using master::MetaPartitionView;
using meta::Dentry;
using meta::ExtentKey;
using meta::FileType;
using meta::Inode;
using meta::InodeId;
using meta::PartitionId;

/// Fixed packet size for sequential writes (§2.7.1). The small-file
/// threshold t is storage::kSmallFileThreshold.
constexpr uint64_t kPacketSize = 128 * kKiB;
/// Periodic re-sync of the cached partition views with the master (§2.4).
constexpr SimDuration kVolumeRefreshInterval = 5 * kSec;
/// TTL of cached inodes/dentries/readdir results.
constexpr SimDuration kMetadataCacheTtl = 2 * kSec;
/// LRU capacity of each metadata cache (inode and readdir, separately).
/// TTL alone only evicts on lookup, so a client scanning a large namespace
/// would grow its caches without bound.
constexpr size_t kMetadataCacheMaxEntries = 4096;
/// CPU charged on the client host per operation (FUSE + client path).
constexpr SimDuration kClientCpuPerOp = 6;

struct ClientOptions {
  /// Per-leg RPC timeout of every stub; replaces the timeout of
  /// RetryPolicy::Control() (master/meta traffic and placement loops) and
  /// RetryPolicy::Data() (extent IO), whose budgets and backoff stay as-is.
  SimDuration rpc_timeout = 1 * kSec;
  /// Upper bound on the virtual time one public operation may spend across
  /// all of its nested RPC workflows (0 = unbounded). Propagated as an
  /// rpc::Deadline through every meta/data leg underneath the op.
  SimDuration op_deadline = 0;
  /// Sliding-window depth of the sequential-write pipeline: how many
  /// WritePacketReqs may be in flight per open file before the writer
  /// blocks. 1 degenerates to stop-and-wait (one full
  /// client→primary→backups→ack round-trip per packet).
  int write_window_packets = 4;
  bool enable_metadata_cache = true;
};

/// Bounded metadata cache: TTL on read plus an LRU capacity cap. A hash
/// index maps each key to its entry, and a recency list (oldest first)
/// holds the node each entry points at, so a hit or an overwrite splices
/// that node to the back without allocating. The index is only probed,
/// never iterated: eviction order, TTL and the eviction count all come from
/// the recency list, so hash layout cannot reach the schedule. Capacity
/// evictions bump `evictions` (a registry counter).
template <typename K, typename V>
class LruTtlCache {
 public:
  explicit LruTtlCache(uint64_t& evictions) : evictions_(evictions) {}

  void set_capacity(size_t cap) { cap_ = cap; }
  size_t size() const { return map_.size(); }

  /// Insert or overwrite (refreshing recency and the TTL anchor); evicts the
  /// least-recently-used entry when full.
  void Put(const K& k, V v, SimTime now) {
    auto it = map_.find(k);
    if (it != map_.end()) {
      it->second.value = std::move(v);
      it->second.at = now;
      Touch(it->second);
      return;
    }
    if (cap_ > 0 && map_.size() >= cap_) {
      // Full: the least recently used entry's index and list nodes are
      // re-keyed for `k`, so a full cache inserts without allocating.
      auto node = map_.extract(lru_.front());
      evictions_++;
      lru_.splice(lru_.end(), lru_, lru_.begin());
      lru_.back() = k;
      node.key() = k;
      node.mapped() = Entry{std::move(v), now, std::prev(lru_.end())};
      map_.insert(std::move(node));
      return;
    }
    lru_.push_back(k);
    map_.emplace(k, Entry{std::move(v), now, std::prev(lru_.end())});
  }

  /// nullptr on miss or TTL expiry (an expired entry is dropped). A hit
  /// refreshes recency but not the TTL anchor.
  V* Find(const K& k, SimTime now, SimDuration ttl) {
    auto it = map_.find(k);
    if (it == map_.end()) return nullptr;
    if (now - it->second.at > ttl) {
      lru_.erase(it->second.pos);
      map_.erase(it);
      return nullptr;
    }
    Touch(it->second);
    return &it->second.value;
  }

  void Erase(const K& k) {
    auto it = map_.find(k);
    if (it == map_.end()) return;
    lru_.erase(it->second.pos);
    map_.erase(it);
  }

 private:
  struct Entry {
    V value;
    SimTime at = 0;                      // insertion time; TTL anchor
    typename std::list<K>::iterator pos;  // this key's node in lru_
  };

  /// Mark most recently used.
  void Touch(const Entry& e) { lru_.splice(lru_.end(), lru_, e.pos); }

  size_t cap_ = 0;  // 0 = unbounded
  std::unordered_map<K, Entry> map_;  // lint:allow(unordered): never iterated
  std::list<K> lru_;  // keys, least recently used first
  uint64_t& evictions_;
};

/// All state and workflow logic of ONE mounted volume. Owns the volume's
/// Router (views + leader caches), typed service stubs (tenant-labeled once
/// the mount resolves its VolumeId), metadata caches, open-file table,
/// orphan list, refresh loop, and QoS token buckets. Shares the owning
/// Client's raw channel; its counters land in the client host's registry, so
/// "client.*" stays a per-host aggregate over mounts.
///
/// Lifetime: created by Client::MountVolume and owned by the Client until
/// the Client dies — Unmount only deactivates it (stops the refresh loop,
/// fails new ops) and moves it to the retired list. Callers holding a
/// MountContext* across a co_await must re-check mounted() after resuming;
/// the pointer stays valid, the mount may have been retired.
class MountContext {
 public:
  MountContext(sim::Network* net, sim::Host* host, std::vector<sim::NodeId> masters,
               const ClientOptions* opts, rpc::Channel* channel, std::string volume_name);

  MountContext(const MountContext&) = delete;
  MountContext& operator=(const MountContext&) = delete;

  /// Fetch the volume view, bind the tenant label, apply the volume's QoS
  /// knobs, and start the periodic refresh loop.
  sim::Task<Status> Mount();
  /// Stop the refresh loop (observed at its next wakeup) and fail new ops.
  void Deactivate();

  bool mounted() const { return mounted_; }
  const std::string& volume_name() const { return volume_name_; }
  /// Tenant label = VolumeId, resolved at mount (0 before the first view).
  uint64_t tenant() const { return tenant_; }
  const master::VolumeQos& qos() const { return qos_; }

  // --- Metadata operations (Fig. 3 workflows) ---

  /// Create: inode first, then dentry; on dentry failure unlink the inode
  /// and put it on the local orphan list (Fig. 3a).
  sim::Task<Result<Inode>> Create(InodeId parent, std::string name, FileType type,
                                  std::string symlink_target = "");

  /// Link: nlink++ on the inode's partition, then create the dentry on the
  /// parent's partition; decrement on failure (Fig. 3b).
  sim::Task<Status> Link(InodeId parent, std::string name, InodeId ino);

  /// Unlink: delete the dentry first, only then decrement nlink (Fig. 3c).
  sim::Task<Status> Unlink(InodeId parent, std::string name);

  /// Rename = link under the new name + unlink the old (no atomicity across
  /// partitions: the relaxed-metadata-atomicity tradeoff, §2.6).
  sim::Task<Status> Rename(InodeId old_parent, std::string old_name,
                           InodeId new_parent, std::string new_name);

  sim::Task<Result<Dentry>> Lookup(InodeId parent, std::string name);
  sim::Task<Result<Inode>> GetInode(InodeId ino);
  sim::Task<Result<std::vector<Dentry>>> ReadDir(InodeId parent);
  /// readdir + batched inode fetch with client-side caching (§4.2's
  /// batchInodeGet): what mdtest's DirStat exercises.
  sim::Task<Result<std::vector<std::pair<Dentry, Inode>>>> ReadDirPlus(InodeId parent);

  // --- File I/O (§2.7) ---

  /// Open for read/write: forces cached metadata in sync with the meta node
  /// (§2.4) and initializes append state.
  sim::Task<Status> Open(InodeId ino);
  sim::Task<Status> Close(InodeId ino);  // fsync + drop append state

  /// Random writes are in-place for the overwritten range and sequential
  /// for the appended remainder (§2.7.2). Returns after all replicas
  /// committed the data; metadata syncs on Fsync/Close. The payload Buffer
  /// is shared, never copied: every packet, chain hop, retry and raft entry
  /// below carries a slice of it.
  sim::Task<Status> Write(InodeId ino, uint64_t offset, Buffer data);
  sim::Task<Status> Write(InodeId ino, uint64_t offset, std::string data) {
    return Write(ino, offset, Buffer::FromString(std::move(data)));
  }

  /// Zero-copy where possible: a single-extent read returns the data node's
  /// payload Buffer as-is; only multi-extent reads stitch pieces into a
  /// fresh allocation. Callers needing owned bytes use Buffer::ToString().
  sim::Task<Result<Buffer>> Read(InodeId ino, uint64_t offset, uint64_t len);

  /// Push cached size/extent updates to the meta node (fsync, §2.7.1).
  sim::Task<Status> Fsync(InodeId ino);

  sim::Task<Status> Truncate(InodeId ino, uint64_t new_size);

  /// Drain the local orphan list: send evict for inodes whose create
  /// workflow failed (§2.6.1).
  sim::Task<void> EvictOrphans();
  size_t orphan_count() const { return orphans_.size(); }

  /// Force-refresh the partition views now.
  sim::Task<Status> RefreshVolume();

  /// Test/bench introspection: the data partition currently receiving this
  /// file's appends (0 if no append stream is active).
  PartitionId append_partition(InodeId ino) const {
    auto it = open_files_.find(ino);
    return it == open_files_.end() ? 0 : it->second.append_pid;
  }

  /// Bench/test rig: register already-materialized extents of a file with
  /// this mount's open-file state (pairs with ExtentStore::ImportExtent;
  /// stands in for the excluded fio laydown phase).
  void InjectPreparedFile(InodeId ino, std::vector<ExtentKey> keys, uint64_t size);

  sim::NodeId node() const { return host_->id(); }
  /// The client host's registry, shared by every mount on the host.
  const obs::Registry& metrics() const { return host_->metrics(); }

 private:
  sim::Scheduler& sched() { return *net_->scheduler(); }

  /// Deadline for one public operation (unbounded unless opts_->op_deadline
  /// is set); threaded through every nested RPC of the op.
  rpc::Deadline OpDeadline() {
    return opts_->op_deadline > 0 ? rpc::Deadline::In(sched(), opts_->op_deadline)
                                  : rpc::Deadline::None();
  }

  // Routing state lives in router_; this stays as a thin view for the
  // workflow code.
  MetaPartitionView* MetaViewForInode(InodeId ino) { return router_.MetaViewForInode(ino); }

  /// Root span of one public operation ("op:<name>"), minting a fresh trace
  /// id. Invalid (and allocation-free) when tracing is off.
  obs::SpanScope BeginOp(std::string_view name) {
    obs::Tracer& tracer = sched().tracer();
    if (!tracer.enabled()) return {};
    return obs::SpanScope(&tracer, tracer.BeginTrace(name, host_->id()));
  }

  /// What StartOp hands a public operation: its root span and deadline.
  struct Op {
    obs::SpanScope span;
    rpc::Deadline dl;
  };
  /// The prologue every public operation runs first, in this order: fail
  /// when unmounted, count the op for the tenant, open the "op:<name>" root
  /// span (none when `name` is empty), charge the QoS buckets for one op
  /// plus `bytes`, charge kClientCpuPerOp, then take the deadline.
  /// Awaiting it is a symmetric transfer, so it adds no scheduler event.
  sim::Task<Result<Op>> StartOp(std::string_view name, uint64_t bytes);

  /// Meta RPC with NotLeader redirect + retry (rpc::MetaService).
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> MetaCall(PartitionId pid, Req req, rpc::Deadline dl = {},
                                   obs::TraceContext trace = {}) {
    return meta_svc_.Call<Req, Resp>(pid, std::move(req),
                                     rpc::CallOptions{dl, nullptr, trace});
  }

  /// Data RPC to the partition's raft leader (rpc::DataService).
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> DataLeaderCall(PartitionId pid, Req req, rpc::Deadline dl = {},
                                         obs::TraceContext trace = {}) {
    return data_svc_.Call<Req, Resp>(pid, std::move(req),
                                     rpc::CallOptions{dl, nullptr, trace});
  }

  /// Master RPC with leader probing across replicas (rpc::MasterService).
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> MasterCall(Req req, rpc::Deadline dl = {},
                                     obs::TraceContext trace = {}) {
    return master_svc_.Call<Req, Resp>(std::move(req),
                                       rpc::CallOptions{dl, nullptr, trace});
  }

  sim::Task<void> RefreshLoop(uint64_t gen);
  sim::Task<Status> ReportFailure(PartitionId pid, bool is_meta);

  /// Charge the mount's token buckets: one op plus `bytes` payload. Sleeps
  /// the GCRA delay on the virtual clock; free (no events, no suspension)
  /// when no limit is configured — the default, keeping pinned schedules.
  bool ThrottleEnabled() const {
    return iops_bucket_.enabled() || bytes_bucket_.enabled();
  }
  sim::Task<void> Throttle(uint64_t bytes);

  /// (Re)configure the token buckets from the volume's QoS record.
  void ApplyQos();

  struct OpenFile {
    Inode inode;
    // Append pipeline state (current partition/extent being filled).
    PartitionId append_pid = 0;
    storage::ExtentId append_extent = 0;
    uint64_t append_extent_size = 0;
    // Metadata not yet pushed to the meta node.
    std::vector<ExtentKey> pending_keys;
    uint64_t pending_size = 0;
    bool dirty = false;
  };

  /// Placement loop of a new small file or extent (§2.3.1, §4.4): send
  /// `req` (its pid rewritten per attempt) to the chain leader of a random
  /// writable data partition, preferring one other than `avoid`. A lost leg
  /// backs off, NoSpace marks the partition unwritable, and any other error
  /// retries at once on a fresh pick. Returns the partition and response.
  template <typename Req, typename Resp>
  sim::Task<Result<std::pair<PartitionId, Resp>>> PlaceOnDataPartition(
      Req req, PartitionId avoid, rpc::Deadline dl, obs::TraceContext trace);

  /// Fig. 3 dentry step of Create and Link: create (parent, name) -> ino,
  /// storing the create's status in `*failure`; on failure read the name
  /// back, since a retried create can observe its own first attempt as
  /// AlreadyExists and a timeout leaves it unknown.
  enum class DentryOutcome {
    kCommitted,  // the name maps to `ino`: the step succeeded
    kAmbiguous,  // still unknown: keep the inode/link, never dangle a dentry
    kAbsent,     // the dentry did not land: the caller undoes its first step
  };
  sim::Task<DentryOutcome> CommitDentry(InodeId parent, std::string name, InodeId ino,
                                        FileType type, rpc::Deadline dl,
                                        obs::TraceContext trace, Status* failure);

  /// The part of one extent key inside a file range: file bytes
  /// [begin, end) live at `extent_offset` of the extent.
  struct Piece {
    PartitionId pid = 0;
    storage::ExtentId extent = 0;
    uint64_t extent_offset = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  /// Clip `first` then `second` to the file range [offset, end), in order.
  static std::vector<Piece> Pieces(const std::vector<ExtentKey>& first,
                                   const std::vector<ExtentKey>& second, uint64_t offset,
                                   uint64_t end);

  sim::Task<Status> AppendData(OpenFile& of, uint64_t file_offset, Buffer data,
                               rpc::Deadline dl, obs::TraceContext trace);
  sim::Task<Status> OverwriteData(OpenFile& of, uint64_t offset, Buffer data,
                                  rpc::Deadline dl, obs::TraceContext trace);
  sim::Task<Status> WriteSmallFile(OpenFile& of, Buffer data, rpc::Deadline dl,
                                   obs::TraceContext trace);

  void CacheInode(const Inode& ino);
  const Inode* CachedInode(InodeId ino);

  sim::Network* net_;
  sim::Host* host_;
  const ClientOptions* opts_;
  rpc::Channel* channel_; // shared raw channel (window-packet path)

  // Client workflow counters in the host registry, shared by every mount on
  // this host. (Leg counts "client.{master,meta,data}_rpcs" are bumped by
  // the stubs; cache evictions by the caches.)
  uint64_t& data_rpcs_;              // window packets bypass the data stub
  uint64_t& cache_hits_;
  uint64_t& cache_misses_;
  uint64_t& resends_;                // §2.2.5 suffix resends
  uint64_t& suffix_resend_bytes_;    // bytes re-sent to a fresh extent
  uint64_t& orphans_created_;        // create workflows that failed after inode
  uint64_t& window_stalls_;          // writer blocked on a full window
  int64_t& max_inflight_packets_;    // high-watermark of in-flight packets
  uint64_t& parallel_read_fanouts_;  // reads that fanned out to >1 extent

  // RPC service layer of THIS mount: one Router (views + leader caches +
  // writability marks) and typed stubs.
  rpc::Router router_;
  rpc::MasterService master_svc_;
  rpc::MetaService meta_svc_;
  rpc::DataService data_svc_;

  bool mounted_ = false;
  std::string volume_name_;
  uint64_t tenant_ = 0;  // VolumeId; bound onto the stubs at mount
  uint64_t refresh_gen_ = 0;

  // Per-mount QoS (client side): deterministic token buckets fed by the
  // volume's VolumeQos record.
  master::VolumeQos qos_;
  qos::TokenBucket iops_bucket_;
  qos::TokenBucket bytes_bucket_;
  // This mount's slice "tenant.<id>.*", resolved when the tenant id is
  // first learned (before the mount serves any op).
  uint64_t* tenant_ops_ = nullptr;
  uint64_t* throttle_waits_ = nullptr;
  uint64_t* throttle_wait_usec_ = nullptr;
  uint64_t* refresh_failures_ = nullptr;

  LruTtlCache<InodeId, Inode> inode_cache_;
  LruTtlCache<InodeId, std::vector<Dentry>> readdir_cache_;

  std::map<InodeId, OpenFile> open_files_;
  std::vector<std::pair<PartitionId, InodeId>> orphans_;
};

/// Multi-mount client shell. Holds per-host shared state (the channel; the
/// host's registry has the counters) plus a map of named MountContexts. Every
/// file and metadata op goes through a MountContext; the default mount is
/// the first volume mounted.
class Client {
 public:
  Client(sim::Network* net, sim::Host* host, std::vector<sim::NodeId> masters,
         const ClientOptions& opts = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Fetch the volume view and start the periodic refresh loop; returns the
  /// (new or existing, if still mounted) context for `volume`. The first
  /// mounted volume becomes the default mount.
  sim::Task<Result<MountContext*>> MountVolume(std::string volume);

  /// Deactivate `volume`'s mount: its refresh loop stops at the next wakeup
  /// and new ops on it fail Unavailable. The context is retired, not
  /// destroyed — in-flight detached coroutines drain safely; memory is
  /// reclaimed when the Client dies.
  Status Unmount(const std::string& volume);
  void UnmountAll();

  /// Active mount lookup (nullptr when not mounted / already unmounted).
  MountContext* mount(const std::string& volume);
  MountContext* default_mount() { return default_mount_; }
  const std::map<std::string, std::unique_ptr<MountContext>>& mounts() const {
    return mounts_;
  }

  /// The client host's registry: "client.*" workflow counters, "rpc.*" legs,
  /// "router.*" leader-cache behaviour and each mount's "tenant.<id>.*".
  const obs::Registry& metrics() const { return host_->metrics(); }

 private:
  sim::Network* net_;
  sim::Host* host_;
  std::vector<sim::NodeId> masters_;
  ClientOptions opts_;
  rpc::Channel channel_;

  std::map<std::string, std::unique_ptr<MountContext>> mounts_;
  /// Unmounted contexts, kept alive for detached-coroutine safety.
  std::vector<std::unique_ptr<MountContext>> retired_mounts_;
  MountContext* default_mount_ = nullptr;
};

}  // namespace cfs::client
