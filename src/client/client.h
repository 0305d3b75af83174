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
// per-mount "tenant.<id>.*" slice). Mount/Unmount are first-class;
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
// QoS (ROADMAP item 3): each mount charges a deterministic virtual-time
// token bucket (IOPS and bytes) before issuing work; the limits come from
// the volume's master-side VolumeQos record with the volume view. The
// mount's tenant label (= VolumeId) is bound onto its service channels so
// every request downstream carries who is calling.
//
// Failure semantics: metadata workflows retry and fall back to the mount's
// orphan-inode list (§2.6.1); sequential writes that fail mid-stream resend
// the uncommitted suffix to a new extent on a different partition (§2.2.5).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
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

struct ClientOptions {
  /// Per-leg RPC timeout, applied to both retry policies at construction.
  SimDuration rpc_timeout = 1 * kSec;
  /// Retry budgets for the rpc service layer (see rpc/retry_policy.h):
  /// control for master/meta traffic and placement loops, data for extent IO.
  rpc::RetryPolicy control_policy = rpc::RetryPolicy::Control();
  rpc::RetryPolicy data_policy = rpc::RetryPolicy::Data();
  /// Upper bound on the virtual time one public operation may spend across
  /// all of its nested RPC workflows (0 = unbounded). Propagated as an
  /// rpc::Deadline through every meta/data leg underneath the op.
  SimDuration op_deadline = 0;
  /// Fixed packet size for sequential writes (§2.7.1; also the default
  /// small-file threshold t, §2.2.1).
  uint64_t packet_size = 128 * kKiB;
  uint64_t small_file_threshold = 128 * kKiB;
  /// Sliding-window depth of the sequential-write pipeline: how many
  /// WritePacketReqs may be in flight per open file before the writer
  /// blocks. 1 degenerates to stop-and-wait (one full
  /// client→primary→backups→ack round-trip per packet).
  int write_window_packets = 4;
  /// Periodic re-sync of the cached partition views with the master (§2.4).
  SimDuration volume_refresh_interval = 5 * kSec;
  /// TTL of cached inodes/dentries/readdir results.
  SimDuration metadata_cache_ttl = 2 * kSec;
  bool enable_metadata_cache = true;
  /// LRU capacity of each metadata cache (inode and readdir, separately).
  /// TTL alone only evicts on lookup, so a client scanning a large namespace
  /// would grow its caches without bound. 0 = unbounded.
  size_t metadata_cache_max_entries = 4096;
  /// §2.7.3: "the delete operation is asynchronous" — the unlink returns
  /// once the dentry is gone; the nlink decrement (and the content purge it
  /// triggers) completes in the background. Disable for strict tests.
  bool async_unlink = true;
  /// CPU charged on the client host per operation (FUSE + client path).
  SimDuration client_cpu_per_op = 6;
};

/// Bounded metadata cache: TTL on read plus an LRU capacity cap. Ordered
/// containers only (determinism lint R2); recency is a monotonic sequence
/// number, refreshed on Put and on hit. Capacity evictions bump `evictions`
/// (a registry counter).
template <typename K, typename V>
class LruTtlCache {
 public:
  explicit LruTtlCache(uint64_t& evictions) : evictions_(evictions) {}

  void set_capacity(size_t cap) { cap_ = cap; }
  size_t size() const { return map_.size(); }

  /// Insert or overwrite; evicts the least-recently-used entry when full.
  void Put(const K& k, V v, SimTime now) {
    auto it = map_.find(k);
    if (it != map_.end()) {
      lru_.erase(it->second.seq);
      it->second = Entry{std::move(v), now, next_seq_};
    } else {
      if (cap_ > 0 && map_.size() >= cap_) EvictOldest();
      map_.emplace(k, Entry{std::move(v), now, next_seq_});
    }
    lru_.emplace(next_seq_, k);
    next_seq_++;
  }

  /// nullptr on miss or TTL expiry (an expired entry is dropped). A hit
  /// refreshes recency but not the TTL anchor.
  V* Find(const K& k, SimTime now, SimDuration ttl) {
    auto it = map_.find(k);
    if (it == map_.end()) return nullptr;
    if (now - it->second.at > ttl) {
      lru_.erase(it->second.seq);
      map_.erase(it);
      return nullptr;
    }
    lru_.erase(it->second.seq);
    it->second.seq = next_seq_;
    lru_.emplace(next_seq_, k);
    next_seq_++;
    return &it->second.value;
  }

  void Erase(const K& k) {
    auto it = map_.find(k);
    if (it == map_.end()) return;
    lru_.erase(it->second.seq);
    map_.erase(it);
  }

 private:
  struct Entry {
    V value;
    SimTime at = 0;    // insertion time; TTL anchor
    uint64_t seq = 0;  // recency; larger = more recent
  };

  void EvictOldest() {
    auto oldest = lru_.begin();
    map_.erase(oldest->second);
    lru_.erase(oldest);
    evictions_++;
  }

  size_t cap_ = 0;  // 0 = unbounded
  std::map<K, Entry> map_;
  std::map<uint64_t, K> lru_;  // seq -> key, oldest first
  uint64_t next_seq_ = 0;
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

  /// Delete = unlink; content removal is asynchronous on the meta node
  /// (§2.7.3).
  sim::Task<Status> Delete(InodeId parent, std::string name) {
    return Unlink(parent, std::move(name));
  }

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

 private:
  sim::Scheduler& sched() { return *net_->scheduler(); }

  /// Deadline for one public operation (unbounded unless opts_->op_deadline
  /// is set); threaded through every nested RPC of the op.
  rpc::Deadline OpDeadline() {
    return opts_->op_deadline > 0 ? rpc::Deadline::In(sched(), opts_->op_deadline)
                                  : rpc::Deadline::None();
  }

  // Routing state lives in router_; these stay as thin views for the
  // workflow code.
  MetaPartitionView* MetaViewForInode(InodeId ino) { return router_.MetaViewForInode(ino); }
  MetaPartitionView* PickWritableMetaView() { return router_.PickWritableMetaView(); }
  DataPartitionView* PickWritableDataView(PartitionId avoid = 0) {
    return router_.PickWritableDataView(avoid);
  }
  DataPartitionView* DataView(PartitionId pid) { return router_.DataView(pid); }

  /// Root span of one public operation ("op:<name>"), minting a fresh trace
  /// id. Invalid (and allocation-free) when tracing is off.
  obs::SpanScope BeginOp(std::string_view name) {
    obs::Tracer& tracer = sched().tracer();
    if (!tracer.enabled()) return {};
    return obs::SpanScope(&tracer, tracer.BeginTrace(name, host_->id()));
  }

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
/// host's registry has the counters) plus a map of named MountContexts. The
/// single-volume API (Mount + ops without a mount handle) operates on the
/// DEFAULT mount — the first volume mounted — and is bit-compatible with the
/// pre-refactor single-volume client.
class Client {
 public:
  Client(sim::Network* net, sim::Host* host, std::vector<sim::NodeId> masters,
         const ClientOptions& opts = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Fetch the volume view and start the periodic refresh loop. The first
  /// mounted volume becomes the default mount for the mountless op API.
  sim::Task<Status> Mount(std::string volume);

  /// First-class multi-volume mount: returns the (new or existing, if still
  /// mounted) context for `volume`.
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
  size_t num_mounts() const { return mounts_.size(); }

  bool mounted() const { return default_mount_ != nullptr && default_mount_->mounted(); }
  const ClientOptions& options() const { return opts_; }

  /// The client host's registry: "client.*" workflow counters, "rpc.*" legs,
  /// "router.*" leader-cache behaviour and each mount's "tenant.<id>.*".
  const obs::Registry& metrics() const { return host_->metrics(); }

  // --- Default-mount operation API (see MountContext for semantics) ---

  sim::Task<Result<Inode>> Create(InodeId parent, std::string name, FileType type,
                                  std::string symlink_target = "");
  sim::Task<Status> Link(InodeId parent, std::string name, InodeId ino);
  sim::Task<Status> Unlink(InodeId parent, std::string name);
  sim::Task<Status> Rename(InodeId old_parent, std::string old_name,
                           InodeId new_parent, std::string new_name);
  sim::Task<Result<Dentry>> Lookup(InodeId parent, std::string name);
  sim::Task<Result<Inode>> GetInode(InodeId ino);
  sim::Task<Result<std::vector<Dentry>>> ReadDir(InodeId parent);
  sim::Task<Result<std::vector<std::pair<Dentry, Inode>>>> ReadDirPlus(InodeId parent);
  sim::Task<Status> Open(InodeId ino);
  sim::Task<Status> Close(InodeId ino);
  sim::Task<Status> Write(InodeId ino, uint64_t offset, Buffer data);
  sim::Task<Status> Write(InodeId ino, uint64_t offset, std::string data) {
    return Write(ino, offset, Buffer::FromString(std::move(data)));
  }
  sim::Task<Result<Buffer>> Read(InodeId ino, uint64_t offset, uint64_t len);
  sim::Task<Status> Fsync(InodeId ino);
  sim::Task<Status> Truncate(InodeId ino, uint64_t new_size);
  sim::Task<Status> Delete(InodeId parent, std::string name) {
    return Unlink(parent, std::move(name));
  }

  /// Drain the orphan lists of every active mount.
  sim::Task<void> EvictOrphans();
  /// Orphans across every active mount.
  size_t orphan_count() const;

  /// Force-refresh the default mount's partition views now.
  sim::Task<Status> RefreshVolume();

  PartitionId append_partition(InodeId ino) const {
    return default_mount_ ? default_mount_->append_partition(ino) : 0;
  }
  void InjectPreparedFile(InodeId ino, std::vector<ExtentKey> keys, uint64_t size);

  sim::NodeId node() const { return host_->id(); }

 private:
  sim::Task<Status> MountImpl(std::string volume);
  sim::Task<Result<MountContext*>> MountVolumeImpl(std::string volume);
  sim::Task<void> EvictOrphansImpl();

  /// Error task for ops issued with no active default mount. T must be
  /// constructible from Status (Status itself or any Result<V>).
  template <typename T>
  static sim::Task<T> FailWith(Status st) {
    co_return st;
  }

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
