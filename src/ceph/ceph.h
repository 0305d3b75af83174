// A behavioural model of Ceph (v12, bluestore) as configured in the paper's
// evaluation (§4.1): 10 machines, 16 OSDs + 1 MDS per machine, 3-way
// replication, tuned osd_op_num_shards=6 / threads_per_shard=4.
//
// The model captures exactly the mechanisms the paper uses to explain every
// comparative result:
//  * directory-locality metadata placement: a directory's dentries+inodes
//    live on one MDS (good cache reuse at low concurrency, hotspots at high);
//  * bounded MDS inode cache: misses read from the RADOS metadata pool
//    (§4.3: "the cache miss rate can be increased dramatically...");
//  * dynamic subtree rebalancing with proxy forwarding (§4.2 TreeCreation);
//  * per-update journaling: metadata ops commit through the MDS journal;
//  * readdir followed by per-inode inodeGet requests (vs CFS batchInodeGet);
//  * OSD writes that walk sharded op queues and persist journal + data +
//    metadata before ack (§4.3: why overwrites are slow);
//  * client-side data path striped over 4 MiB objects placed by a
//    CRUSH-style hash.
//
// It is NOT a reimplementation of Ceph; it is the paper's explanatory model
// made executable, running on the same simulation substrate (hosts, NICs,
// disks) as CFS so the comparison is apples-to-apples.
#pragma once

#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "rpc/channel.h"
#include "sim/network.h"
#include "sim/task.h"

namespace cfs::ceph {

using InodeId = uint64_t;
using ObjectId = uint64_t;

struct CephOptions {
  int num_nodes = 10;       // MDS + 16 OSDs per machine (§4.1)
  int osds_per_node = 16;
  uint32_t replica_factor = 3;
  uint64_t object_size = 4 * kMiB;

  /// MDS knobs.
  uint64_t mds_cache_capacity = 48 * 1024;  // resident inodes per MDS
  SimDuration mds_cpu_per_op = 12;
  /// The MDS dispatch path is mostly single-threaded; requests serialize
  /// through a small number of dispatch lanes.
  int mds_dispatch_lanes = 2;
  SimDuration mds_dispatch_service = 70;
  /// Journal commit: mostly-serial append to the RADOS journal; the group
  /// commit pipeline is modelled as a few lanes with a per-op service time.
  int journal_lanes = 1;
  SimDuration journal_service = 350;
  /// Cache miss: synchronous read from the local metadata-pool disk.
  int metadata_pool_disk = 0;

  /// Dynamic subtree rebalancing (§4.2).
  SimDuration rebalance_interval = 2 * kSec;
  double rebalance_imbalance_factor = 2.0;
  /// Forwarded (proxied) request overhead window after a directory moves.
  SimDuration proxy_penalty_window = 2 * kSec;

  /// OSD knobs (paper-tuned).
  int osd_op_num_shards = 6;
  int osd_threads_per_shard = 4;
  SimDuration osd_op_cost = 15;        // per queue stage
  SimDuration client_cpu_per_op = 6;
  /// Bounded per-node object-metadata (onode) cache: IO on an object that
  /// fell out pays an extra metadata disk read (§4.3: "each MDS/metadata
  /// cache holds a portion ... cache miss rate increases dramatically").
  uint64_t osd_onode_cache = 512;
  /// bluestore kv-commit lanes per node: small writes and cold-onode walks
  /// serialize through RocksDB compaction/commit threads.
  int kv_lanes = 2;
  SimDuration kv_commit_service = 100;
  SimDuration kv_lookup_service = 100;
};

struct CephInode {
  InodeId id = 0;
  bool is_dir = false;
  uint64_t size = 0;
};

/// One MDS process. Owns the metadata of the directories it is authoritative
/// for; caches a bounded number of inodes in memory.
class Mds;
/// One machine running 1 MDS + 16 OSDs.
class CephCluster;

// --- Wire messages -----------------------------------------------------------

enum class MetaOp : uint8_t {
  kMkdir = 1,
  kCreate = 2,
  kLookup = 3,
  kInodeGet = 4,
  kReaddir = 5,
  kRemove = 6,
  kRmdir = 7,
  kSetSize = 8,
};

struct MdsReq {
  static constexpr const char* kRpcName = "Mds";
  MetaOp op = MetaOp::kLookup;
  InodeId dir = 0;       // directory the op targets (authority routing key)
  std::string name;      // entry name (create/lookup/remove)
  InodeId ino = 0;       // inodeGet / setsize target
  uint64_t size = 0;     // setsize
  bool is_dir = false;   // create
  bool internal = false; // proxied from another MDS (no second forward)
  size_t WireBytes() const { return 64 + name.size(); }
};
struct MdsResp {
  Status status;
  CephInode inode;
  std::vector<std::pair<std::string, InodeId>> entries;  // readdir
  size_t WireBytes() const { return 64 + entries.size() * 48; }
};

struct OsdWriteReq {
  static constexpr const char* kRpcName = "OsdWrite";
  ObjectId object = 0;
  uint64_t offset = 0;
  uint64_t len = 0;
  bool is_overwrite = false;
  uint32_t fanout_index = 0;  // 0 = primary
  size_t WireBytes() const { return 64 + len; }
};
struct OsdWriteResp {
  Status status;
};
struct OsdReadReq {
  static constexpr const char* kRpcName = "OsdRead";
  ObjectId object = 0;
  uint64_t offset = 0;
  uint64_t len = 0;
};
struct OsdReadResp {
  Status status;
  uint64_t len = 0;
  size_t WireBytes() const { return 32 + len; }
};

// --- MDS ----------------------------------------------------------------------

class Mds {
 public:
  Mds(CephCluster* cluster, sim::Host* host, int index);

  sim::Task<MdsResp> Handle(MdsReq req);

  uint64_t ops() const { return ops_; }
  uint64_t cache_misses() const { return cache_misses_; }
  uint64_t cache_hits() const { return cache_hits_; }
  /// Per-directory op counts since the last rebalance tick.
  std::map<InodeId, uint64_t>& hot_dirs() { return hot_dirs_; }
  uint64_t TakeLoad() {
    uint64_t l = window_ops_;
    window_ops_ = 0;
    return l;
  }

  /// Authority transfer (rebalancer): a directory moves with its dentries
  /// AND the inode records of its children.
  struct DirBundle {
    std::map<std::string, InodeId> entries;
    std::map<InodeId, CephInode> inodes;
  };
  void AdoptDirectory(InodeId dir, DirBundle bundle);
  DirBundle YieldDirectory(InodeId dir);
  size_t DirectorySize(InodeId dir) const;

 private:
  /// Touch an inode in the LRU cache; returns true on a miss (charged by the
  /// caller as a metadata-pool disk read).
  bool TouchCache(InodeId ino);
  sim::Task<void> ChargeMiss();
  sim::Task<void> Journal();

  CephCluster* cluster_;
  sim::Host* host_;
  int index_;

  /// dir inode -> (name -> child inode id). Authority-local directories.
  std::map<InodeId, std::map<std::string, InodeId>> dirs_;
  std::map<InodeId, CephInode> inodes_;  // the "on-disk" metadata pool view

  /// LRU inode cache (bounded; §4.3). Ordered map: the residency index is
  /// point-queried on the hot path, and keeping it ordered guarantees any
  /// future iteration (debug dumps, deep checks) is deterministic.
  std::list<InodeId> lru_;
  std::map<InodeId, std::list<InodeId>::iterator> resident_;

  sim::Resource journal_;
  sim::Resource dispatch_;
  uint64_t ops_ = 0;
  uint64_t window_ops_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  std::map<InodeId, uint64_t> hot_dirs_;
};

// --- Cluster --------------------------------------------------------------------

class CephCluster {
 public:
  CephCluster(sim::Scheduler* sched, sim::Network* net, const CephOptions& opts = {});

  const CephOptions& options() const { return opts_; }
  sim::Network* net() { return net_; }
  sim::Scheduler* sched() { return sched_; }
  /// Metered channel all Ceph-model RPC legs go through (MDS forwards, OSD
  /// replication, client calls); each leg lands in its sending host's
  /// registry.
  rpc::Channel* channel() { return &channel_; }

  /// Authority MDS index for a directory (hash placement + rebalancing
  /// moves). Clients use this to route; stale routes get proxied.
  int AuthorityOf(InodeId dir) const;
  int HashAuthority(InodeId dir) const;
  void SetAuthority(InodeId dir, int mds);
  bool RecentlyMoved(InodeId dir) const;

  Mds* mds(int i) { return mds_[i].get(); }
  sim::Host* mds_host(int i) { return hosts_[i]; }
  int num_mds() const { return static_cast<int>(mds_.size()); }

  InodeId AllocInode() { return next_inode_++; }

  /// CRUSH-ish: object -> primary node + replica nodes.
  std::vector<sim::NodeId> PlaceObject(ObjectId object) const;
  sim::Host* host_of(sim::NodeId id) { return net_->host(id); }

  uint64_t rebalances() const { return rebalances_; }

 private:
  void RegisterOsdHandlers(sim::Host* host, int node_index);
  sim::Task<void> RebalanceLoop();

  sim::Scheduler* sched_;
  sim::Network* net_;
  CephOptions opts_;
  rpc::Channel channel_;
  std::vector<sim::Host*> hosts_;
  std::vector<std::unique_ptr<Mds>> mds_;
  /// Per (node, shard-pool) op queues: osd_op_num_shards * threads_per_shard.
  std::vector<std::unique_ptr<sim::Resource>> osd_queues_;
  std::vector<std::unique_ptr<sim::Resource>> kv_lanes_;
  /// Per-node onode LRU (object metadata cache). Ordered for the same
  /// determinism reason as the MDS inode cache above.
  struct OnodeCache {
    std::list<ObjectId> lru;
    std::map<ObjectId, std::list<ObjectId>::iterator> resident;
  };
  std::vector<OnodeCache> onode_caches_;
  /// Touch; returns true on miss.
  bool TouchOnode(int node_index, ObjectId object);

 public:
  uint64_t onode_misses() const { return onode_misses_; }

 private:
  uint64_t onode_misses_ = 0;
  std::map<InodeId, int> authority_override_;
  std::map<InodeId, SimTime> moved_at_;
  InodeId next_inode_ = 2;  // 1 = root
  uint64_t rebalances_ = 0;
};

// --- Client ----------------------------------------------------------------------

class CephClient {
 public:
  CephClient(CephCluster* cluster, sim::Host* host);

  // Metadata (each op routes to the directory's authority MDS; stale
  // authority knowledge costs a proxy hop inside the MDS).
  sim::Task<Result<InodeId>> Mkdir(InodeId parent, std::string name);
  sim::Task<Result<InodeId>> Create(InodeId parent, std::string name);
  sim::Task<Result<CephInode>> Lookup(InodeId parent, std::string name);
  sim::Task<Result<CephInode>> InodeGet(InodeId ino, InodeId authority_dir);
  /// readdir + one inodeGet per entry (§4.2's contrast with batchInodeGet).
  sim::Task<Result<std::vector<std::pair<std::string, CephInode>>>> ReaddirPlus(InodeId dir);
  sim::Task<Status> Remove(InodeId parent, std::string name);
  sim::Task<Status> Rmdir(InodeId parent, std::string name);

  // Data: striped over objects, placed by CRUSH, written through the
  // primary with 2 replicas, journal+data+metadata persisted before ack.
  sim::Task<Status> Write(InodeId ino, InodeId parent_dir, uint64_t offset, uint64_t len,
                          bool is_overwrite);
  sim::Task<Status> Read(InodeId ino, uint64_t offset, uint64_t len);

  uint64_t meta_rpcs() const { return meta_rpcs_; }
  uint64_t data_rpcs() const { return data_rpcs_; }
  sim::Scheduler* cluster_sched() { return cluster_->sched(); }

 private:
  sim::Task<Result<MdsResp>> CallMds(InodeId dir, MdsReq req);

  CephCluster* cluster_;
  sim::Host* host_;
  uint64_t meta_rpcs_ = 0;
  uint64_t data_rpcs_ = 0;
};

constexpr InodeId kCephRoot = 1;

}  // namespace cfs::ceph
