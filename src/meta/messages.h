// Wire messages between clients and meta nodes, plus resource-manager admin
// messages for meta partitions. Request routing is by partition id; write
// operations are executed through the partition's raft group, reads are
// served from leader memory.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "meta/meta_partition.h"
#include "obs/trace.h"
#include "meta/types.h"
#include "sim/network.h"

namespace cfs::meta {

/// Tenant label carried by client-facing requests; equals the VolumeId the
/// issuing mount belongs to (0 = unlabeled / pre-mount traffic).
using TenantId = uint64_t;

// --- Inode ops -------------------------------------------------------------

struct MetaCreateInodeReq {
  static constexpr const char* kRpcName = "MetaCreateInode";
  PartitionId pid = 0;
  FileType type = FileType::kFile;
  std::string link_target;
  size_t WireBytes() const { return 48 + link_target.size(); }  obs::TraceContext trace;
  TenantId tenant = 0;
};
struct MetaCreateInodeResp {
  Status status;
  Inode inode;
};

struct MetaUnlinkInodeReq {
  static constexpr const char* kRpcName = "MetaUnlinkInode";
  PartitionId pid = 0;
  InodeId ino = 0;  obs::TraceContext trace;
  TenantId tenant = 0;
  // Frozen at the pre-tenant sizeof so simulated transfer timing (and the
  // pinned bench schedules) did not move when the tenant label was added.
  size_t WireBytes() const { return 32; }
};
struct MetaUnlinkInodeResp {
  Status status;
  uint64_t nlink = 0;
  Inode inode;
};

struct MetaLinkInodeReq {
  static constexpr const char* kRpcName = "MetaLinkInode";
  PartitionId pid = 0;
  InodeId ino = 0;  obs::TraceContext trace;
  TenantId tenant = 0;
  size_t WireBytes() const { return 32; }  // frozen pre-tenant sizeof
};
struct MetaLinkInodeResp {
  Status status;
  Inode inode;
};

struct MetaEvictInodeReq {
  static constexpr const char* kRpcName = "MetaEvictInode";
  PartitionId pid = 0;
  std::vector<InodeId> inos;  // all on partition `pid`; evicted in one raft entry
  obs::TraceContext trace;
  TenantId tenant = 0;
  size_t WireBytes() const { return 24 + inos.size() * 8; }
};
struct MetaEvictInodeResp {
  Status status;
};

struct MetaGetInodeReq {
  static constexpr const char* kRpcName = "MetaGetInode";
  PartitionId pid = 0;
  InodeId ino = 0;  obs::TraceContext trace;
  TenantId tenant = 0;
  size_t WireBytes() const { return 32; }  // frozen pre-tenant sizeof
};
struct MetaGetInodeResp {
  Status status;
  Inode inode;
};

/// The batched inode fetch CFS uses to serve readdir efficiently (§4.2: a
/// batchInodeGet replaces Ceph's per-inode fetches).
struct MetaBatchInodeGetReq {
  static constexpr const char* kRpcName = "MetaBatchInodeGet";
  PartitionId pid = 0;
  std::vector<InodeId> inos;
  size_t WireBytes() const { return 32 + inos.size() * 8; }  obs::TraceContext trace;
  TenantId tenant = 0;
};
struct MetaBatchInodeGetResp {
  Status status;
  std::vector<Inode> inodes;
  size_t WireBytes() const { return 16 + inodes.size() * 96; }
};

// --- Dentry ops ------------------------------------------------------------

struct MetaCreateDentryReq {
  static constexpr const char* kRpcName = "MetaCreateDentry";
  PartitionId pid = 0;
  Dentry dentry;
  size_t WireBytes() const { return 64 + dentry.name.size(); }  obs::TraceContext trace;
  TenantId tenant = 0;
};
struct MetaCreateDentryResp {
  Status status;
};

struct MetaDeleteDentryReq {
  static constexpr const char* kRpcName = "MetaDeleteDentry";
  PartitionId pid = 0;
  InodeId parent = 0;
  std::string name;
  size_t WireBytes() const { return 48 + name.size(); }  obs::TraceContext trace;
  TenantId tenant = 0;
};
struct MetaDeleteDentryResp {
  Status status;
  Dentry dentry;  // the removed dentry (its inode gets unlinked next)
};

struct MetaLookupReq {
  static constexpr const char* kRpcName = "MetaLookup";
  PartitionId pid = 0;
  InodeId parent = 0;
  std::string name;
  size_t WireBytes() const { return 48 + name.size(); }  obs::TraceContext trace;
  TenantId tenant = 0;
};
struct MetaLookupResp {
  Status status;
  Dentry dentry;
};

struct MetaReadDirReq {
  static constexpr const char* kRpcName = "MetaReadDir";
  PartitionId pid = 0;
  InodeId parent = 0;  obs::TraceContext trace;
  TenantId tenant = 0;
  size_t WireBytes() const { return 32; }  // frozen pre-tenant sizeof
};
struct MetaReadDirResp {
  Status status;
  std::vector<Dentry> dentries;
  size_t WireBytes() const { return 16 + dentries.size() * 64; }
};

// --- File content metadata ---------------------------------------------------

struct MetaAppendExtentReq {
  static constexpr const char* kRpcName = "MetaAppendExtent";
  PartitionId pid = 0;
  InodeId ino = 0;
  ExtentKey key;
  uint64_t new_size = 0;  obs::TraceContext trace;
  TenantId tenant = 0;
  size_t WireBytes() const { return 80; }  // frozen pre-tenant sizeof
};
struct MetaAppendExtentResp {
  Status status;
  Inode inode;
};

struct MetaSetAttrReq {
  static constexpr const char* kRpcName = "MetaSetAttr";
  PartitionId pid = 0;
  InodeId ino = 0;
  uint64_t size = 0;
  int64_t mtime = 0;  obs::TraceContext trace;
  TenantId tenant = 0;
  size_t WireBytes() const { return 48; }  // frozen pre-tenant sizeof
};
struct MetaSetAttrResp {
  Status status;
};

struct MetaTruncateReq {
  static constexpr const char* kRpcName = "MetaTruncate";
  PartitionId pid = 0;
  InodeId ino = 0;
  uint64_t new_size = 0;  obs::TraceContext trace;
  TenantId tenant = 0;
  size_t WireBytes() const { return 40; }  // frozen pre-tenant sizeof
};
struct MetaTruncateResp {
  Status status;
  Inode inode;  // pre-truncate inode: dropped extents get freed by the caller
};

// --- Admin (resource manager -> meta node) ----------------------------------

struct CreateMetaPartitionReq {
  static constexpr const char* kRpcName = "CreateMetaPartition";
  MetaPartitionConfig config;
  std::vector<sim::NodeId> peers;
  size_t WireBytes() const { return 64 + peers.size() * 4; }
};
struct CreateMetaPartitionResp {
  Status status;
};

/// Algorithm 1, step "sync with the meta node": cut the inode range.
struct SplitMetaPartitionReq {
  static constexpr const char* kRpcName = "SplitMetaPartition";
  PartitionId pid = 0;
  InodeId end = 0;
};
struct SplitMetaPartitionResp {
  Status status;
  InodeId max_inode_id = 0;
};

/// Per-partition state reported to the resource manager.
struct MetaPartitionReport {
  PartitionId pid = 0;
  VolumeId volume = 0;
  InodeId start = 0;
  InodeId end = 0;
  InodeId max_inode_id = 0;
  uint64_t item_count = 0;
  bool is_leader = false;
  bool full = false;
};

}  // namespace cfs::meta
