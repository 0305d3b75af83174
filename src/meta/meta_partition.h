// A meta partition (§2.1.1): an in-memory shard of the file metadata of one
// volume, holding the inodeTree and dentryTree B-trees, replicated by raft,
// persisted via snapshots + logs (§2.1.3), and owning an inode id range
// [start, end] that the resource manager may cut off when splitting
// (Algorithm 1).
//
// Write operations are raft commands applied deterministically by every
// replica; reads (lookup, readdir, batch inode get) are served from leader
// memory without consensus, matching the paper's read-at-leader design.
#pragma once

#include <deque>
#include <optional>
#include <set>
#include <span>

#include "common/check.h"
#include "meta/btree.h"
#include "meta/types.h"
#include "raft/types.h"
#include "sim/network.h"

namespace cfs::raft {
class RaftNode;
}  // namespace cfs::raft

namespace cfs::meta {

/// Raft command opcodes for meta partitions.
enum class MetaOp : uint8_t {
  kCreateInode = 1,
  kUnlinkInode = 2,   // nlink--; marks deleted at the threshold
  kLinkInode = 3,     // nlink++
  kEvictInode = 4,    // remove a list of fully-deleted/orphan inodes from the tree
  kCreateDentry = 5,
  kDeleteDentry = 6,
  kAppendExtent = 7,  // record an extent key + new size on an inode
  kSetAttr = 8,
  kTruncate = 9,
  kSetEnd = 10,       // Algorithm 1: cut off the inode id range at `end`
};

/// Outcome of applying a meta command, written into the proposer's slot
/// (`value`: nlink after unlink, etc.).
struct ApplyResult : raft::ApplyOutcome {
  Inode inode;    // for inode-returning ops
  Dentry dentry;  // for dentry-returning ops
  /// kEvictInode: the evicted inodes that have extents, whose content the
  /// leader still has to purge (§2.7.3).
  std::vector<Inode> evicted;
};

/// The partition's B-trees (§2.1.1). A dentry's key is not repeated in its
/// value (DESIGN.md "Meta B-tree node layout").
using InodeTree = BTree<InodeId, Inode>;
using DentryTree = BTree<DentryKey, DentryValue>;

/// How a snapshot encodes one pair of each tree (BTree::EncodeValues).
inline void EncodeTreePair(const InodeId&, const Inode& ino, Encoder* enc) { ino.Encode(enc); }
inline void EncodeTreePair(const DentryKey& key, const DentryValue& v, Encoder* enc) {
  Dentry::Encode(key.parent, key.name, v.inode, v.type, enc);
}

struct MetaPartitionConfig {
  PartitionId id = 0;
  VolumeId volume = 0;
  InodeId start = kRootInode;               // first allocatable inode id
  InodeId end = UINT64_MAX;                 // inclusive range end (∞ until split)
  uint64_t max_items = 1u << 20;            // inode+dentry capacity threshold
  /// Set on the volume's first partition: pre-creates the root directory
  /// inode (id 1) as part of the partition's initial state.
  bool create_root = false;
  uint32_t qos_weight = 1;  // weighted-fair admission share of the owning volume
};

class MetaPartition : public raft::StateMachine {
 public:
  MetaPartition(const MetaPartitionConfig& config, sim::Host* host);

  /// Deterministic initial state: the root directory inode, when configured.
  void InitRoot();
  ~MetaPartition() override;

  const MetaPartitionConfig& config() const { return config_; }
  PartitionId id() const { return config_.id; }
  /// This replica's raft node (MetaNode attaches it when it creates the group).
  raft::RaftNode* raft_node() const { return raft_node_; }
  void set_raft_node(raft::RaftNode* rn) { raft_node_ = rn; }

  // --- Command encoding (client/meta-node side) ---
  static std::string EncodeCreateInode(FileType type, std::string_view link_target,
                                       int64_t mtime);
  static std::string EncodeUnlinkInode(InodeId ino);
  static std::string EncodeLinkInode(InodeId ino);
  static std::string EncodeEvictInode(std::span<const InodeId> inos);
  static std::string EncodeCreateDentry(const Dentry& d);
  static std::string EncodeDeleteDentry(InodeId parent, std::string_view name);
  static std::string EncodeAppendExtent(InodeId ino, const ExtentKey& key, uint64_t new_size);
  static std::string EncodeSetAttr(InodeId ino, uint64_t size, int64_t mtime);
  static std::string EncodeTruncate(InodeId ino, uint64_t new_size);
  static std::string EncodeSetEnd(InodeId end);

  // --- raft::StateMachine ---
  /// Meta commands carry no bulk payload: the whole command is `cmd`. A
  /// non-null `out` is an ApplyResult (MetaNode::Execute proposes with one).
  void Apply(raft::Index index, const Buffer& cmd, const Buffer& payload,
             raft::ApplyOutcome* out) override;
  /// Re-encodes only the B-tree leaves changed since the last snapshot and
  /// copies the rest out of it; the result becomes the memo views' storage.
  Buffer TakeSnapshot() override;
  Status Restore(std::string_view snapshot) override;

  // --- Leader reads (no consensus; §2.7.4 reads happen at the leader) ---
  const Inode* GetInode(InodeId ino) const { return inode_tree_.Find(ino); }
  std::optional<Dentry> Lookup(InodeId parent, const std::string& name) const;
  std::vector<Dentry> ReadDir(InodeId parent) const;
  std::vector<Inode> BatchInodeGet(const std::vector<InodeId>& inos) const;

  // --- Capacity / placement inputs ---
  InodeId max_inode_id() const { return next_inode_ - 1; }
  size_t inode_count() const { return inode_tree_.size(); }
  size_t dentry_count() const { return dentry_tree_.size(); }
  size_t item_count() const { return inode_tree_.size() + dentry_tree_.size(); }
  bool IsFull() const { return item_count() >= config_.max_items || next_inode_ > config_.end; }
  uint64_t memory_bytes() const { return memory_bytes_; }
  bool read_only() const { return read_only_; }
  void set_read_only(bool v) { read_only_ = v; }

  /// Inodes marked deleted, awaiting content purge (the free list). Entries
  /// are removed deterministically when the evict command applies.
  const std::deque<InodeId>& free_list() const { return free_list_; }

  /// fsck helper: inode ids on THIS partition with no LOCAL referencing
  /// dentry. Because CFS stores a file's inode and dentry on potentially
  /// different partitions (§2.6), real fsck must union ReferencedInodes()
  /// across all partitions of the volume and subtract; see the
  /// fault-injection tests for the full walk.
  std::vector<InodeId> FindOrphanInodes() const;

  /// All inode ids referenced by dentries stored on this partition.
  std::vector<InodeId> ReferencedInodes() const;

  /// All live (non-deleted) file inode ids stored on this partition.
  std::vector<InodeId> LiveFileInodes() const;

  /// Deep checks / fsck: visit every inode or dentry on this partition in
  /// key order. `fn(id, inode)` or `fn(dentry)` returns false to stop.
  template <typename F>
  void ForEachInode(F fn) const {
    inode_tree_.Ascend(fn);
  }
  template <typename F>
  void ForEachDentry(F fn) const {
    dentry_tree_.Ascend(
        [&](const DentryKey& key, const DentryValue& v) { return fn(Dentry::Of(key, v)); });
  }

  /// Negative-test hook: direct mutable access so tests can seed a
  /// deliberate corruption (bad nlink, wrong id) and assert CheckInvariants
  /// fires. Not for production paths.
  Inode* MutableInodeForTest(InodeId id) { return inode_tree_.FindMutable(id); }
  /// Negative-test hook: take a snapshot, then leave an inodeTree leaf's
  /// memo view out of step with its values so the snapshot deep check fires.
  void CorruptSnapshotMemoForTest();

  /// Deep check (see common/check.h): B-tree structure of both trees, inode
  /// ids within the partition's allocated range, memory accounting,
  /// free-list <-> delete-mark agreement, and local nlink floors (live
  /// dirs >= 2, live files/symlinks >= 1), and the memoized
  /// snapshot against a fresh encode. Cross-partition
  /// dentry->inode referential integrity lives in
  /// harness::Cluster::CheckInvariants, because a file's dentry and inode may
  /// sit on different partitions (§2.6). Violations are tagged "meta" and
  /// prefixed with `label`.
  void CheckInvariants(InvariantReport* report, const std::string& label = "") const;

 private:
  void ApplyCreateInode(Decoder* dec, ApplyResult* res);
  void ApplyUnlinkInode(Decoder* dec, ApplyResult* res);
  void ApplyLinkInode(Decoder* dec, ApplyResult* res);
  void ApplyEvictInode(Decoder* dec, ApplyResult* res);
  void ApplyCreateDentry(Decoder* dec, ApplyResult* res);
  void ApplyDeleteDentry(Decoder* dec, ApplyResult* res);
  void ApplyAppendExtent(Decoder* dec, ApplyResult* res);
  void ApplySetAttr(Decoder* dec, ApplyResult* res);
  void ApplyTruncate(Decoder* dec, ApplyResult* res);
  void ApplySetEnd(Decoder* dec, ApplyResult* res);
  /// The inode a command mutates; null, with NotFound in `res`, if absent.
  Inode* FindInodeToApply(InodeId id, ApplyResult* res);

  void AccountMemory(int64_t delta);
  /// How EncodeSnapshot gets the B-tree leaves' bytes: by a fresh walk,
  /// from the memo views, or from the views and moving them to the result.
  enum class Leaves { kFresh, kMemoized, kAdopt };
  std::string EncodeSnapshot(Leaves leaves) const;

  MetaPartitionConfig config_;
  sim::Host* host_;
  raft::RaftNode* raft_node_ = nullptr;
  /// Host gauge "meta.free_list_len": deleted inodes awaiting eviction,
  /// summed over the host's partition replicas.
  int64_t& free_list_len_;

  InodeTree inode_tree_;
  DentryTree dentry_tree_;
  /// The last snapshot TakeSnapshot returned, which the raft log store
  /// shares; the trees' clean leaves are views into it.
  Buffer snapshot_;
  InodeId next_inode_;
  std::deque<InodeId> free_list_;
  uint64_t memory_bytes_ = 0;
  bool read_only_ = false;
};

}  // namespace cfs::meta
