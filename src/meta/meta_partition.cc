#include "meta/meta_partition.h"

#include <algorithm>

namespace cfs::meta {

MetaPartition::MetaPartition(const MetaPartitionConfig& config, sim::Host* host)
    : config_(config),
      host_(host),
      free_list_len_(host->metrics().Gauge("meta.free_list_len")),
      next_inode_(config.start) {
  InitRoot();
}

void MetaPartition::InitRoot() {
  if (!config_.create_root || next_inode_ != kRootInode) return;
  Inode root;
  root.id = next_inode_++;
  root.type = FileType::kDir;
  root.nlink = 2;
  AccountMemory(static_cast<int64_t>(root.MemoryFootprint()));
  inode_tree_.Insert(root.id, std::move(root));
}

MetaPartition::~MetaPartition() {
  // Return the accounted memory to the host.
  if (memory_bytes_ > 0) host_->AddMemory(-static_cast<int64_t>(memory_bytes_));
}

void MetaPartition::AccountMemory(int64_t delta) {
  memory_bytes_ = static_cast<uint64_t>(static_cast<int64_t>(memory_bytes_) + delta);
  host_->AddMemory(delta);
}

// --- Command encoding ------------------------------------------------------

std::string MetaPartition::EncodeCreateInode(FileType type, std::string_view link_target,
                                             int64_t mtime) {
  Encoder enc = Encoder::Command(MetaOp::kCreateInode);
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutString(link_target);
  enc.PutI64(mtime);
  return enc.Take();
}

std::string MetaPartition::EncodeUnlinkInode(InodeId ino) {
  Encoder enc = Encoder::Command(MetaOp::kUnlinkInode);
  enc.PutVarint(ino);
  return enc.Take();
}

std::string MetaPartition::EncodeLinkInode(InodeId ino) {
  Encoder enc = Encoder::Command(MetaOp::kLinkInode);
  enc.PutVarint(ino);
  return enc.Take();
}

std::string MetaPartition::EncodeEvictInode(std::span<const InodeId> inos) {
  Encoder enc = Encoder::Command(MetaOp::kEvictInode);
  enc.PutVarint(inos.size());
  for (InodeId id : inos) enc.PutVarint(id);
  return enc.Take();
}

std::string MetaPartition::EncodeCreateDentry(const Dentry& d) {
  Encoder enc = Encoder::Command(MetaOp::kCreateDentry);
  d.Encode(&enc);
  return enc.Take();
}

std::string MetaPartition::EncodeDeleteDentry(InodeId parent, std::string_view name) {
  Encoder enc = Encoder::Command(MetaOp::kDeleteDentry);
  enc.PutVarint(parent);
  enc.PutString(name);
  return enc.Take();
}

std::string MetaPartition::EncodeAppendExtent(InodeId ino, const ExtentKey& key,
                                              uint64_t new_size) {
  Encoder enc = Encoder::Command(MetaOp::kAppendExtent);
  enc.PutVarint(ino);
  key.Encode(&enc);
  enc.PutVarint(new_size);
  return enc.Take();
}

std::string MetaPartition::EncodeSetAttr(InodeId ino, uint64_t size, int64_t mtime) {
  Encoder enc = Encoder::Command(MetaOp::kSetAttr);
  enc.PutVarint(ino);
  enc.PutVarint(size);
  enc.PutI64(mtime);
  return enc.Take();
}

std::string MetaPartition::EncodeTruncate(InodeId ino, uint64_t new_size) {
  Encoder enc = Encoder::Command(MetaOp::kTruncate);
  enc.PutVarint(ino);
  enc.PutVarint(new_size);
  return enc.Take();
}

std::string MetaPartition::EncodeSetEnd(InodeId end) {
  Encoder enc = Encoder::Command(MetaOp::kSetEnd);
  enc.PutVarint(end);
  return enc.Take();
}

// --- Apply -----------------------------------------------------------------

Inode* MetaPartition::FindInodeToApply(InodeId id, ApplyResult* res) {
  Inode* ino = inode_tree_.FindMutable(id);
  if (!ino) res->status = Status::NotFound("inode " + std::to_string(id));
  return ino;
}

void MetaPartition::Apply(raft::Index /*index*/, const Buffer& cmd, const Buffer& /*payload*/,
                          raft::ApplyOutcome* out) {
  Decoder dec(cmd.view());
  uint8_t op = 0;
  ApplyResult scratch;  // nobody waits: the outcome goes nowhere
  ApplyResult* res = out ? static_cast<ApplyResult*>(out) : &scratch;
  res->status = Status::OK();
  // Each Apply* decodes all its arguments first and returns without
  // touching state when the decoder failed; it sets res->status on failure.
  dec.GetU8(&op);
  switch (static_cast<MetaOp>(op)) {
    case MetaOp::kCreateInode: ApplyCreateInode(&dec, res); break;
    case MetaOp::kUnlinkInode: ApplyUnlinkInode(&dec, res); break;
    case MetaOp::kLinkInode: ApplyLinkInode(&dec, res); break;
    case MetaOp::kEvictInode: ApplyEvictInode(&dec, res); break;
    case MetaOp::kCreateDentry: ApplyCreateDentry(&dec, res); break;
    case MetaOp::kDeleteDentry: ApplyDeleteDentry(&dec, res); break;
    case MetaOp::kAppendExtent: ApplyAppendExtent(&dec, res); break;
    case MetaOp::kSetAttr: ApplySetAttr(&dec, res); break;
    case MetaOp::kTruncate: ApplyTruncate(&dec, res); break;
    case MetaOp::kSetEnd: ApplySetEnd(&dec, res); break;
    default: res->status = Status::Corruption("unknown meta op"); break;
  }
  if (!dec.ok()) res->status = dec.status();
}

void MetaPartition::ApplyCreateInode(Decoder* dec, ApplyResult* res) {
  uint8_t type = 0;
  std::string link_target;
  int64_t mtime = 0;
  dec->GetU8(&type);
  dec->GetString(&link_target);
  dec->GetI64(&mtime);
  if (!dec->ok()) return;

  if (next_inode_ > config_.end) {
    // The id range was cut off by a split; the client must retry on the
    // partition owning the higher range.
    res->status = Status::NoSpace("inode range exhausted");
    return;
  }
  // "The meta node picks up the smallest inode id that has not been used so
  // far in this partition ... and updates its largest inode id" (§2.6.1).
  Inode ino;
  ino.id = next_inode_++;
  ino.type = static_cast<FileType>(type);
  ino.link_target = std::move(link_target);
  // A fresh file inode has one pending link (the dentry about to be
  // created); a directory starts at 2 ("." and itself-in-parent).
  ino.nlink = ino.type == FileType::kDir ? 2 : 1;
  ino.mtime = mtime;
  AccountMemory(static_cast<int64_t>(ino.MemoryFootprint()));
  res->inode = ino;
  inode_tree_.Insert(ino.id, std::move(ino));
}

void MetaPartition::ApplyUnlinkInode(Decoder* dec, ApplyResult* res) {
  InodeId id = 0;
  if (!dec->GetVarint(&id)) return;
  Inode* ino = FindInodeToApply(id, res);
  if (!ino) return;
  if (ino->nlink > 0) ino->nlink--;
  if (ino->nlink <= UnlinkThreshold(ino->type) && !ino->IsDeleted()) {
    ino->flag |= kInodeDeleteMark;
    free_list_.push_back(id);  // content purge handled by the meta node
    free_list_len_++;
  }
  res->value = ino->nlink;
  res->inode = *ino;
}

void MetaPartition::ApplyLinkInode(Decoder* dec, ApplyResult* res) {
  InodeId id = 0;
  if (!dec->GetVarint(&id)) return;
  Inode* ino = FindInodeToApply(id, res);
  if (!ino) return;
  if (ino->IsDeleted()) {
    res->status = Status::NotFound("inode already deleted");
    return;
  }
  ino->nlink++;
  res->inode = *ino;
}

void MetaPartition::ApplyEvictInode(Decoder* dec, ApplyResult* res) {
  uint64_t n = 0;
  dec->GetCount(&n);
  std::vector<InodeId> ids(n);
  for (uint64_t i = 0; i < n && dec->ok(); i++) dec->GetVarint(&ids[i]);
  if (!dec->ok()) return;
  for (InodeId id : ids) {
    const Inode* ino = inode_tree_.Find(id);
    if (!ino) continue;  // idempotent: already evicted
    // The caller needs the extent keys for content purge.
    if (!ino->extents.empty()) res->evicted.push_back(*ino);
    AccountMemory(-static_cast<int64_t>(ino->MemoryFootprint()));
    inode_tree_.Erase(id);
    // Free-list membership is replicated state: erase deterministically here.
    if (auto it = std::find(free_list_.begin(), free_list_.end(), id); it != free_list_.end()) {
      free_list_.erase(it);
      free_list_len_--;
    }
  }
}

void MetaPartition::ApplyCreateDentry(Decoder* dec, ApplyResult* res) {
  Dentry d = Dentry::Decode(dec);
  if (!dec->ok()) return;
  DentryKey key{d.parent, d.name};
  if (dentry_tree_.Contains(key)) {
    res->status = Status::AlreadyExists(d.name);
    return;
  }
  AccountMemory(static_cast<int64_t>(key.MemoryFootprint()));
  dentry_tree_.Insert(std::move(key), DentryValue{d.inode, d.type});
  res->dentry = std::move(d);
}

void MetaPartition::ApplyDeleteDentry(Decoder* dec, ApplyResult* res) {
  InodeId parent = 0;
  std::string name;
  dec->GetVarint(&parent);
  dec->GetString(&name);
  if (!dec->ok()) return;
  DentryKey key{parent, std::move(name)};
  const DentryValue* v = dentry_tree_.Find(key);
  if (!v) {
    res->status = Status::NotFound(key.name);
    return;
  }
  res->dentry = Dentry::Of(key, *v);  // caller unlinks this inode next (§2.6.3)
  AccountMemory(-static_cast<int64_t>(key.MemoryFootprint()));
  dentry_tree_.Erase(key);
}

void MetaPartition::ApplyAppendExtent(Decoder* dec, ApplyResult* res) {
  InodeId id = 0;
  uint64_t new_size = 0;
  dec->GetVarint(&id);
  const ExtentKey key = ExtentKey::Decode(dec);
  dec->GetVarint(&new_size);
  if (!dec->ok()) return;
  Inode* ino = FindInodeToApply(id, res);
  if (!ino) return;
  // A client re-syncing a grown extent replaces the existing key (size is
  // monotone); an exact duplicate (retry) is a no-op.
  bool found = false;
  for (auto& e : ino->extents) {
    if (e.partition_id == key.partition_id && e.extent_id == key.extent_id &&
        e.extent_offset == key.extent_offset && e.file_offset == key.file_offset) {
      e.size = std::max(e.size, key.size);
      found = true;
      break;
    }
  }
  if (!found) {
    ino->extents.push_back(key);
    AccountMemory(sizeof(ExtentKey));
  }
  ino->size = std::max(ino->size, new_size);
  res->inode = *ino;
}

void MetaPartition::ApplySetAttr(Decoder* dec, ApplyResult* res) {
  InodeId id = 0;
  uint64_t size = 0;
  int64_t mtime = 0;
  dec->GetVarint(&id);
  dec->GetVarint(&size);
  dec->GetI64(&mtime);
  if (!dec->ok()) return;
  Inode* ino = FindInodeToApply(id, res);
  if (!ino) return;
  ino->size = size;
  ino->mtime = mtime;
  res->inode = *ino;
}

void MetaPartition::ApplyTruncate(Decoder* dec, ApplyResult* res) {
  InodeId id = 0;
  uint64_t new_size = 0;
  dec->GetVarint(&id);
  dec->GetVarint(&new_size);
  if (!dec->ok()) return;
  Inode* ino = FindInodeToApply(id, res);
  if (!ino) return;
  // Return the truncated-away extent keys so the caller can free content.
  res->inode = *ino;
  const size_t before = ino->extents.size();
  ClipExtentKeys(&ino->extents, new_size);
  AccountMemory(static_cast<int64_t>(ino->extents.size() * sizeof(ExtentKey)) -
                static_cast<int64_t>(before * sizeof(ExtentKey)));
  ino->size = new_size;
}

void MetaPartition::ApplySetEnd(Decoder* dec, ApplyResult* res) {
  InodeId end = 0;
  if (!dec->GetVarint(&end)) return;
  // Algorithm 1: the new end must still cover every allocated inode id.
  if (end < next_inode_ - 1) {
    res->status = Status::InvalidArgument("split end below maxInodeID");
    return;
  }
  config_.end = end;
  res->value = end;
}

// --- Reads -----------------------------------------------------------------

std::optional<Dentry> MetaPartition::Lookup(InodeId parent, const std::string& name) const {
  DentryKey key{parent, name};
  const DentryValue* v = dentry_tree_.Find(key);
  if (!v) return std::nullopt;
  return Dentry::Of(key, *v);
}

std::vector<Dentry> MetaPartition::ReadDir(InodeId parent) const {
  std::vector<Dentry> out;
  dentry_tree_.AscendFrom(DentryKey{parent, ""}, [&](const DentryKey& k, const DentryValue& v) {
    if (k.parent != parent) return false;
    out.push_back(Dentry::Of(k, v));
    return true;
  });
  return out;
}

std::vector<Inode> MetaPartition::BatchInodeGet(const std::vector<InodeId>& inos) const {
  std::vector<Inode> out;
  out.reserve(inos.size());
  for (InodeId id : inos) {
    if (const Inode* ino = inode_tree_.Find(id)) out.push_back(*ino);
  }
  return out;
}

std::vector<InodeId> MetaPartition::ReferencedInodes() const {
  std::vector<InodeId> out;
  dentry_tree_.Ascend([&](const DentryKey&, const DentryValue& v) {
    out.push_back(v.inode);
    return true;
  });
  return out;
}

std::vector<InodeId> MetaPartition::LiveFileInodes() const {
  std::vector<InodeId> out;
  inode_tree_.Ascend([&](const InodeId& id, const Inode& ino) {
    if (!ino.IsDeleted() && ino.type != FileType::kDir) out.push_back(id);
    return true;
  });
  return out;
}

void MetaPartition::CheckInvariants(InvariantReport* report,
                                    const std::string& label) const {
  std::string prefix = label.empty() ? "partition " + std::to_string(config_.id)
                                     : label;
  if (!inode_tree_.CheckInvariants()) {
    report->Violation("meta", prefix + ": inodeTree structural invariant broken");
  }
  if (!dentry_tree_.CheckInvariants()) {
    report->Violation("meta", prefix + ": dentryTree structural invariant broken");
  }
  uint64_t footprint = 0;
  std::set<InodeId> deleted;
  inode_tree_.Ascend([&](const InodeId& id, const Inode& ino) {
    footprint += ino.MemoryFootprint();
    if (ino.id != id) {
      report->Violation("meta", prefix + ": inode " + std::to_string(id) +
                                    " stores mismatched id " + std::to_string(ino.id));
    }
    if (id < config_.start || id >= next_inode_) {
      report->Violation("meta", prefix + ": inode " + std::to_string(id) +
                                    " outside allocated range [" +
                                    std::to_string(config_.start) + ", " +
                                    std::to_string(next_inode_) + ")");
    }
    if (ino.IsDeleted()) {
      deleted.insert(id);
    } else if (ino.nlink < UnlinkThreshold(ino.type) + (ino.IsDir() ? 0u : 1u)) {
      // Live floors: dirs carry "." and ".." (nlink >= 2); files and
      // symlinks are born with nlink 1.
      report->Violation("meta", prefix + ": live inode " + std::to_string(id) +
                                    " has nlink " + std::to_string(ino.nlink) +
                                    " below its floor");
    }
    return true;
  });
  dentry_tree_.Ascend([&](const DentryKey& key, const DentryValue& v) {
    footprint += key.MemoryFootprint();
    if (v.inode == 0) {
      report->Violation("meta", prefix + ": dentry (" + std::to_string(key.parent) +
                                    ", " + key.name + ") references inode 0");
    }
    return true;
  });
  if (footprint != memory_bytes_) {
    report->Violation("meta", prefix + ": memory accounting " +
                                  std::to_string(memory_bytes_) +
                                  " != recomputed footprint " +
                                  std::to_string(footprint));
  }
  // A missed memo invalidation would ship stale bytes in the next snapshot.
  if (EncodeSnapshot(Leaves::kMemoized) != EncodeSnapshot(Leaves::kFresh)) {
    report->Violation("meta", prefix + ": memoized snapshot differs from a fresh encode");
  }
  // Free list <-> delete mark agreement, both directions, no duplicates.
  std::set<InodeId> freed;
  for (InodeId id : free_list_) {
    if (!freed.insert(id).second) {
      report->Violation("meta", prefix + ": inode " + std::to_string(id) +
                                    " appears twice in the free list");
      continue;
    }
    const Inode* ino = inode_tree_.Find(id);
    if (!ino) {
      report->Violation("meta", prefix + ": free-list inode " + std::to_string(id) +
                                    " not in the inodeTree");
    } else if (!ino->IsDeleted()) {
      report->Violation("meta", prefix + ": free-list inode " + std::to_string(id) +
                                    " not marked deleted");
    }
  }
  for (InodeId id : deleted) {
    if (!freed.count(id)) {
      report->Violation("meta", prefix + ": deleted inode " + std::to_string(id) +
                                    " missing from the free list");
    }
  }
}

std::vector<InodeId> MetaPartition::FindOrphanInodes() const {
  std::set<InodeId> referenced;
  dentry_tree_.Ascend([&](const DentryKey&, const DentryValue& v) {
    referenced.insert(v.inode);
    return true;
  });
  std::vector<InodeId> orphans;
  inode_tree_.Ascend([&](const InodeId& id, const Inode& ino) {
    if (!referenced.count(id) && !ino.IsDeleted() && ino.type != FileType::kDir) {
      orphans.push_back(id);
    }
    return true;
  });
  return orphans;
}

// --- Snapshot --------------------------------------------------------------

std::string MetaPartition::EncodeSnapshot(Leaves leaves) const {
  Encoder enc;
  // A tree's item count and pairs in key order; every `leaves` mode yields
  // the same bytes.
  auto put_tree = [&](const auto& tree) {
    enc.PutVarint(tree.size());
    if (leaves != Leaves::kFresh) {
      tree.EncodeValues(
          &enc, snapshot_.view(),
          [](const auto& k, const auto& v, Encoder* e) { EncodeTreePair(k, v, e); },
          /*adopt=*/leaves == Leaves::kAdopt);
      return;
    }
    tree.Ascend([&](const auto& k, const auto& v) {
      EncodeTreePair(k, v, &enc);
      return true;
    });
  };
  enc.PutVarint(config_.id);
  enc.PutVarint(config_.volume);
  enc.PutVarint(config_.start);
  enc.PutVarint(config_.end);
  enc.PutVarint(next_inode_);
  put_tree(inode_tree_);
  put_tree(dentry_tree_);
  enc.PutVarint(free_list_.size());
  for (InodeId id : free_list_) enc.PutVarint(id);
  return enc.Take();
}

Buffer MetaPartition::TakeSnapshot() {
  // The leaves copy out of the old snapshot before it is let go.
  snapshot_ = Buffer::FromString(EncodeSnapshot(Leaves::kAdopt));
  return snapshot_;
}

void MetaPartition::CorruptSnapshotMemoForTest() {
  (void)TakeSnapshot();  // every leaf memo clean
  inode_tree_.CorruptLeafMemoForTest();
}

Status MetaPartition::Restore(std::string_view snapshot) {
  // Decode into fresh trees and swap them in only if every record decoded.
  MetaPartitionConfig config = config_;
  InodeId next_inode = config_.start;
  InodeTree inodes;
  DentryTree dentries;
  std::deque<InodeId> free_list;
  int64_t mem = 0;
  if (!snapshot.empty()) {
    Decoder dec(snapshot);
    uint64_t n = 0;
    dec.GetVarint(&config.id);
    dec.GetVarint(&config.volume);
    dec.GetVarint(&config.start);
    dec.GetVarint(&config.end);
    dec.GetVarint(&next_inode);
    dec.GetCount(&n);
    for (uint64_t i = 0; i < n && dec.ok(); i++) {
      Inode ino = Inode::Decode(&dec);
      mem += static_cast<int64_t>(ino.MemoryFootprint());
      const InodeId id = ino.id;
      inodes.Insert(id, std::move(ino));
    }
    dec.GetCount(&n);
    for (uint64_t i = 0; i < n && dec.ok(); i++) {
      Dentry d = Dentry::Decode(&dec);
      const DentryValue v{d.inode, d.type};
      DentryKey key{d.parent, std::move(d.name)};
      mem += static_cast<int64_t>(key.MemoryFootprint());
      dentries.Insert(std::move(key), v);
    }
    dec.GetCount(&n);
    free_list.resize(n);
    for (uint64_t i = 0; i < n && dec.ok(); i++) dec.GetVarint(&free_list[i]);
    if (!dec.ok()) return dec.status();
  }
  AccountMemory(-static_cast<int64_t>(memory_bytes_));
  free_list_len_ += static_cast<int64_t>(free_list.size()) - static_cast<int64_t>(free_list_.size());
  config_ = config;
  next_inode_ = next_inode;
  inode_tree_ = std::move(inodes);
  dentry_tree_ = std::move(dentries);
  snapshot_ = {};  // the new trees' leaves are all dirty
  free_list_ = std::move(free_list);
  if (snapshot.empty()) InitRoot();
  AccountMemory(mem);
  return Status::OK();
}

}  // namespace cfs::meta
