// Inode and dentry definitions (§2.1.1). Mirrors the paper's structures:
// the inode carries type, link target, nlink and flags; the dentry is keyed
// by (parent inode id, name) and references the child inode. Extent
// locations of file content are recorded on the inode as ExtentKeys.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/units.h"

namespace cfs::meta {

using InodeId = uint64_t;
using PartitionId = uint64_t;
using VolumeId = uint64_t;

constexpr InodeId kRootInode = 1;

enum class FileType : uint8_t { kFile = 1, kDir = 2, kSymlink = 3 };

/// Inode flag bits.
constexpr uint32_t kInodeDeleteMark = 1u << 0;  // nlink hit threshold; content pending purge

/// Location of a piece of file content: which data partition / extent, the
/// physical offset inside the extent (non-zero only for aggregated small
/// files, §2.2.3), and the logical placement in the file.
struct ExtentKey {
  uint64_t file_offset = 0;
  PartitionId partition_id = 0;
  uint64_t extent_id = 0;
  uint64_t extent_offset = 0;
  uint64_t size = 0;

  void Encode(Encoder* enc) const {
    enc->PutVarint(file_offset);
    enc->PutVarint(partition_id);
    enc->PutVarint(extent_id);
    enc->PutVarint(extent_offset);
    enc->PutVarint(size);
  }
  /// Decoders leave an underflow latched in `dec`: check dec->ok() after.
  static ExtentKey Decode(Decoder* dec) {
    ExtentKey k;
    dec->GetVarint(&k.file_offset);
    dec->GetVarint(&k.partition_id);
    dec->GetVarint(&k.extent_id);
    dec->GetVarint(&k.extent_offset);
    dec->GetVarint(&k.size);
    return k;
  }
  bool operator==(const ExtentKey&) const = default;
};

/// Truncate to `size` (§2.7): keys that start at or past it go, and a key
/// straddling it is cut to end there. The meta node and an open file's
/// client-side copy cut the same way.
inline void ClipExtentKeys(std::vector<ExtentKey>* keys, uint64_t size) {
  std::erase_if(*keys, [size](const ExtentKey& k) { return k.file_offset >= size; });
  for (ExtentKey& k : *keys) k.size = std::min(k.size, size - k.file_offset);
}

struct Inode {
  InodeId id = 0;
  FileType type = FileType::kFile;
  std::string link_target;  // symlink target name
  uint32_t nlink = 0;
  uint32_t flag = 0;
  uint64_t size = 0;
  int64_t mtime = 0;
  std::vector<ExtentKey> extents;

  bool IsDeleted() const { return (flag & kInodeDeleteMark) != 0; }
  bool IsDir() const { return type == FileType::kDir; }

  /// Approximate resident memory, used for utilization-based placement.
  uint64_t MemoryFootprint() const {
    return 96 + link_target.size() + extents.size() * sizeof(ExtentKey);
  }

  void Encode(Encoder* enc) const {
    enc->PutVarint(id);
    enc->PutU8(static_cast<uint8_t>(type));
    enc->PutString(link_target);
    enc->PutU32(nlink);
    enc->PutU32(flag);
    enc->PutVarint(size);
    enc->PutI64(mtime);
    enc->PutVarint(extents.size());
    for (const auto& e : extents) e.Encode(enc);
  }
  static Inode Decode(Decoder* dec) {
    Inode ino;
    uint8_t type = 0;
    dec->GetVarint(&ino.id);
    dec->GetU8(&type);
    ino.type = static_cast<FileType>(type);
    dec->GetString(&ino.link_target);
    dec->GetU32(&ino.nlink);
    dec->GetU32(&ino.flag);
    dec->GetVarint(&ino.size);
    dec->GetI64(&ino.mtime);
    uint64_t n = 0;
    dec->GetCount(&n);  // bounded by the bytes left, so resize cannot blow up
    ino.extents.resize(n);
    for (uint64_t i = 0; i < n && dec->ok(); i++) ino.extents[i] = ExtentKey::Decode(dec);
    return ino;
  }
};

struct DentryKey {
  InodeId parent = 0;
  std::string name;

  /// Approximate resident memory of the dentry stored under this key, used
  /// for utilization-based placement.
  uint64_t MemoryFootprint() const { return 48 + name.size(); }

  bool operator<(const DentryKey& o) const {
    if (parent != o.parent) return parent < o.parent;
    return name < o.name;
  }
  bool operator==(const DentryKey&) const = default;
};

/// What the dentryTree stores under a DentryKey: the rest of the dentry,
/// without repeating the key.
struct DentryValue {
  InodeId inode = 0;
  FileType type = FileType::kFile;
};

struct Dentry {
  InodeId parent = 0;
  std::string name;
  InodeId inode = 0;
  FileType type = FileType::kFile;

  /// The dentry a dentryTree pair stands for.
  static Dentry Of(const DentryKey& key, const DentryValue& v) {
    return {key.parent, key.name, v.inode, v.type};
  }

  void Encode(Encoder* enc) const { Encode(parent, name, inode, type, enc); }
  /// The one dentry encoding, for a Dentry and for a dentryTree pair alike.
  static void Encode(InodeId parent, std::string_view name, InodeId inode, FileType type,
                     Encoder* enc) {
    enc->PutVarint(parent);
    enc->PutString(name);
    enc->PutVarint(inode);
    enc->PutU8(static_cast<uint8_t>(type));
  }
  static Dentry Decode(Decoder* dec) {
    Dentry d;
    uint8_t type = 0;
    dec->GetVarint(&d.parent);
    dec->GetString(&d.name);
    dec->GetVarint(&d.inode);
    dec->GetU8(&type);
    d.type = static_cast<FileType>(type);
    return d;
  }
};

/// nlink threshold at which an inode is marked deleted (§2.6.3, §2.7.3):
/// 0 for files and symlinks, 2 for directories ("." and "..").
inline uint32_t UnlinkThreshold(FileType type) {
  return type == FileType::kDir ? 2u : 0u;
}

}  // namespace cfs::meta
