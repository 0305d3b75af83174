// POSIX-like file-system facade over one CFS mount (client::MountContext):
// the in-process stand-in for the FUSE integration (§2.4). Provides path
// resolution, a file descriptor table, and the usual operations
// (open/read/write/mkdir/readdir/unlink/rename/symlink/stat) with CFS's
// relaxed consistency semantics (§2.7): sequential consistency, no leases,
// and no atomicity guarantee between the inode and dentry of one file beyond
// "a dentry always points at a live inode".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "client/client.h"

namespace cfs::vfs {

using client::MountContext;
using meta::FileType;
using meta::InodeId;

/// Open flags (subset of POSIX).
enum OpenFlags : uint32_t {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kCreate = 1u << 2,
  kTruncate = 1u << 3,
  kAppend = 1u << 4,
  kExclusive = 1u << 5,  // with kCreate: fail if the path exists
};

struct Attr {
  InodeId ino = 0;
  FileType type = FileType::kFile;
  uint64_t size = 0;
  uint32_t nlink = 0;
  int64_t mtime = 0;
};

struct DirEntry {
  std::string name;
  Attr attr;
};

using Fd = int;

class FileSystem {
 public:
  explicit FileSystem(MountContext* mount) : mount_(mount) {}

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // --- Directories ---
  sim::Task<Status> Mkdir(std::string path);
  sim::Task<Status> Rmdir(std::string path);  // fails on non-empty dirs
  sim::Task<Result<std::vector<DirEntry>>> ListDir(std::string path);

  // --- Files ---
  sim::Task<Result<Fd>> Open(std::string path, uint32_t flags);
  sim::Task<Status> Close(Fd fd);
  sim::Task<Status> Fsync(Fd fd);

  /// Write at the descriptor's offset; advances it.
  sim::Task<Result<size_t>> Write(Fd fd, std::string data);
  /// Positional write; does not move the offset.
  sim::Task<Result<size_t>> Pwrite(Fd fd, uint64_t offset, std::string data);
  /// Read up to `len` bytes at the descriptor's offset; advances it.
  sim::Task<Result<std::string>> Read(Fd fd, uint64_t len);
  sim::Task<Result<std::string>> Pread(Fd fd, uint64_t offset, uint64_t len);

  sim::Task<Result<uint64_t>> Seek(Fd fd, uint64_t offset);

  sim::Task<Status> Unlink(std::string path);
  sim::Task<Status> Rename(std::string from, std::string to);
  sim::Task<Status> Truncate(std::string path, uint64_t size);

  // --- Links ---
  sim::Task<Status> HardLink(std::string existing, std::string link_path);
  sim::Task<Status> Symlink(std::string target, std::string link_path);
  sim::Task<Result<std::string>> ReadLink(std::string path);

  // --- Metadata ---
  sim::Task<Result<Attr>> Stat(std::string path);
  sim::Task<Result<bool>> Exists(std::string path);

  MountContext* mount() { return mount_; }
  size_t open_fds() const { return fds_.size(); }

 private:
  struct FdState {
    InodeId ino = 0;
    uint64_t offset = 0;
    uint32_t flags = 0;
  };

  /// Split "/a/b/c" into components; rejects empty and non-absolute paths.
  static Status SplitPath(const std::string& path, std::vector<std::string>* parts);

  /// Resolve a path to its inode, following symlinks (bounded depth).
  /// With `want_parent`, resolves to the parent directory and returns the
  /// final component in `last`.
  sim::Task<Result<InodeId>> Resolve(std::string path, bool follow_symlink = true);
  sim::Task<Result<InodeId>> ResolveParent(const std::string& path, std::string* last);

  static Attr ToAttr(const meta::Inode& ino);

  MountContext* mount_;
  std::map<Fd, FdState> fds_;
  Fd next_fd_ = 3;  // 0-2 reserved, as tradition demands
};

}  // namespace cfs::vfs
