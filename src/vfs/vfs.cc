#include "vfs/vfs.h"

namespace cfs::vfs {

using meta::kRootInode;
using sim::Task;

Status FileSystem::SplitPath(const std::string& path, std::vector<std::string>* parts) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  parts->clear();
  size_t i = 1;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string::npos) j = path.size();
    if (j > i) {
      std::string part = path.substr(i, j - i);
      if (part == ".") {
        // skip
      } else if (part == "..") {
        if (parts->empty()) return Status::InvalidArgument(".. above root");
        parts->pop_back();
      } else {
        parts->push_back(std::move(part));
      }
    }
    i = j + 1;
  }
  return Status::OK();
}

Attr FileSystem::ToAttr(const meta::Inode& ino) {
  Attr a;
  a.ino = ino.id;
  a.type = ino.type;
  a.size = ino.size;
  a.nlink = ino.nlink;
  a.mtime = ino.mtime;
  return a;
}

Task<Result<InodeId>> FileSystem::Resolve(std::string path, bool follow_symlink) {
  std::vector<std::string> parts;
  CFS_CO_RETURN_IF_ERROR(SplitPath(path, &parts));
  InodeId cur = kRootInode;
  int symlink_budget = 16;
  for (size_t i = 0; i < parts.size(); i++) {
    auto d = co_await mount_->Lookup(cur, parts[i]);
    if (!d.ok()) co_return d.status();
    if (d->type == FileType::kSymlink && (follow_symlink || i + 1 < parts.size())) {
      if (--symlink_budget == 0) co_return Status::InvalidArgument("symlink loop");
      auto target_ino = co_await mount_->GetInode(d->inode);
      if (!target_ino.ok()) co_return target_ino.status();
      // Restart resolution at the symlink target + remaining components.
      std::string rest;
      for (size_t k = i + 1; k < parts.size(); k++) rest += "/" + parts[k];
      std::string target = target_ino->link_target + rest;
      std::vector<std::string> new_parts;
      CFS_CO_RETURN_IF_ERROR(SplitPath(target, &new_parts));
      parts = std::move(new_parts);
      cur = kRootInode;
      i = static_cast<size_t>(-1);  // restart loop
      continue;
    }
    cur = d->inode;
  }
  co_return cur;
}

Task<Result<InodeId>> FileSystem::ResolveParent(const std::string& path, std::string* last) {
  std::vector<std::string> parts;
  CFS_CO_RETURN_IF_ERROR(SplitPath(path, &parts));
  if (parts.empty()) co_return Status::InvalidArgument("root has no parent");
  *last = parts.back();
  std::string parent = "/";
  for (size_t i = 0; i + 1 < parts.size(); i++) parent += parts[i] + "/";
  co_return co_await Resolve(parent);
}

// --- Directories -------------------------------------------------------------

Task<Status> FileSystem::Mkdir(std::string path) {
  std::string name;
  auto parent = co_await ResolveParent(path, &name);
  if (!parent.ok()) co_return parent.status();
  auto r = co_await mount_->Create(*parent, name, FileType::kDir);
  co_return r.status();
}

Task<Status> FileSystem::Rmdir(std::string path) {
  auto ino = co_await Resolve(path);
  if (!ino.ok()) co_return ino.status();
  auto attr = co_await mount_->GetInode(*ino);
  if (!attr.ok()) co_return attr.status();
  if (!attr->IsDir()) co_return Status::InvalidArgument("not a directory");
  auto entries = co_await mount_->ReadDir(*ino);
  if (!entries.ok()) co_return entries.status();
  if (!entries->empty()) co_return Status::InvalidArgument("directory not empty");
  std::string name;
  auto parent = co_await ResolveParent(path, &name);
  if (!parent.ok()) co_return parent.status();
  co_return co_await mount_->Unlink(*parent, name);
}

Task<Result<std::vector<DirEntry>>> FileSystem::ListDir(std::string path) {
  auto ino = co_await Resolve(path);
  if (!ino.ok()) co_return ino.status();
  auto pairs = co_await mount_->ReadDirPlus(*ino);
  if (!pairs.ok()) co_return pairs.status();
  std::vector<DirEntry> out;
  out.reserve(pairs->size());
  for (auto& [dentry, inode] : *pairs) {
    out.push_back(DirEntry{dentry.name, ToAttr(inode)});
  }
  co_return out;
}

// --- Files ---------------------------------------------------------------------

Task<Result<Fd>> FileSystem::Open(std::string path, uint32_t flags) {
  auto resolved = co_await Resolve(path);
  InodeId ino = 0;
  if (resolved.ok()) {
    if ((flags & kCreate) && (flags & kExclusive)) {
      co_return Status::AlreadyExists(path);
    }
    ino = *resolved;
  } else if (resolved.status().IsNotFound() && (flags & kCreate)) {
    std::string name;
    auto parent = co_await ResolveParent(path, &name);
    if (!parent.ok()) co_return parent.status();
    auto created = co_await mount_->Create(*parent, name, FileType::kFile);
    if (!created.ok()) {
      // Lost a create race: fall back to the winner's file.
      if (created.status().IsAlreadyExists() && !(flags & kExclusive)) {
        auto again = co_await Resolve(path);
        if (!again.ok()) co_return again.status();
        ino = *again;
      } else {
        co_return created.status();
      }
    } else {
      ino = created->id;
    }
  } else {
    co_return resolved.status();
  }

  CFS_CO_RETURN_IF_ERROR(co_await mount_->Open(ino));
  if (flags & kTruncate) {
    CFS_CO_RETURN_IF_ERROR(co_await mount_->Truncate(ino, 0));
  }
  FdState st;
  st.ino = ino;
  st.flags = flags;
  if (flags & kAppend) {
    auto inode = co_await mount_->GetInode(ino);
    if (inode.ok()) st.offset = inode->size;
  }
  Fd fd = next_fd_++;
  fds_[fd] = st;
  co_return fd;
}

Task<Status> FileSystem::Close(Fd fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) co_return Status::InvalidArgument("bad fd");
  InodeId ino = it->second.ino;
  fds_.erase(it);
  // Close flushes metadata only when no other descriptor references the
  // inode (last-close semantics).
  for (const auto& [ofd, st] : fds_) {
    if (st.ino == ino) co_return Status::OK();
  }
  co_return co_await mount_->Close(ino);
}

Task<Status> FileSystem::Fsync(Fd fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) co_return Status::InvalidArgument("bad fd");
  co_return co_await mount_->Fsync(it->second.ino);
}

Task<Result<size_t>> FileSystem::Write(Fd fd, std::string data) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) co_return Status::InvalidArgument("bad fd");
  if (!(it->second.flags & kWrite)) co_return Status::InvalidArgument("fd not writable");
  size_t n = data.size();
  CFS_CO_RETURN_IF_ERROR(
      co_await mount_->Write(it->second.ino, it->second.offset, std::move(data)));
  // Re-look the fd up: fds_ may have been mutated (open/close) while this
  // coroutine was suspended in the write, invalidating the iterator (A1).
  it = fds_.find(fd);
  if (it != fds_.end()) it->second.offset += n;
  co_return n;
}

Task<Result<size_t>> FileSystem::Pwrite(Fd fd, uint64_t offset, std::string data) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) co_return Status::InvalidArgument("bad fd");
  if (!(it->second.flags & kWrite)) co_return Status::InvalidArgument("fd not writable");
  size_t n = data.size();
  CFS_CO_RETURN_IF_ERROR(co_await mount_->Write(it->second.ino, offset, std::move(data)));
  co_return n;
}

Task<Result<std::string>> FileSystem::Read(Fd fd, uint64_t len) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) co_return Status::InvalidArgument("bad fd");
  auto r = co_await mount_->Read(it->second.ino, it->second.offset, len);
  if (!r.ok()) co_return r.status();
  // Re-look the fd up: fds_ may have been mutated (open/close) while this
  // coroutine was suspended in the read, invalidating the iterator (A1).
  it = fds_.find(fd);
  if (it != fds_.end()) it->second.offset += r->size();
  co_return r->ToString();  // VFS hands out owned bytes (POSIX read semantics)
}

Task<Result<std::string>> FileSystem::Pread(Fd fd, uint64_t offset, uint64_t len) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) co_return Status::InvalidArgument("bad fd");
  auto r = co_await mount_->Read(it->second.ino, offset, len);
  if (!r.ok()) co_return r.status();
  co_return r->ToString();
}

Task<Result<uint64_t>> FileSystem::Seek(Fd fd, uint64_t offset) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) co_return Status::InvalidArgument("bad fd");
  it->second.offset = offset;
  co_return offset;
}

Task<Status> FileSystem::Unlink(std::string path) {
  auto ino = co_await Resolve(path, /*follow_symlink=*/false);
  if (!ino.ok()) co_return ino.status();
  auto attr = co_await mount_->GetInode(*ino);
  if (attr.ok() && attr->IsDir()) co_return Status::InvalidArgument("is a directory");
  std::string name;
  auto parent = co_await ResolveParent(path, &name);
  if (!parent.ok()) co_return parent.status();
  co_return co_await mount_->Unlink(*parent, name);
}

Task<Status> FileSystem::Rename(std::string from, std::string to) {
  std::string from_name, to_name;
  auto from_parent = co_await ResolveParent(from, &from_name);
  if (!from_parent.ok()) co_return from_parent.status();
  auto to_parent = co_await ResolveParent(to, &to_name);
  if (!to_parent.ok()) co_return to_parent.status();
  co_return co_await mount_->Rename(*from_parent, from_name, *to_parent, to_name);
}

Task<Status> FileSystem::Truncate(std::string path, uint64_t size) {
  auto ino = co_await Resolve(path);
  if (!ino.ok()) co_return ino.status();
  co_return co_await mount_->Truncate(*ino, size);
}

// --- Links ---------------------------------------------------------------------

Task<Status> FileSystem::HardLink(std::string existing, std::string link_path) {
  auto ino = co_await Resolve(existing);
  if (!ino.ok()) co_return ino.status();
  auto attr = co_await mount_->GetInode(*ino);
  if (attr.ok() && attr->IsDir()) {
    co_return Status::InvalidArgument("hard links to directories are not allowed");
  }
  std::string name;
  auto parent = co_await ResolveParent(link_path, &name);
  if (!parent.ok()) co_return parent.status();
  co_return co_await mount_->Link(*parent, name, *ino);
}

Task<Status> FileSystem::Symlink(std::string target, std::string link_path) {
  std::string name;
  auto parent = co_await ResolveParent(link_path, &name);
  if (!parent.ok()) co_return parent.status();
  auto r = co_await mount_->Create(*parent, name, FileType::kSymlink, target);
  co_return r.status();
}

Task<Result<std::string>> FileSystem::ReadLink(std::string path) {
  auto ino = co_await Resolve(path, /*follow_symlink=*/false);
  if (!ino.ok()) co_return ino.status();
  auto inode = co_await mount_->GetInode(*ino);
  if (!inode.ok()) co_return inode.status();
  if (inode->type != FileType::kSymlink) co_return Status::InvalidArgument("not a symlink");
  co_return inode->link_target;
}

// --- Metadata --------------------------------------------------------------------

Task<Result<Attr>> FileSystem::Stat(std::string path) {
  auto ino = co_await Resolve(path);
  if (!ino.ok()) co_return ino.status();
  auto inode = co_await mount_->GetInode(*ino);
  if (!inode.ok()) co_return inode.status();
  co_return ToAttr(*inode);
}

Task<Result<bool>> FileSystem::Exists(std::string path) {
  auto ino = co_await Resolve(path);
  if (ino.ok()) co_return true;
  if (ino.status().IsNotFound()) co_return false;
  co_return ino.status();
}

}  // namespace cfs::vfs
