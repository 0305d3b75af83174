#include "storage/extent_store.h"

#include <algorithm>

namespace cfs::storage {

namespace {
/// Detached disk-time charge of the raft-applied (synchronous) mutations.
/// A zero-byte write is a metadata-only op (unlink, fallocate punch): it
/// charges the disk's fixed latency, not a data transfer.
sim::Task<void> ChargeWrite(sim::Disk* disk, uint64_t bytes) {
  (void)co_await disk->Write(bytes);
}
}  // namespace

Status ExtentStore::OverwriteSync(ExtentId id, uint64_t offset, const Buffer& data) {
  Extent* e = FindMutable(id);
  if (!e) return Status::NotFound("extent " + std::to_string(id));
  if (!RangeFits(offset, data.size(), e->size)) {
    return Status::InvalidArgument("overwrite beyond end");
  }
  if (RangeIsPunched(*e, offset, data.size())) {
    return Status::InvalidArgument("overwrite into punched hole");
  }
  if (opts_.track_contents) {
    e->data.replace(offset, data.size(), data.data(), data.size());
    e->crc = Crc32c(e->data);
  } else {
    e->crc ^= data.Crc0();  // memoized: replicas share the proposer's Buffer
  }
  sim::Spawn(ChargeWrite(disk_, data.size()));
  return Status::OK();
}

Status ExtentStore::DeleteExtentSync(ExtentId id) {
  Extent* e = FindMutable(id);
  if (!e) return Status::NotFound("extent " + std::to_string(id));
  if (e->tiny) return Status::InvalidArgument("tiny extents are freed via punch hole");
  uint64_t phys = e->PhysicalBytes();
  logical_bytes_ -= e->size;
  physical_bytes_ -= phys;
  disk_->PunchHole(phys);
  if (active_tiny_ == id) active_tiny_ = 0;
  extents_.erase(id);
  sim::Spawn(ChargeWrite(disk_, 0));
  return Status::OK();
}

Status ExtentStore::PunchHoleSync(ExtentId id, uint64_t offset, uint64_t len) {
  Extent* e = FindMutable(id);
  if (!e) return Status::NotFound("extent " + std::to_string(id));
  if (!RangeFits(offset, len, e->size)) return Status::InvalidArgument("hole beyond extent end");
  if (RangeIsPunched(*e, offset, len)) return Status::InvalidArgument("range already punched");
  e->holes.emplace_back(offset, len);
  std::sort(e->holes.begin(), e->holes.end());
  e->punched_bytes += len;
  physical_bytes_ -= len;
  disk_->PunchHole(len);
  if (opts_.track_contents) e->data.replace(offset, len, len, '\0');
  sim::Spawn(ChargeWrite(disk_, 0));
  if (e->FullyPunched()) {
    logical_bytes_ -= e->size;
    if (active_tiny_ == id) active_tiny_ = 0;
    extents_.erase(id);
  }
  return Status::OK();
}

ExtentId ExtentStore::CreateExtent() {
  ExtentId id = next_id_++;
  Extent e;
  e.id = id;
  extents_.emplace(id, std::move(e));
  return id;
}

Status ExtentStore::CreateExtentWithId(ExtentId id, bool tiny) {
  if (extents_.count(id)) return Status::AlreadyExists("extent " + std::to_string(id));
  Extent e;
  e.id = id;
  e.tiny = tiny;
  extents_.emplace(id, std::move(e));
  if (id >= next_id_) next_id_ = id + 1;
  return Status::OK();
}

Status ExtentStore::ImportExtent(ExtentId id, uint64_t size, bool tiny) {
  CFS_RETURN_IF_ERROR(CreateExtentWithId(id, tiny));
  Extent* e = FindMutable(id);
  e->size = size;
  e->crc = 0;
  if (opts_.track_contents) {
    e->data.assign(size, '\0');
    e->crc = Crc32c(e->data);  // cached CRC must agree with the laid-down bytes
  }
  logical_bytes_ += size;
  physical_bytes_ += size;
  return Status::OK();
}

sim::Task<Status> ExtentStore::PlaceAt(ExtentId id, uint64_t offset, Buffer data,
                                       obs::TraceContext trace) {
  Extent* e = FindMutable(id);
  if (!e) co_return Status::NotFound("extent " + std::to_string(id));
  if (offset != e->size) co_return Status::InvalidArgument("out-of-order placement");
  if (e->size + data.size() > opts_.extent_size_limit) co_return Status::NoSpace("extent full");
  if (opts_.track_contents) e->data.append(data.data(), data.size());
  e->crc = Crc32cConcat(e->crc, data.Crc0(), data.size());
  e->size += data.size();
  logical_bytes_ += data.size();
  physical_bytes_ += data.size();
  co_return co_await disk_->Write(data.size(), trace);
}

Extent* ExtentStore::FindMutable(ExtentId id) {
  auto it = extents_.find(id);
  return it == extents_.end() ? nullptr : &it->second;
}

const Extent* ExtentStore::Find(ExtentId id) const {
  auto it = extents_.find(id);
  return it == extents_.end() ? nullptr : &it->second;
}

uint64_t ExtentStore::ExtentSize(ExtentId id) const {
  const Extent* e = Find(id);
  return e ? e->size : 0;
}

bool ExtentStore::RangeIsPunched(const Extent& e, uint64_t offset, uint64_t len) const {
  if (e.punched_bytes == 0) return false;  // hot path: most extents have no holes
  for (const auto& [ho, hl] : e.holes) {
    if (offset < ho + hl && ho < offset + len) return true;  // overlap
  }
  return false;
}

namespace {
/// Accounting-mode reads serve slices of one shared zero block instead of
/// allocating and zero-filling a fresh string per read.
Buffer ZeroBlock(uint64_t len) {
  static const Buffer zeros = Buffer::Filled(256 * kKiB, '\0');
  if (len <= zeros.size()) return zeros.Slice(0, len);
  return Buffer::Filled(len, '\0');
}
}  // namespace

sim::Task<Result<Buffer>> ExtentStore::Read(ExtentId id, uint64_t offset, uint64_t len,
                                            obs::TraceContext trace) {
  const Extent* e = Find(id);
  if (!e) co_return Status::NotFound("extent " + std::to_string(id));
  if (!RangeFits(offset, len, e->size)) {
    co_return Status::InvalidArgument("read beyond extent end");
  }
  if (RangeIsPunched(*e, offset, len)) {
    co_return Status::InvalidArgument("read from punched hole");
  }
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Read(len, trace));
  if (!opts_.track_contents) co_return ZeroBlock(len);
  // Whole-extent reads verify against the cached CRC.
  if (offset == 0 && len == e->size && e->punched_bytes == 0) {
    if (Crc32c(e->data) != e->crc) {
      co_return Status::Corruption("extent crc mismatch");
    }
  }
  co_return Buffer::CopyOf(std::string_view(e->data).substr(offset, len));
}

sim::Task<Result<std::pair<ExtentId, uint64_t>>> ExtentStore::WriteSmall(
    Buffer data, obs::TraceContext trace) {
  if (data.size() > kSmallFileThreshold) {
    co_return Status::InvalidArgument("not a small file");
  }
  Extent* tiny = active_tiny_ ? FindMutable(active_tiny_) : nullptr;
  if (!tiny || tiny->size + data.size() > opts_.extent_size_limit) {
    ExtentId id = CreateExtent();
    tiny = FindMutable(id);
    tiny->tiny = true;
    active_tiny_ = id;
  }
  uint64_t offset = tiny->size;
  ExtentId id = tiny->id;
  if (opts_.track_contents) {
    tiny->data.append(data.data(), data.size());
  }
  tiny->crc = Crc32cConcat(tiny->crc, data.Crc0(), data.size());
  tiny->size += data.size();
  logical_bytes_ += data.size();
  physical_bytes_ += data.size();
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Write(data.size(), trace));
  co_return std::make_pair(id, offset);
}

sim::Task<Status> ExtentStore::VerifyExtent(ExtentId id) {
  const Extent* e = Find(id);
  if (!e) co_return Status::NotFound("extent " + std::to_string(id));
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Read(e->PhysicalBytes()));
  if (!opts_.track_contents) co_return Status::OK();
  if (e->punched_bytes == 0 && Crc32c(e->data) != e->crc) {
    co_return Status::Corruption("extent " + std::to_string(id) + " crc mismatch");
  }
  co_return Status::OK();
}

void ExtentStore::CheckInvariants(InvariantReport* report, const std::string& label) const {
  auto where = [&](ExtentId id) {
    return (label.empty() ? std::string() : label + " ") + "extent " + std::to_string(id);
  };
  uint64_t logical = 0, physical = 0;
  ExtentId max_id = 0;
  for (const auto& [id, e] : extents_) {
    max_id = std::max(max_id, id);
    if (e.id != id) {
      report->Violation("extent", where(id) + ": stored id " + std::to_string(e.id) +
                                      " disagrees with map key");
    }
    // Punch-hole bookkeeping: holes sorted, disjoint, inside the extent, and
    // their total length equals punched_bytes.
    uint64_t hole_total = 0, prev_end = 0;
    bool holes_ok = true;
    for (const auto& [ho, hl] : e.holes) {
      if (ho < prev_end) {
        report->Violation("extent", where(id) + ": holes overlap or are unsorted at offset " +
                                        std::to_string(ho));
        holes_ok = false;
        break;
      }
      if (ho + hl > e.size) {
        report->Violation("extent", where(id) + ": hole [" + std::to_string(ho) + ", " +
                                        std::to_string(ho + hl) + ") beyond size " +
                                        std::to_string(e.size));
        holes_ok = false;
        break;
      }
      hole_total += hl;
      prev_end = ho + hl;
    }
    if (holes_ok && hole_total != e.punched_bytes) {
      report->Violation("extent", where(id) + ": punched_bytes " +
                                      std::to_string(e.punched_bytes) +
                                      " != sum of hole lengths " + std::to_string(hole_total));
    }
    if (e.punched_bytes > e.size) {
      report->Violation("extent", where(id) + ": punched_bytes exceeds size");
    }
    if (e.FullyPunched()) {
      report->Violation("extent", where(id) + ": fully punched extent still resident");
    }
    if (opts_.track_contents) {
      if (e.data.size() != e.size) {
        report->Violation("extent", where(id) + ": data size " +
                                        std::to_string(e.data.size()) +
                                        " != logical size " + std::to_string(e.size));
      } else if (e.punched_bytes == 0 && Crc32c(e.data) != e.crc) {
        report->Violation("extent", where(id) + ": cached CRC disagrees with contents");
      }
    }
    logical += e.size;
    physical += e.PhysicalBytes();
  }
  if (logical != logical_bytes_) {
    report->Violation("extent", (label.empty() ? std::string("store") : label) +
                                    ": logical_bytes " + std::to_string(logical_bytes_) +
                                    " != sum of extent sizes " + std::to_string(logical));
  }
  if (physical != physical_bytes_) {
    report->Violation("extent", (label.empty() ? std::string("store") : label) +
                                    ": physical_bytes " + std::to_string(physical_bytes_) +
                                    " != sum of resident bytes " + std::to_string(physical));
  }
  if (!extents_.empty() && next_id_ <= max_id) {
    report->Violation("extent", (label.empty() ? std::string("store") : label) +
                                    ": id allocator " + std::to_string(next_id_) +
                                    " not past max extent id " + std::to_string(max_id));
  }
  if (active_tiny_ != 0) {
    const Extent* t = Find(active_tiny_);
    if (!t) {
      report->Violation("extent", (label.empty() ? std::string("store") : label) +
                                      ": active tiny extent " + std::to_string(active_tiny_) +
                                      " does not exist");
    } else if (!t->tiny) {
      report->Violation("extent", where(active_tiny_) + ": active tiny extent not flagged tiny");
    }
  }
}

sim::Task<Status> ExtentStore::RebuildCrcCache() {
  uint64_t scanned = 0;
  for (auto& [id, e] : extents_) {
    scanned += e.PhysicalBytes();
    if (opts_.track_contents && e.punched_bytes == 0) {
      e.crc = Crc32c(e.data);
    }
  }
  co_return co_await disk_->Read(scanned + 64);
}

}  // namespace cfs::storage
