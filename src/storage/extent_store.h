// The extent store (§2.2): the data-partition storage engine.
//
// Large files are stored as a sequence of private extents — a new file
// always starts writing at offset zero of a fresh extent, the last extent is
// never padded, and an extent never mixes files (§2.2.2). Small files (size
// <= kSmallFileThreshold, 128 KB) are aggregated into shared
// "tiny" extents; the physical offset of each small file in the extent is
// recorded at the meta node, and deletion frees the range asynchronously via
// the punch-hole interface instead of a garbage collector (§2.2.3).
//
// Each extent's CRC is cached in memory to speed up integrity checks
// (§2.2.1). Byte contents are retained only when `track_contents` is on
// (tests); benchmarks run in accounting mode where sizes, CRCs and disk
// timing are tracked without materializing gigabytes of payload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/check.h"
#include "common/flat_map.h"
#include "common/crc32.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/disk.h"
#include "sim/task.h"

namespace cfs::storage {

using ExtentId = uint64_t;

/// True when [offset, offset + len) lies inside [0, size). Written so that
/// no sum can wrap: every byte-range check against an extent goes here.
inline bool RangeFits(uint64_t offset, uint64_t len, uint64_t size) {
  return len <= size && offset <= size - len;
}

/// The paper's small-file threshold t (§2.2.1). One value for the client's
/// small-file fast path, WriteSmall's bound and the GC's punch-vs-delete test.
inline constexpr uint64_t kSmallFileThreshold = 128 * kKiB;
/// Default extent size limit; the client's append pipeline fills extents
/// up to it.
inline constexpr uint64_t kExtentSizeLimit = 128 * kMiB;

struct ExtentStoreOptions {
  uint64_t extent_size_limit = kExtentSizeLimit;
  /// Keep real byte contents (tests) or account sizes/timing only (benches).
  bool track_contents = true;
};

/// One storage unit. `size` is the logical end-of-extent offset; punched
/// ranges release physical space without shrinking the logical size.
struct Extent {
  ExtentId id = 0;
  uint64_t size = 0;
  uint32_t crc = 0;  // cached in memory (rebuilt on recovery)
  bool tiny = false;  // shared small-file extent
  uint64_t punched_bytes = 0;
  std::vector<std::pair<uint64_t, uint64_t>> holes;  // (offset, len), sorted
  std::string data;  // only when track_contents

  /// Physical bytes still occupied on disk.
  uint64_t PhysicalBytes() const { return size - punched_bytes; }
  bool FullyPunched() const { return size > 0 && punched_bytes >= size; }
};

class ExtentStore {
 public:
  ExtentStore(sim::Disk* disk, const ExtentStoreOptions& opts = {})
      : disk_(disk), opts_(opts) {}

  const ExtentStoreOptions& options() const { return opts_; }

  /// Allocate a fresh (large-file) extent and return its id.
  ExtentId CreateExtent();

  /// Next id CreateExtent would hand out. Large-extent allocation at the
  /// chain leader (DataPartition::AllocExtentId) folds this in so tiny
  /// extents (allocated store-side by WriteSmall) and chained large extents
  /// never collide in the shared id namespace.
  ExtentId peek_next_id() const { return next_id_; }

  /// Replica path: create an extent with a leader-assigned id (the chain
  /// replicates leader decisions, so ids must match across replicas).
  Status CreateExtentWithId(ExtentId id, bool tiny);

  /// Bench/test rig: materialize an extent of `size` logical bytes without
  /// simulating the writes (stands in for fio's laydown phase, which the
  /// paper's measurements exclude). Contents are zero in tracking mode.
  Status ImportExtent(ExtentId id, uint64_t size, bool tiny);

  // --- Mutations: one method per operation ---
  // Chain placements (PlaceAt, WriteSmall) are coroutines that await their
  // disk write. Raft-applied mutations (OverwriteSync, PunchHoleSync,
  // DeleteExtentSync) run inside the synchronous raft Apply: they validate
  // and mutate inline and charge the disk from a detached task.
  //
  // Write paths take the shared Buffer (by value — a refcount bump): its
  // memoized payload CRC (Buffer::Crc0) lets the second and third chain
  // replicas extend their cached extent CRC via Crc32cConcat instead of
  // re-checksumming the same bytes. Raft replicas all apply the proposer's
  // overwrite Buffer, so in accounting mode only the first pays the pass.

  /// Sequential write (chain placement, recovery alignment): `offset` must
  /// equal the extent's current size (the chain delivers placements in
  /// order; callers buffer out-of-order arrivals). Returns NoSpace once the
  /// extent would pass its size limit. A traced caller passes its span
  /// context so the disk write shows up as a "disk:write" child span.
  sim::Task<Status> PlaceAt(ExtentId id, uint64_t offset, Buffer data,
                            obs::TraceContext trace = {});

  /// Small-file write: aggregate into the current tiny extent. Returns the
  /// (extent id, physical offset) pair the meta node records.
  sim::Task<Result<std::pair<ExtentId, uint64_t>>> WriteSmall(Buffer data,
                                                              obs::TraceContext trace = {});

  /// In-place overwrite of already-written bytes (§2.7.2: random writes in
  /// CFS are in-place; the extent layout and file offsets do not change).
  Status OverwriteSync(ExtentId id, uint64_t offset, const Buffer& data);

  /// Release a small file's range via fallocate(PUNCH_HOLE), a metadata-only
  /// disk op. The extent is removed entirely once every byte of it has been
  /// punched.
  Status PunchHoleSync(ExtentId id, uint64_t offset, uint64_t len);

  /// Large-file delete path: remove the whole extent from disk (§2.2.3:
  /// "different from deleting large files, where the extents of the file can
  /// be removed directly").
  Status DeleteExtentSync(ExtentId id);

  /// Visit (id, extent) pairs in id order.
  template <typename F>
  void ForEach(F fn) const {
    for (const auto& [id, e] : extents_) fn(e);
  }

  /// Read `len` bytes at `offset`; verifies the cached CRC when contents are
  /// tracked. Reading a punched range is a caller bug -> InvalidArgument.
  /// Returns a shared Buffer: the response path ships it without copying
  /// (accounting mode serves slices of one static zero block).
  sim::Task<Result<Buffer>> Read(ExtentId id, uint64_t offset, uint64_t len,
                                 obs::TraceContext trace = {});

  // --- Integrity (§2.2.1) ---
  // Safety code with no cluster caller yet: restart recovery is meant to
  // rebuild the CRC cache and verify extents before serving them.

  /// Verify the cached CRC of an extent against its contents (tracking mode
  /// only). Charges a read of the extent's resident bytes.
  sim::Task<Status> VerifyExtent(ExtentId id);

  /// Rebuild the in-memory CRC cache after a restart (charges a scan read).
  sim::Task<Status> RebuildCrcCache();

  const Extent* Find(ExtentId id) const;
  bool Has(ExtentId id) const { return extents_.count(id) > 0; }
  uint64_t ExtentSize(ExtentId id) const;

  /// Deep check (see common/check.h): per-extent hole/punch bookkeeping,
  /// logical/physical byte aggregates, id-allocator high-water mark, and (in
  /// tracking mode) cached-CRC agreement with the byte contents. Violations
  /// are tagged "extent" and prefixed with `label`.
  void CheckInvariants(InvariantReport* report, const std::string& label = "") const;

  /// Negative-test hook: direct mutable access so tests can seed a
  /// deliberate corruption and assert CheckInvariants fires. Not for
  /// production paths.
  Extent* MutableExtentForTest(ExtentId id) { return FindMutable(id); }

  size_t num_extents() const { return extents_.size(); }
  uint64_t logical_bytes() const { return logical_bytes_; }
  uint64_t physical_bytes() const { return physical_bytes_; }

 private:
  Extent* FindMutable(ExtentId id);
  bool RangeIsPunched(const Extent& e, uint64_t offset, uint64_t len) const;

  sim::Disk* disk_;
  ExtentStoreOptions opts_;
  /// Sorted flat vector: every packet of every write/read does a point
  /// lookup here; stores hold at most a few hundred extents, so binary
  /// search over contiguous memory wins. ForEach stays id-ordered.
  FlatMap<ExtentId, Extent> extents_;
  ExtentId next_id_ = 1;
  /// Current tiny extent receiving small-file appends (0 = none yet).
  ExtentId active_tiny_ = 0;
  uint64_t logical_bytes_ = 0;
  uint64_t physical_bytes_ = 0;
};

}  // namespace cfs::storage
