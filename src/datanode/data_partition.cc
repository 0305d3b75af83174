#include "datanode/data_partition.h"

namespace cfs::data {

using sim::Spawn;
using sim::Task;

DataPartition::DataPartition(const DataPartitionConfig& config, sim::Network* net,
                             sim::Host* host, raft::RaftHost* raft)
    : config_(config), net_(net), host_(host), placement_gate_(net->scheduler()) {
  store_ = std::make_unique<storage::ExtentStore>(host_->disk(config.disk_index),
                                                  config.store);
  raft_node_ = raft->CreateGroup(RaftGid(config.id), config.replicas, this,
                                 host_->disk(config.disk_index));
}

uint32_t DataPartition::ChainIndexOf(sim::NodeId node) const {
  for (uint32_t i = 0; i < config_.replicas.size(); i++) {
    if (config_.replicas[i] == node) return i;
  }
  return UINT32_MAX;
}

void DataPartition::MarkDurable(storage::ExtentId id, uint64_t begin, uint64_t end) {
  if (end <= begin) return;
  uint64_t& c = committed_[id];
  if (end <= c) return;  // already inside the committed prefix
  auto& ranges = durable_[id];
  auto [it, inserted] = ranges.emplace(begin, end);
  if (!inserted) it->second = std::max(it->second, end);
  // Advance across the contiguous prefix (ranges may abut or overlap).
  while (!ranges.empty() && ranges.begin()->first <= c) {
    c = std::max(c, ranges.begin()->second);
    ranges.erase(ranges.begin());
  }
  if (ranges.empty()) durable_.erase(id);
}

Task<Status> DataPartition::ApplyChainAppend(storage::ExtentId extent, uint64_t offset,
                                             Buffer data, bool tiny,
                                             obs::TraceContext trace) {
  if (!store_->Has(extent)) {
    // Tiny extents materialize lazily on replicas the first time a
    // placement arrives; large extents were created by the chained create.
    if (tiny) {
      CFS_CO_RETURN_IF_ERROR(store_->CreateExtentWithId(extent, /*tiny=*/true));
    } else {
      co_return Status::NotFound("extent " + std::to_string(extent));
    }
  }
  uint64_t cur = store_->ExtentSize(extent);
  if (offset < cur) co_return Status::OK();  // duplicate (client retry)
  if (offset > cur) {
    // Out of order: park the shared buffer until the gap fills.
    pending_[extent].emplace(offset, std::move(data));
    co_return Status::OK();
  }
  CFS_CO_RETURN_IF_ERROR(co_await store_->PlaceAt(extent, offset, data, trace));
  TryDrainPending(extent);
  co_return Status::OK();
}

void DataPartition::TryDrainPending(storage::ExtentId extent) {
  auto it = pending_.find(extent);
  if (it == pending_.end()) return;
  auto& waiting = it->second;
  while (!waiting.empty()) {
    auto first = waiting.begin();
    uint64_t cur = store_->ExtentSize(extent);
    if (first->first != cur) break;
    Buffer data = std::move(first->second);
    waiting.erase(first);
    // Structural mutation inside PlaceAt is synchronous; the disk charge
    // completes asynchronously.
    Spawn([](storage::ExtentStore* store, storage::ExtentId extent, uint64_t off,
             Buffer data) -> Task<void> {
      (void)co_await store->PlaceAt(extent, off, data);
    }(store_.get(), extent, cur, std::move(data)));
  }
  if (waiting.empty()) pending_.erase(it);
}

// --- Raft command encoding ---------------------------------------------------

std::string DataPartition::EncodeOverwriteHead(storage::ExtentId id, uint64_t offset,
                                               uint64_t len) {
  Encoder enc = Encoder::Command(DataOp::kOverwrite);
  enc.PutVarint(id);
  enc.PutVarint(offset);
  enc.PutVarint(len);
  return enc.Take();
}

std::string DataPartition::EncodeDeleteExtent(storage::ExtentId id) {
  Encoder enc = Encoder::Command(DataOp::kDeleteExtent);
  enc.PutVarint(id);
  return enc.Take();
}

std::string DataPartition::EncodePunchHole(storage::ExtentId id, uint64_t offset,
                                           uint64_t len) {
  Encoder enc = Encoder::Command(DataOp::kPunchHole);
  enc.PutVarint(id);
  enc.PutVarint(offset);
  enc.PutVarint(len);
  return enc.Take();
}

void DataPartition::Apply(raft::Index /*index*/, const Buffer& head, const Buffer& payload,
                          raft::ApplyOutcome* out) {
  Decoder dec(head.view());
  uint8_t op = 0;
  uint64_t id = 0, offset = 0, len = 0;
  Status st;
  dec.GetU8(&op);
  switch (static_cast<DataOp>(op)) {
    case DataOp::kOverwrite: {
      dec.GetVarint(&id);
      dec.GetVarint(&offset);
      dec.GetVarint(&len);
      if (!dec.ok()) break;
      // The proposer's Buffer arrives as `payload`; an entry recovered flat
      // from the WAL carries the bytes after the head instead, and a slice
      // of it shares the log entry's storage. Neither path copies.
      Buffer data =
          payload.empty() ? head.Slice(head.size() - dec.remaining(), len) : payload;
      st = data.size() == len && dec.remaining() + payload.size() == len
               ? store_->OverwriteSync(id, offset, data)
               : Status::Corruption("overwrite length mismatch");
      break;
    }
    case DataOp::kDeleteExtent:
      if (!dec.GetVarint(&id)) break;
      st = store_->DeleteExtentSync(id);
      committed_.erase(id);
      durable_.erase(id);
      break;
    case DataOp::kPunchHole:
      dec.GetVarint(&id);
      dec.GetVarint(&offset);
      dec.GetVarint(&len);
      if (dec.ok()) st = store_->PunchHoleSync(id, offset, len);
      break;
    default:
      st = Status::Corruption("unknown data op");
  }
  if (!dec.ok()) st = dec.status();
  if (out) out->status = std::move(st);
}

Buffer DataPartition::TakeSnapshot() {
  // Marker only: extent contents are recovered via chain alignment, not
  // raft snapshots (see header comment).
  Encoder enc;
  enc.PutVarint(next_extent_id_);
  return Buffer::FromString(enc.Take());
}

Status DataPartition::Restore(std::string_view snapshot) {
  if (snapshot.empty()) return Status::OK();
  Decoder dec(snapshot);
  uint64_t next = 0;
  if (!dec.GetVarint(&next)) return dec.status();
  next_extent_id_ = std::max(next_extent_id_, next);
  return Status::OK();
}

void DataPartition::CheckInvariants(InvariantReport* report,
                                    const std::string& label) const {
  std::string prefix = label.empty() ? "partition " + std::to_string(config_.id)
                                     : label;
  store_->CheckInvariants(report, prefix);
  for (const auto& [id, off] : committed_) {
    if (!store_->Has(id)) continue;  // delete can race a stale committed entry
    if (off > store_->ExtentSize(id)) {
      report->Violation("data", prefix + " extent " + std::to_string(id) +
                                    ": committed offset " + std::to_string(off) +
                                    " beyond local size " +
                                    std::to_string(store_->ExtentSize(id)));
    }
  }
  for (const auto& [id, ranges] : durable_) {
    if (ranges.empty()) {
      report->Violation("data", prefix + " extent " + std::to_string(id) +
                                    ": empty durable-range map left behind");
      continue;
    }
    uint64_t c = committed(id);
    for (const auto& [begin, end] : ranges) {
      if (end <= begin) {
        report->Violation("data", prefix + " extent " + std::to_string(id) +
                                      ": empty durable range at " +
                                      std::to_string(begin));
      }
      if (begin <= c) {
        report->Violation("data", prefix + " extent " + std::to_string(id) +
                                      ": durable range [" + std::to_string(begin) +
                                      ", " + std::to_string(end) +
                                      ") not merged into committed prefix " +
                                      std::to_string(c));
      }
      if (store_->Has(id) && end > store_->ExtentSize(id)) {
        report->Violation("data", prefix + " extent " + std::to_string(id) +
                                      ": durable range ends beyond local size");
      }
    }
  }
  for (const auto& [id, waiting] : pending_) {
    if (waiting.empty()) {
      report->Violation("data", prefix + " extent " + std::to_string(id) +
                                    ": empty placement buffer left behind");
    }
  }
  if (IsChainLeader()) {
    // The effective allocator is the max of the partition-level counter and
    // the store-level one (tiny extents come from the latter); the next id it
    // hands out must not collide with any resident extent.
    storage::ExtentId max_id = 0;
    store_->ForEach(
        [&](const storage::Extent& e) { max_id = std::max(max_id, e.id); });
    storage::ExtentId next = std::max(next_extent_id_, store_->peek_next_id());
    if (max_id != 0 && next <= max_id) {
      report->Violation("data", prefix + ": extent-id allocator " +
                                    std::to_string(next) +
                                    " not past max allocated id " +
                                    std::to_string(max_id));
    }
  }
}

void DataPartition::ReinitAfterRecovery() {
  storage::ExtentId max_id = 0;
  store_->ForEach([&](const storage::Extent& e) { max_id = std::max(max_id, e.id); });
  next_extent_id_ = std::max(next_extent_id_, max_id + 1);
  // Committed offsets are re-derived conservatively from local sizes; the
  // alignment phase then raises them to the cluster-wide values.
  committed_.clear();
  durable_.clear();
  store_->ForEach([&](const storage::Extent& e) { committed_[e.id] = e.size; });
}

}  // namespace cfs::data
