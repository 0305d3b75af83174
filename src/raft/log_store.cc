#include "raft/log_store.h"

namespace cfs::raft {

LogStore::LogStore(sim::Host* host, sim::Disk* disk, GroupId gid)
    : storage_(&host->storage()),
      disk_(disk),
      gid_(gid),
      // Blob names are fixed for the store's lifetime; building them once
      // keeps the per-batch WAL append free of string concatenation.
      key_hs_(Key("hs")),
      key_snap_(Key("snap")),
      key_log_(Key("log")),
      persisted_bytes_(host->metrics().Counter("raft.log.persisted_bytes")),
      append_writes_(host->metrics().Counter("raft.log.append_writes")),
      appended_entries_(host->metrics().Counter("raft.log.appended_entries")) {}

std::string LogStore::Key(const char* what) const {
  return "raft/" + std::to_string(gid_) + "/" + what;
}

namespace {
/// Append `entries` to the WAL blob `key`, each as U64 term | U64 index |
/// varint len | head || payload — the flat encoding Load() decodes. Fixed
/// fields and heads accumulate in `enc` (the log store's reused encoder,
/// flushed every kFlushBytes so its capacity stays small) and are copied
/// into the blob's tail; each payload goes into the rope as its own shared
/// chunk, so no payload byte is copied. Returns the bytes appended.
template <typename Entries>
size_t AppendEntries(sim::StableStorage* storage, const std::string& key,
                     const Entries& entries, Encoder* enc) {
  constexpr size_t kFlushBytes = 4096;
  size_t bytes = 0;
  auto flush = [&] {
    if (enc->size() == 0) return;
    bytes += enc->size();
    storage->AppendBytes(key, enc->data());
    enc->Clear();
  };
  for (const LogEntry& e : entries) {
    enc->PutU64(e.term);
    enc->PutU64(e.index);
    enc->PutVarint(e.size());
    enc->PutBytes(e.head.data(), e.head.size());
    if (e.payload.empty()) {
      if (enc->size() >= kFlushBytes) flush();
      continue;
    }
    flush();
    bytes += e.payload.size();
    storage->Append(key, e.payload);
  }
  flush();
  return bytes;
}
}  // namespace

sim::Task<Status> LogStore::Load() {
  std::string hs;
  if (storage_->Get(key_hs_, &hs)) {
    Decoder dec(hs);
    uint64_t term = 0, vote = 0;
    dec.GetU64(&term);
    dec.GetU64(&vote);
    CFS_CO_RETURN_IF_ERROR(dec.status());
    term_ = term;
    voted_for_ = static_cast<NodeId>(vote);
  }
  std::string snap;
  if (storage_->Get(key_snap_, &snap)) {
    Decoder dec(snap);
    std::string data;
    dec.GetU64(&snap_index_);
    dec.GetU64(&snap_term_);
    dec.GetString(&data);
    CFS_CO_RETURN_IF_ERROR(dec.status());
    snap_data_ = Buffer::FromString(std::move(data));
  }
  entries_.clear();
  std::string log;
  if (storage_->Get(key_log_, &log)) {
    Decoder dec(log);
    while (!dec.Done()) {
      LogEntry e;
      std::string cmd;
      dec.GetU64(&e.term);
      dec.GetU64(&e.index);
      dec.GetString(&cmd);
      CFS_CO_RETURN_IF_ERROR(dec.status());
      e.head = Buffer::FromString(std::move(cmd));
      // Entries covered by the snapshot were compacted logically but a
      // crash may have preserved the pre-compaction file; skip them.
      if (e.index <= snap_index_) continue;
      if (e.index != snap_index_ + 1 + entries_.size()) {
        co_return Status::Corruption("log entry index gap");
      }
      entries_.push_back(std::move(e));
    }
  }
  co_return co_await disk_->Read(hs.size() + snap.size() + log.size() + 64);
}

sim::Task<Status> LogStore::SaveHardState(Term term, NodeId voted_for) {
  term_ = term;
  voted_for_ = voted_for;
  Encoder enc;
  enc.PutU64(term_);
  enc.PutU64(voted_for_);
  storage_->Put(key_hs_, enc.Take());
  // Hard-state updates must be durable before acting on them (fsync).
  co_return co_await disk_->Write(16);
}

Term LogStore::TermAt(Index index) const {
  if (index == snap_index_) return snap_term_;
  if (index == 0) return 0;
  if (!Has(index)) return 0;
  return At(index).term;
}

sim::Task<Status> LogStore::Append(std::span<const LogEntry> entries,
                                   obs::TraceContext trace) {
  for (const auto& e : entries) {
    if (e.index != last_index() + 1) co_return Status::Corruption("append index gap");
    entries_.push_back(e);
  }
  size_t bytes = AppendEntries(storage_, key_log_, entries, &wal_enc_);
  persisted_bytes_ += bytes;
  append_writes_++;
  appended_entries_ += entries.size();
  co_return co_await disk_->Write(bytes, trace);
}

sim::Task<Status> LogStore::TruncateFrom(Index from) {
  if (from <= snap_index_) co_return Status::InvalidArgument("truncate into snapshot");
  while (last_index() >= from) entries_.pop_back();
  co_return co_await RewriteLog();
}

sim::Task<Status> LogStore::RewriteLog() {
  storage_->Put(key_log_, {});
  size_t bytes = AppendEntries(storage_, key_log_, entries_, &wal_enc_);
  persisted_bytes_ += bytes;
  co_return co_await disk_->Write(bytes + 64);
}

sim::Task<Status> LogStore::SaveSnapshot(Index index, Term term, Buffer data) {
  if (index <= snap_index_) co_return Status::OK();  // stale snapshot request
  if (index > last_index()) co_return Status::InvalidArgument("snapshot beyond log");
  // Drop the compacted prefix.
  entries_.erase(entries_.begin(), entries_.begin() + static_cast<ptrdiff_t>(index - snap_index_));
  snap_index_ = index;
  snap_term_ = term;
  snap_data_ = std::move(data);
  co_return co_await PersistSnapshot();
}

sim::Task<Status> LogStore::InstallSnapshot(Index index, Term term, Buffer data) {
  entries_.clear();
  snap_index_ = index;
  snap_term_ = term;
  snap_data_ = std::move(data);
  co_return co_await PersistSnapshot();
}

/// Store the snapshot blob as U64 index | U64 term | varint len | data —
/// the encoding Load() decodes — as a rope of the small header and the
/// shared snapshot Buffer, then rewrite the (compacted) log.
sim::Task<Status> LogStore::PersistSnapshot() {
  Encoder enc;
  enc.PutU64(snap_index_);
  enc.PutU64(snap_term_);
  enc.PutVarint(snap_data_.size());
  size_t bytes = enc.size() + snap_data_.size();
  storage_->Put(key_snap_, enc.Take());
  storage_->Append(key_snap_, snap_data_);
  persisted_bytes_ += bytes;
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Write(bytes));
  co_return co_await RewriteLog();
}

}  // namespace cfs::raft
