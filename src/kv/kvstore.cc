#include "kv/kvstore.h"

namespace cfs::kv {

void KvStore::EncodeBatch(Encoder* enc, const WriteBatch& batch) {
  enc->PutVarint(batch.ops_.size());
  for (const auto& op : batch.ops_) {
    enc->PutU8(static_cast<uint8_t>(op.type));
    enc->PutString(op.key);
    enc->PutString(op.value);
  }
}

Status KvStore::DecodeBatch(Decoder* dec, WriteBatch* batch) {
  uint64_t n = 0;
  dec->GetCount(&n);
  for (uint64_t i = 0; i < n && dec->ok(); i++) {
    uint8_t type = 0;
    std::string key, value;
    dec->GetU8(&type);
    dec->GetString(&key);
    dec->GetString(&value);
    if (!dec->ok()) break;
    if (type == static_cast<uint8_t>(WriteBatch::OpType::kPut)) {
      batch->Put(std::move(key), std::move(value));
    } else if (type == static_cast<uint8_t>(WriteBatch::OpType::kDelete)) {
      batch->Delete(std::move(key));
    } else {
      return Status::Corruption("bad batch op type");
    }
  }
  return dec->status();
}

void KvStore::ApplyBatch(const WriteBatch& batch) {
  for (const auto& op : batch.ops_) {
    if (op.type == WriteBatch::OpType::kPut) {
      mem_[op.key] = op.value;
    } else {
      mem_.erase(op.key);
    }
  }
}

sim::Task<Status> KvStore::Open() {
  mem_.clear();
  wal_records_ = 0;
  std::string ckpt;
  if (storage_->Get(CkptKey(), &ckpt)) {
    Decoder dec(ckpt);
    uint64_t n = 0;
    dec.GetCount(&n);
    for (uint64_t i = 0; i < n && dec.ok(); i++) {
      std::string k, v;
      dec.GetString(&k);
      dec.GetString(&v);
      mem_.emplace(std::move(k), std::move(v));
    }
    CFS_CO_RETURN_IF_ERROR(dec.status());
  }
  std::string wal;
  if (storage_->Get(WalKey(), &wal)) {
    Decoder dec(wal);
    while (!dec.Done()) {
      WriteBatch batch;
      CFS_CO_RETURN_IF_ERROR(DecodeBatch(&dec, &batch));
      ApplyBatch(batch);
      wal_records_++;
    }
  }
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Read(ckpt.size() + wal.size() + 64));
  opened_ = true;
  co_return Status::OK();
}

sim::Task<Status> KvStore::Put(std::string key, std::string value) {
  WriteBatch b;
  b.Put(std::move(key), std::move(value));
  co_return co_await Write(std::move(b));
}

sim::Task<Status> KvStore::Delete(std::string key) {
  WriteBatch b;
  b.Delete(std::move(key));
  co_return co_await Write(std::move(b));
}

sim::Task<Status> KvStore::Write(WriteBatch batch) {
  if (!opened_) co_return Status::InvalidArgument("kvstore not opened");
  if (batch.empty()) co_return Status::OK();
  // Mutate memtable and WAL synchronously (single-threaded simulation),
  // charge the disk write afterwards.
  Encoder enc;
  EncodeBatch(&enc, batch);
  size_t bytes = enc.size();
  storage_->Append(WalKey(), Buffer::FromString(enc.Take()));
  ApplyBatch(batch);
  wal_records_++;
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Write(bytes));
  if (wal_records_ >= opts_.checkpoint_threshold && !checkpointing_) {
    CFS_CO_RETURN_IF_ERROR(co_await Checkpoint());
  }
  co_return Status::OK();
}

bool KvStore::Get(const std::string& key, std::string* value) const {
  auto it = mem_.find(key);
  if (it == mem_.end()) return false;
  *value = it->second;
  return true;
}

std::vector<std::pair<std::string, std::string>> KvStore::Scan(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = mem_.lower_bound(prefix); it != mem_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(*it);
  }
  return out;
}

sim::Task<Status> KvStore::Checkpoint() {
  checkpointing_ = true;
  Encoder enc;
  enc.PutVarint(mem_.size());
  for (const auto& [k, v] : mem_) {
    enc.PutString(k);
    enc.PutString(v);
  }
  size_t bytes = enc.size();
  storage_->Put(CkptKey(), enc.Take());
  storage_->Delete(WalKey());
  wal_records_ = 0;
  checkpoints_++;
  Status st = co_await disk_->Write(bytes);
  checkpointing_ = false;
  co_return st;
}

}  // namespace cfs::kv
