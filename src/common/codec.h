// Endian-safe binary encoding used for raft log entries, WAL records and
// snapshots. Little-endian fixed-width integers, LEB128 varints, and
// length-prefixed strings, mirroring the RocksDB coding utilities.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cfs {

/// Append-only binary encoder.
class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }

  /// LEB128 unsigned varint (1-10 bytes).
  void PutVarint(uint64_t v) {
    char b[10];
    size_t n = 0;
    while (v >= 0x80) {
      b[n++] = static_cast<char>(v | 0x80);
      v >>= 7;
    }
    b[n++] = static_cast<char>(v);
    buf_.append(b, n);
  }

  /// Varint length prefix followed by raw bytes.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    buf_.append(s.data(), s.size());
  }

  void PutBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    // Serialize little-endian regardless of host order.
    char b[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); i++) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    buf_.append(b, sizeof(T));
  }

  std::string buf_;
};

/// Sequential decoder over a byte view. All getters return
/// Status::Corruption on underflow rather than asserting, so malformed
/// persistent state surfaces as an error.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v) { return GetFixed(v); }
  Status GetU16(uint16_t* v) { return GetFixed(v); }
  Status GetU32(uint32_t* v) { return GetFixed(v); }
  Status GetU64(uint64_t* v) { return GetFixed(v); }
  Status GetI64(int64_t* v) {
    uint64_t u = 0;
    CFS_RETURN_IF_ERROR(GetFixed(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status GetVarint(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (pos_ >= data_.size()) return Status::Corruption("varint underflow");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        return Status::OK();
      }
    }
    return Status::Corruption("varint overlong");
  }

  Status GetString(std::string* s) {
    uint64_t n = 0;
    CFS_RETURN_IF_ERROR(GetVarint(&n));
    if (remaining() < n) return Status::Corruption("string underflow");
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Status GetFixed(T* v) {
    if (remaining() < sizeof(T)) return Status::Corruption("fixed underflow");
    T result = 0;
    for (size_t i = 0; i < sizeof(T); i++) {
      result |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    *v = result;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace cfs
