// Endian-safe binary encoding used for raft log entries, WAL records and
// snapshots. Little-endian fixed-width integers, LEB128 varints, and
// length-prefixed strings, mirroring the RocksDB coding utilities.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace cfs {

/// Append-only binary encoder.
class Encoder {
 public:
  /// An encoder for a state-machine command: its first byte is the opcode.
  template <typename Op>
  static Encoder Command(Op op) {
    Encoder enc;
    enc.PutU8(static_cast<uint8_t>(op));
    return enc;
  }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

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

/// Sequential decoder over a byte view. The first underflow latches
/// Status::Corruption: that Get and every later one return false and leave
/// zero (or an empty string) in their output, so a record decodes as
/// straight-line Gets followed by one check of ok()/status(), and malformed
/// persistent state surfaces as an error rather than an assert.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) { return GetFixed(v); }
  bool GetU32(uint32_t* v) { return GetFixed(v); }
  bool GetU64(uint64_t* v) { return GetFixed(v); }
  bool GetI64(int64_t* v) { return GetFixed(v); }
  bool GetBool(bool* v) {
    uint8_t b = 0;
    *v = GetFixed(&b) && b != 0;
    return ok();
  }

  bool GetVarint(uint64_t* v) {
    *v = 0;
    if (!ok()) return false;
    uint64_t result = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (pos_ >= data_.size()) return Fail("varint underflow");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        return true;
      }
    }
    return Fail("varint overlong");
  }

  /// The number of elements that follow, each at least one byte long. A
  /// count above remaining() fails, so a count this returns can size a
  /// container.
  bool GetCount(uint64_t* n) {
    if (GetVarint(n) && *n > remaining()) {
      *n = 0;
      return Fail("count exceeds remaining bytes");
    }
    return ok();
  }

  bool GetString(std::string* s) {
    s->clear();
    uint64_t n = 0;
    if (!GetVarint(&n)) return false;
    if (remaining() < n) return Fail("string underflow");
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  bool GetFixed(T* v) {
    *v = 0;
    if (!ok()) return false;
    if (remaining() < sizeof(T)) return Fail("fixed underflow");
    std::make_unsigned_t<T> result = 0;  // signed values assemble unsigned
    for (size_t i = 0; i < sizeof(T); i++) {
      result |= static_cast<decltype(result)>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    *v = static_cast<T>(result);
    return true;
  }

  bool Fail(const char* what) {
    status_ = Status::Corruption(what);
    return false;
  }

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace cfs
