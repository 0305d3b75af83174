// Refcounted immutable byte buffer: the zero-copy payload currency of the
// data path (DESIGN.md "Simulator performance", buffer-sharing rules).
//
// A Buffer is a (shared owner, pointer, length) view over immutable bytes.
// Copying a Buffer or taking a Slice bumps a refcount instead of memcpy-ing
// payload, so a 1 MiB client write is materialized exactly once and then
// shared by every packet slice, chain-forward hop, RPC retry, raft log
// entry and append batch that carries it. Ownership rules:
//
//   - The bytes behind a live Buffer never mutate (producers hand ownership
//     to FromString and drop their reference). That makes sharing across
//     "nodes" of the simulated cluster safe: a replica reading its slice
//     observes exactly what the sender produced, whenever it gets around to
//     it.
//   - Consumers that need to retain payload past the producer's lifetime
//     just keep the Buffer (refcount holds the storage alive); consumers
//     that need mutable or owned bytes call ToString() — the one place a
//     copy happens, visible at the call site.
//   - Slices keep the whole underlying allocation alive. Fine here: slices
//     are packet-sized views of payloads whose lifetime ends with the op.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"

namespace cfs {

class Buffer {
 public:
  Buffer() = default;

  /// Adopt a string as immutable shared storage (no copy).
  static Buffer FromString(std::string s) {
    auto owner = std::make_shared<Storage>(std::move(s));
    Buffer b;
    b.data_ = owner->bytes.data();
    b.size_ = owner->bytes.size();
    b.owner_ = std::move(owner);
    return b;
  }

  /// Copy `v` into fresh shared storage.
  static Buffer CopyOf(std::string_view v) { return FromString(std::string(v)); }

  /// `n` bytes of `c` (test/bench convenience).
  static Buffer Filled(size_t n, char c) { return FromString(std::string(n, c)); }

  /// A view of [off, off+len) sharing this buffer's storage. Out-of-range
  /// requests clamp to the buffer's end.
  Buffer Slice(size_t off, size_t len) const {
    Buffer b;
    if (off > size_) off = size_;
    if (len > size_ - off) len = size_ - off;
    b.owner_ = owner_;
    b.data_ = data_ + off;
    b.size_ = len;
    return b;
  }

  std::string_view view() const { return {data_, size_}; }
  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Materialize an owned copy — the only copying operation.
  std::string ToString() const { return std::string(data_, size_); }

  /// Crc32c(view(), 0), memoized in the shared storage. Every chain replica
  /// checksums the same packet bytes; the first caller pays the byte pass and
  /// the rest hit the memo (extended onto a running extent CRC with
  /// Crc32cConcat). Safe because the bytes behind a live Buffer never mutate
  /// and the memo's lifetime equals the storage's — a recycled allocation
  /// gets a fresh Storage, so entries can never go stale.
  uint32_t Crc0() const {
    if (size_ == 0) return 0;
    if (!owner_) return Crc32c(data_, size_);
    size_t off = static_cast<size_t>(data_ - owner_->bytes.data());
    for (const CrcMemoEntry& e : owner_->crc_memo) {
      if (e.off == off && e.len == size_) return e.crc;
    }
    uint32_t c = Crc32c(data_, size_);
    if (owner_->crc_memo.size() < kMaxCrcMemo) owner_->crc_memo.push_back({off, size_, c});
    return c;
  }

  /// How many Buffers share this one's storage (tests: storage nobody else
  /// holds any more has a count of 1 here, and is freed with this Buffer).
  long UseCountForTest() const { return owner_.use_count(); }

  friend bool operator==(const Buffer& a, const Buffer& b) { return a.view() == b.view(); }
  friend bool operator==(const Buffer& a, std::string_view b) { return a.view() == b; }

 private:
  struct CrcMemoEntry {
    size_t off;
    size_t len;
    uint32_t crc;
  };
  struct Storage {
    explicit Storage(std::string s) : bytes(std::move(s)) {}
    const std::string bytes;
    /// Distinct views of one owner are a handful of packet slices; linear
    /// scan beats any map at that size. Bounded as a pathological-case guard.
    mutable std::vector<CrcMemoEntry> crc_memo;
  };
  static constexpr size_t kMaxCrcMemo = 64;

  std::shared_ptr<const Storage> owner_;
  const char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace cfs
