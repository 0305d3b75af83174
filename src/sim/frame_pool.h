// Size-class recycler shared by everything short-lived the simulator
// allocates per operation (DESIGN.md "Simulator performance"): coroutine
// frames (sim/task.h), a Promise's shared state, and scheduler closures too
// large for EventFn's inline buffer (sim/timer_wheel.h) — RPC request and
// reply events carry their message by value, so most of them land here.
#pragma once

#include <cstddef>
#include <new>

namespace cfs::sim::detail {

/// Keeps freed cells on per-size free lists (64-byte classes up to 4 KiB)
/// and hands them back LIFO — still-warm memory, no allocator round trip.
/// Callers pass the size back on Free, so a cell carries no header.
/// Single-threaded by simulator convention; requests larger than the
/// largest class (rare: big inline locals) fall through to the global
/// allocator.
class FramePool {
 public:
  static void* Alloc(size_t n) {
    size_t cls = (n + kGran - 1) / kGran;
    if (cls >= kClasses) return ::operator new(n);
    void*& head = Buckets()[cls];
    if (head != nullptr) {
      void* p = head;
      head = *static_cast<void**>(p);
      return p;
    }
    return ::operator new(cls * kGran);
  }
  static void Free(void* p, size_t n) {
    size_t cls = (n + kGran - 1) / kGran;
    if (cls >= kClasses) {
      ::operator delete(p);
      return;
    }
    *static_cast<void**>(p) = Buckets()[cls];
    Buckets()[cls] = p;
  }

 private:
  static constexpr size_t kGran = 64;
  static constexpr size_t kClasses = 64;  // pools cells up to 4 KiB

  static void** Buckets() {
    static void* buckets[kClasses] = {};
    return buckets;
  }
};

/// Standard allocator over FramePool, for shared state that lives about as
/// long as a coroutine frame (a Promise's State).
template <typename T>
struct FramePoolAllocator {
  using value_type = T;
  FramePoolAllocator() = default;
  template <typename U>
  FramePoolAllocator(const FramePoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)
  T* allocate(size_t n) { return static_cast<T*>(FramePool::Alloc(n * sizeof(T))); }
  void deallocate(T* p, size_t n) noexcept { FramePool::Free(p, n * sizeof(T)); }
  friend bool operator==(const FramePoolAllocator&, const FramePoolAllocator&) { return true; }
};

}  // namespace cfs::sim::detail
