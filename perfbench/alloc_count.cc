// Process-wide heap accounting for the benchmark binary: the global
// operator new/delete family is replaced so every allocation the simulator
// makes (coroutine frames, strings, vectors, payload blocks) is counted.
// Single-threaded process, so plain counters suffice.
#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
AllocCounts g_counts;
}  // namespace

AllocCounts CurrentAllocs() { return g_counts; }

}  // namespace perfbench

namespace {

void* Allocate(std::size_t n) {
  perfbench::g_counts.allocs++;
  perfbench::g_counts.bytes += n;
  return std::malloc(n ? n : 1);
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  perfbench::g_counts.allocs++;
  perfbench::g_counts.bytes += n;
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((n ? n : 1) + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return Allocate(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
