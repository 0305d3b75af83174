// Heap allocation counters fed by the benchmark's replacement of the global
// operator new (alloc_count.cc). Read as deltas around a measured phase.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

AllocCounts CurrentAllocs();

}  // namespace perfbench
