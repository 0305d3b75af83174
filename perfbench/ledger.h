// Per-layer virtual-time ledger computed from the span log of a traced
// window. Every complete "op:*" trace whose root starts and ends inside
// [begin, end] is walked; each span's self time (its duration minus the
// union of its children's intervals) is charged to the layer its name
// belongs to. Totals are summed over the op's whole tree, replicas and
// background children included, so they measure work per op, not the
// critical path.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/trace.h"

namespace perfbench {

struct Ledger {
  uint64_t roots = 0;  // complete op:* traces walked
  /// Layer metric name ("client.self_us", "rpc.wire_us", ...) -> total µs.
  std::map<std::string, double> totals_us;
};

Ledger BuildLedger(const cfs::obs::Tracer& tracer, cfs::SimTime begin, cfs::SimTime end);

}  // namespace perfbench
