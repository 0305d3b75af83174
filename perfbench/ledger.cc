#include "ledger.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using cfs::SimTime;
using cfs::obs::Span;

namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Handlers of the data node's client- and chain-facing messages
// (datanode/messages.h); every other "handler:*" is meta, raft or master.
bool IsDataHandler(std::string_view name) {
  static const std::set<std::string_view> kData = {
      "handler:CreateExtent", "handler:WritePacket",       "handler:WriteSmall",
      "handler:Overwrite",    "handler:ReadExtent",        "handler:DeleteExtent",
      "handler:PunchHole",    "handler:ChainCreateExtent", "handler:ChainAppend",
      "handler:ExtentInfo",   "handler:FetchRange"};
  return kData.count(name) > 0;
}

int64_t NoteValue(const Span& s, std::string_view key) {
  for (const auto& [k, v] : s.notes) {
    if (k == key) return v;
  }
  return 0;
}

// Duration of `s` not covered by the union of its children's intervals.
double SelfTime(const Span& s, const std::vector<const Span*>& children) {
  std::vector<std::pair<SimTime, SimTime>> iv;
  for (const Span* c : children) {
    const SimTime b = std::max(c->start, s.start);
    const SimTime e = std::min(c->end, s.end);
    if (e > b) iv.emplace_back(b, e);
  }
  std::sort(iv.begin(), iv.end());
  SimTime covered = 0;
  SimTime cur_b = 0, cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_b;
  return static_cast<double>((s.end - s.start) - covered);
}

}  // namespace

Ledger BuildLedger(const cfs::obs::Tracer& tracer, SimTime begin, SimTime end) {
  const std::vector<Span>& spans = tracer.spans();
  Ledger out;
  for (const char* k : {"client.self_us", "meta.handler_us", "datanode.handler_us",
                        "rpc.wire_us", "raft.commit_us", "raft.apply_us",
                        "sim.disk_queue_us", "sim.disk_service_us"}) {
    out.totals_us[k] = 0;
  }

  std::set<uint64_t> traces;
  std::vector<const Span*> roots;
  for (const Span& s : spans) {
    if (s.parent_id == 0 && StartsWith(s.name, "op:") && s.start >= begin && s.end <= end) {
      traces.insert(s.trace_id);
      roots.push_back(&s);
    }
  }
  out.roots = roots.size();

  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent_id != 0 && traces.count(s.trace_id)) children[s.parent_id].push_back(&s);
  }
  static const std::vector<const Span*> kNone;
  auto kids = [&](const Span& s) -> const std::vector<const Span*>& {
    auto it = children.find(s.span_id);
    return it == children.end() ? kNone : it->second;
  };

  std::vector<const Span*> stack;
  for (const Span* root : roots) {
    stack.assign(1, root);
    while (!stack.empty()) {
      const Span& s = *stack.back();
      stack.pop_back();
      const std::vector<const Span*>& ch = kids(s);
      for (const Span* c : ch) stack.push_back(c);
      const std::string_view name = s.name;
      const double dur = static_cast<double>(s.end - s.start);
      if (StartsWith(name, "op:") || name == "client:window") {
        out.totals_us["client.self_us"] += SelfTime(s, ch);
      } else if (StartsWith(name, "handler:Meta")) {
        out.totals_us["meta.handler_us"] += SelfTime(s, ch);
      } else if (IsDataHandler(name)) {
        out.totals_us["datanode.handler_us"] += SelfTime(s, ch);
      } else if (StartsWith(name, "rpc:")) {
        double handler = 0;
        for (const Span* c : ch) {
          if (StartsWith(c->name, "handler:")) handler += static_cast<double>(c->end - c->start);
        }
        out.totals_us["rpc.wire_us"] += std::max(0.0, dur - handler);
      } else if (name == "raft:propose") {
        out.totals_us["raft.commit_us"] += dur;
      } else if (name == "raft:apply") {
        out.totals_us["raft.apply_us"] += SelfTime(s, ch);
      } else if (StartsWith(name, "disk:")) {
        const double queue = std::min(dur, static_cast<double>(NoteValue(s, "queue_usec")));
        out.totals_us["sim.disk_queue_us"] += queue;
        out.totals_us["sim.disk_service_us"] += dur - queue;
      }
    }
  }
  return out;
}

}  // namespace perfbench
