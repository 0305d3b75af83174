#include "raft/invariants.h"

#include <map>
#include <sstream>
#include <string>
#include <string_view>

namespace cfs::raft {

namespace {

std::string Where(const std::string& label, NodeId node) {
  std::ostringstream os;
  if (!label.empty()) os << label << " ";
  os << "node " << node;
  return os.str();
}

/// Term of `r`'s entry at `index`, or 0 if compacted away / absent (the
/// snapshot boundary itself reports snap_term).
Term TermAt(const ReplicaSnapshot& r, Index index) {
  if (index == r.snap_index) return r.snap_term;
  if (index < r.first_index || index >= r.first_index + r.entries.size()) return 0;
  return r.entries[index - r.first_index].term;
}

const LogEntry* EntryAt(const ReplicaSnapshot& r, Index index) {
  if (index < r.first_index || index >= r.first_index + r.entries.size()) return nullptr;
  return &r.entries[index - r.first_index];
}

/// True iff both entries carry the same logical command `head || payload`,
/// however each splits it: a replica recovered from the WAL holds flat
/// entries while its peers hold head + payload ropes. Compares piecewise
/// without materializing either command.
bool SameCommand(const LogEntry& a, const LogEntry& b) {
  if (a.size() != b.size()) return false;
  // With `s` the entry whose head is shorter, `l.head` spans all of s.head
  // and the first `split` bytes of s.payload; l.payload is the rest.
  const LogEntry& s = a.head.size() <= b.head.size() ? a : b;
  const LogEntry& l = &s == &a ? b : a;
  const std::string_view sh = s.head.view(), sp = s.payload.view(), lh = l.head.view();
  const size_t split = lh.size() - sh.size();
  return lh.substr(0, sh.size()) == sh && lh.substr(sh.size()) == sp.substr(0, split) &&
         sp.substr(split) == l.payload.view();
}

Index LastIndex(const ReplicaSnapshot& r) {
  return r.first_index + r.entries.size() - 1;
}

void CheckReplica(const ReplicaSnapshot& r, InvariantReport* report,
                  const std::string& label) {
  const std::string who = Where(label, r.node);
  Index last = LastIndex(r);
  if (r.commit > last) {
    report->Violation("raft", who + ": commit index " + std::to_string(r.commit) +
                                  " > last log index " + std::to_string(last));
  }
  if (r.applied > r.commit) {
    report->Violation("raft", who + ": applied index " + std::to_string(r.applied) +
                                  " > commit index " + std::to_string(r.commit));
  }
  Term prev_term = r.snap_term;
  for (size_t i = 0; i < r.entries.size(); i++) {
    const LogEntry& e = r.entries[i];
    Index expect = r.first_index + i;
    if (e.index != expect) {
      report->Violation("raft", who + ": entry at slot " + std::to_string(i) +
                                    " has index " + std::to_string(e.index) +
                                    ", expected " + std::to_string(expect));
      break;  // indices are broken; further per-entry checks would cascade
    }
    if (e.term < prev_term) {
      report->Violation("raft", who + ": entry term regressed at index " +
                                    std::to_string(e.index) + " (" +
                                    std::to_string(prev_term) + " -> " +
                                    std::to_string(e.term) + ")");
    }
    if (e.term > r.term) {
      report->Violation("raft", who + ": entry at index " + std::to_string(e.index) +
                                    " has term " + std::to_string(e.term) +
                                    " above current term " + std::to_string(r.term));
    }
    prev_term = e.term;
  }
}

}  // namespace

ReplicaSnapshot SnapshotReplica(const RaftNode& node) {
  ReplicaSnapshot snap;
  snap.node = node.self();
  snap.is_leader = node.role() == Role::kLeader;
  snap.term = node.term();
  snap.commit = node.commit_index();
  snap.applied = node.applied_index();
  const LogStore& log = node.log();
  snap.first_index = log.first_index();
  snap.snap_index = log.snapshot_index();
  snap.snap_term = log.snapshot_term();
  snap.entries.reserve(log.last_index() + 1 - log.first_index());
  for (Index i = log.first_index(); i <= log.last_index(); i++) {
    snap.entries.push_back(log.At(i));
  }
  return snap;
}

void CheckRaftGroup(const std::vector<ReplicaSnapshot>& replicas, InvariantReport* report,
                    const std::string& label) {
  for (const auto& r : replicas) CheckReplica(r, report, label);

  // Election safety: at most one leader per term.
  std::map<Term, NodeId> leaders;
  for (const auto& r : replicas) {
    if (!r.is_leader) continue;
    auto [it, inserted] = leaders.emplace(r.term, r.node);
    if (!inserted) {
      report->Violation("raft", Where(label, r.node) + " and node " +
                                    std::to_string(it->second) +
                                    " are both leaders in term " + std::to_string(r.term));
    }
  }

  // Log matching + committed-prefix agreement across every replica pair.
  for (size_t a = 0; a < replicas.size(); a++) {
    for (size_t b = a + 1; b < replicas.size(); b++) {
      const ReplicaSnapshot& x = replicas[a];
      const ReplicaSnapshot& y = replicas[b];
      Index lo = std::max(x.first_index, y.first_index);
      Index hi = std::min(LastIndex(x), LastIndex(y));
      for (Index i = lo; i <= hi && i > 0; i++) {
        const LogEntry* ex = EntryAt(x, i);
        const LogEntry* ey = EntryAt(y, i);
        if (!ex || !ey) continue;
        if (ex->term == ey->term && !SameCommand(*ex, *ey)) {
          report->Violation("raft", Where(label, x.node) + " and node " +
                                        std::to_string(y.node) +
                                        " disagree on data at index " + std::to_string(i) +
                                        " despite equal term " + std::to_string(ex->term));
        }
      }
      // Entries both replicas consider committed must agree on term.
      Index chi = std::min({x.commit, y.commit, hi});
      for (Index i = lo; i <= chi && i > 0; i++) {
        Term tx = TermAt(x, i);
        Term ty = TermAt(y, i);
        if (tx != 0 && ty != 0 && tx != ty) {
          report->Violation("raft", Where(label, x.node) + " and node " +
                                        std::to_string(y.node) +
                                        " disagree on committed entry term at index " +
                                        std::to_string(i) + " (" + std::to_string(tx) +
                                        " vs " + std::to_string(ty) + ")");
        }
      }
    }
  }
}

}  // namespace cfs::raft
