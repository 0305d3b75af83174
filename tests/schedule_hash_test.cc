// Schedule-hash pins: performance work on the simulator (timer-wheel
// scheduler, pooled events, zero-copy payload buffers, flat containers —
// DESIGN.md "Simulator performance") must change *how* events are stored
// and dispatched without changing *which* events execute or in what order.
// The constants below pin the exact schedule of the scenarios run by this
// test. They were last re-captured when Promise::Set began cancelling the
// timeout its waiter armed with Future::WithTimeout (raft proposals and
// elections), so an answered wait no longer executes a no-op timeout
// event; every message, wire size, delivery time and RNG draw stayed as
// before (the constants still matched with that one cancel taken out).
// crash_restart alone was re-captured when a restarted node stopped
// recovering its data raft groups twice (once after extent alignment, then
// again in a host-wide pass that also recovered the meta groups).
//
// The trace hash folds in every executed event (time, seq) and every network
// message (from, to, wire bytes, payload RTTI name, delivery time), so any
// reordering, dropped/extra event, RNG-stream shift, or wire-size change
// trips it. The hash does NOT depend on wall-clock, optimization level or
// sanitizers, and the RTTI names feeding it are fixed by the Itanium C++ ABI
// both gcc and clang use — which is what makes a cross-build golden value
// meaningful.
//
// If a future change legitimately alters the schedule (new message, new
// timer, different batching policy), re-capture the constants:
//   CFS_PRINT_SCHEDULE_HASH=1 ./tests/schedule_hash_test
// and update kGolden below — in the same commit that explains why the
// schedule moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "harness/cluster.h"

namespace cfs::harness {
namespace {

using client::MountContext;
using meta::FileType;
using meta::kRootInode;

ClusterOptions Opts(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = seed;
  opts.client.rpc_timeout = 300 * kMsec;
  return opts;
}

MountContext* BootAndMount(Cluster& cluster) {
  auto st = RunTask(cluster.sched(), cluster.Start());
  if (!st || !st->ok()) return nullptr;
  st = RunTask(cluster.sched(), cluster.CreateVolume("v", 3, 8));
  if (!st || !st->ok()) return nullptr;
  auto c = RunTask(cluster.sched(), cluster.MountClient("v"));
  if (!c || !c->ok()) return nullptr;
  return (**c)->default_mount();
}

/// Mixed metadata + data workload: creates, opens, multi-packet writes
/// (exercises the chain-replication path end to end), reads, readdir.
uint64_t WorkloadScenario() {
  Cluster cluster(Opts(11));
  MountContext* client = BootAndMount(cluster);
  if (client == nullptr) return 0;
  for (int i = 0; i < 6; i++) {
    std::string name = "f";
    name += std::to_string(i);
    auto f = RunTask(cluster.sched(), client->Create(kRootInode, name, FileType::kFile));
    if (!f || !f->ok()) return 0;
    (void)RunTask(cluster.sched(), client->Open((*f)->id));
    (void)RunTask(cluster.sched(),
                  client->Write((*f)->id, 0, std::string(192 * kKiB, 'd')));
    (void)RunTask(cluster.sched(), client->Read((*f)->id, 0, 64 * kKiB));
    (void)RunTask(cluster.sched(), client->Close((*f)->id));
  }
  (void)RunTask(cluster.sched(), client->ReadDir(kRootInode));
  cluster.sched().RunFor(2 * kSec);
  return cluster.sched().trace_hash();
}

/// Crash + recovery: raft re-election, WAL replay, extent realignment — the
/// paths most sensitive to timer and log-entry handling.
uint64_t CrashRestartScenario() {
  Cluster cluster(Opts(23));
  MountContext* client = BootAndMount(cluster);
  if (client == nullptr) return 0;
  auto f = RunTask(cluster.sched(),
                   client->Create(kRootInode, "crashy.bin", FileType::kFile));
  if (!f || !f->ok()) return 0;
  (void)RunTask(cluster.sched(), client->Open((*f)->id));
  (void)RunTask(cluster.sched(),
                client->Write((*f)->id, 0, std::string(128 * kKiB, 'a')));
  cluster.CrashNode(2);
  cluster.sched().RunFor(2 * kSec);
  (void)RunTask(cluster.sched(),
                client->Write((*f)->id, 128 * kKiB, std::string(64 * kKiB, 'b')));
  (void)RunTaskVoid(cluster.sched(), cluster.RestartNode(2));
  cluster.sched().RunFor(3 * kSec);
  (void)RunTask(cluster.sched(), client->Read((*f)->id, 0, 192 * kKiB));
  return cluster.sched().trace_hash();
}

/// Message loss: retries, timeouts firing for real, RNG-driven drops — the
/// scenario that catches any change to timeout-event scheduling (which
/// watchdogs fire and which are cancelled by their reply).
uint64_t MessageLossScenario() {
  Cluster cluster(Opts(37));
  MountContext* client = BootAndMount(cluster);
  if (client == nullptr) return 0;
  cluster.net().SetDropProbability(0.05);
  for (int i = 0; i < 8; i++) {
    (void)RunTask(cluster.sched(),
                  client->Create(kRootInode, "lossy" + std::to_string(i), FileType::kFile));
  }
  cluster.net().SetDropProbability(0);
  cluster.sched().RunFor(2 * kSec);
  return cluster.sched().trace_hash();
}

struct GoldenCase {
  const char* name;
  uint64_t (*run)();
  uint64_t expected;
};

// See the file comment for the capture procedure.
const GoldenCase kGolden[] = {
    {"workload", WorkloadScenario, 0xfa700167e1433f8dull},
    {"crash_restart", CrashRestartScenario, 0x99aaceda55f4966dull},
    {"message_loss", MessageLossScenario, 0xe24f91f4f55409b3ull},
};

TEST(ScheduleHash, MatchesPreRebuildGolden) {
  const bool print = std::getenv("CFS_PRINT_SCHEDULE_HASH") != nullptr;
  for (const GoldenCase& g : kGolden) {
    uint64_t h = g.run();
    ASSERT_NE(h, 0u) << g.name << ": scenario failed to boot";
    if (print) {
      std::printf("schedule_hash %s 0x%016llx\n", g.name,
                  static_cast<unsigned long long>(h));
    } else {
      EXPECT_EQ(h, g.expected)
          << g.name << ": same-seed schedule diverged from the pinned one. "
          << "If this change intentionally alters the schedule, "
          << "re-capture with CFS_PRINT_SCHEDULE_HASH=1 and update kGolden.";
    }
  }
}

}  // namespace
}  // namespace cfs::harness
