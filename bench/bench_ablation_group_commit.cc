// Ablation: group commit on the consensus path (raft proposal batching).
//
// The paper pins metadata mutations on raft (§2.1.2), so every create pays
// leader log writes before it is acknowledged. With many concurrent clients
// those writes are the choke point; group commit folds concurrent proposals
// into one LogStore::Append per batch. This bench isolates that lever:
//
//  * single meta partition, so every mutation funnels through ONE leader;
//  * disk queue_depth=1, so leader log flushes serialize (the regime where
//    coalescing pays — with deep NVMe queues the disk hides it);
//  * sweep batching {off: max_batch_proposals=1, on: 64} x concurrency
//    {1, 8, 32} closed-loop creator clients.
//
// Expectations: >=2x create throughput at 32 clients with batching on,
// leader log writes per committed proposal well below 1, and single-client
// p50 unchanged (natural batching adds no wait: the first proposal of a
// batch reaches the disk with nothing in front of it).
//
// Emits one JSON line per cell, then summary tables with an on/off speedup
// row. --smoke shrinks the sweep for CI.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"

using namespace cfs;
using namespace cfs::bench;

namespace {

/// The closed-loop creators of one cell, shared through a pointer.
struct Creators {
  harness::Cluster* cluster;
  std::vector<client::MountContext*> mounts;
  int ops_per_client;
  std::vector<SimDuration> latencies;  // OK creates only
};

sim::Task<void> Creator(Creators* c, int id) {
  for (int j = 0; j < c->ops_per_client; j++) {
    const SimTime t0 = c->cluster->sched().Now();
    auto r = co_await c->mounts[id]->Create(
        meta::kRootInode, "gc" + std::to_string(id) + "-" + std::to_string(j),
        meta::FileType::kFile);
    if (r.ok()) c->latencies.push_back(c->cluster->sched().Now() - t0);
  }
}

struct CellResult {
  double creates_per_sec = 0;
  double p50_usec = 0;
  double avg_batch = 0;        // proposals per leader log write (workload only)
  double writes_per_proposal = 0;
  uint64_t queue_hwm = 0;
};

CellResult RunCell(bool batching_on, int clients, int ops_per_client, uint64_t seed) {
  harness::ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = seed;
  opts.track_contents = false;
  // Serialize log flushes: one disk lane makes the leader's WAL the binding
  // resource, which is what group commit optimizes.
  opts.host.disk.queue_depth = 1;
  opts.raft.max_batch_entries = 64;
  opts.raft.max_batch_proposals = batching_on ? 64 : 1;
  harness::Cluster cluster(opts);
  auto st = harness::RunTask(cluster.sched(), cluster.Start());
  if (!st || !st->ok()) {
    std::fprintf(stderr, "cluster start failed\n");
    std::abort();
  }
  st = harness::RunTask(cluster.sched(), cluster.CreateVolume("bench", 1, 4));
  if (!st || !st->ok()) {
    std::fprintf(stderr, "volume create failed\n");
    std::abort();
  }
  Creators creators{&cluster, {}, ops_per_client, {}};
  for (int i = 0; i < clients; i++) {
    auto c = harness::RunTask(cluster.sched(), cluster.MountClient("bench"));
    if (!c || !c->ok()) {
      std::fprintf(stderr, "mount failed\n");
      std::abort();
    }
    creators.mounts.push_back((**c)->default_mount());
  }

  // Workload-only deltas: boot and volume admin also propose through raft.
  const obs::Registry m0 = cluster.Metrics();

  // Elapsed time ends when the last creator returns.
  const SimTime start = cluster.sched().Now();
  const bool finished = RunProcs(&cluster.sched(), clients,
                                 [c = &creators](int i) { return Creator(c, i); });
  std::vector<SimDuration>& latencies = creators.latencies;
  if (!finished || latencies.size() != static_cast<size_t>(clients) * ops_per_client) {
    std::fprintf(stderr, "workload did not finish: %zu of %d creates succeeded\n",
                 latencies.size(), clients * ops_per_client);
    std::abort();
  }
  double elapsed_sec = static_cast<double>(cluster.sched().Now() - start) / kSec;

  const obs::Registry m1 = cluster.Metrics();
  auto delta = [&](std::string_view k) { return m1.counter(k) - m0.counter(k); };
  uint64_t batches = delta("raft.gc.batches");
  uint64_t proposals = delta("raft.gc.proposals");
  uint64_t writes = delta("raft.log.append_writes");

  CellResult r;
  r.creates_per_sec = elapsed_sec > 0 ? latencies.size() / elapsed_sec : 0;
  std::sort(latencies.begin(), latencies.end());
  r.p50_usec = latencies.empty()
                   ? 0
                   : static_cast<double>(latencies[latencies.size() / 2]) / kUsec;
  r.avg_batch = batches ? static_cast<double>(proposals) / batches : 0;
  r.writes_per_proposal = proposals ? static_cast<double>(writes) / proposals : 0;
  r.queue_hwm = static_cast<uint64_t>(m1.gauge("raft.gc.queue_high_watermark"));
  std::printf(
      "{\"bench\":\"group_commit\",\"batching\":%d,\"clients\":%d,"
      "\"ops\":%zu,\"creates_per_s\":%.1f,\"p50_usec\":%.1f,"
      "\"avg_batch\":%.2f,\"log_writes_per_proposal\":%.3f,"
      "\"queue_high_watermark\":%llu}\n",
      batching_on ? 1 : 0, clients, latencies.size(), r.creates_per_sec, r.p50_usec,
      r.avg_batch, r.writes_per_proposal,
      static_cast<unsigned long long>(r.queue_hwm));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  WallclockReporter wallclock("bench_ablation_group_commit");
  const bool smoke = SmokeMode(argc, argv);
  const std::vector<int> kClients = smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 8, 32};
  const int kOpsPerClient = smoke ? 4 : 25;

  std::printf(
      "Ablation: group commit (raft proposal batching), single meta partition, "
      "queue_depth=1%s\n",
      smoke ? " [smoke]" : "");

  std::vector<double> off_tput, on_tput, off_p50, on_p50, on_batch, off_wpp, on_wpp;
  for (int clients : kClients) {
    CellResult off = RunCell(false, clients, kOpsPerClient, /*seed=*/71 + clients);
    CellResult on = RunCell(true, clients, kOpsPerClient, /*seed=*/71 + clients);
    off_tput.push_back(off.creates_per_sec);
    on_tput.push_back(on.creates_per_sec);
    off_p50.push_back(off.p50_usec);
    on_p50.push_back(on.p50_usec);
    on_batch.push_back(on.avg_batch);
    off_wpp.push_back(off.writes_per_proposal);
    on_wpp.push_back(on.writes_per_proposal);
  }

  std::vector<std::string> cols;
  for (int c : kClients) cols.push_back("clients=" + std::to_string(c));
  PrintHeader("create throughput (creates/s)", cols);
  PrintRow("batch off", off_tput);
  PrintRow("batch on", on_tput);
  std::vector<double> speedup;
  for (size_t i = 0; i < on_tput.size(); i++) {
    speedup.push_back(off_tput[i] > 0 ? on_tput[i] / off_tput[i] : 0);
  }
  PrintRow("on/off", speedup);

  PrintHeader("create p50 latency (usec)", cols);
  PrintRow("batch off", off_p50);
  PrintRow("batch on", on_p50);

  PrintHeader("leader log writes per proposal", cols);
  PrintRow("batch off", off_wpp);
  PrintRow("batch on", on_wpp);
  PrintRow("avg batch(on)", on_batch);
  wallclock.Print();
  return 0;
}
