// Failure drill: exercises the failure-handling paths of §2.2.5 and §2.3.3 —
//   1. write a file, crash a storage node holding replicas,
//   2. reads keep working (the client probes replicas and re-identifies the
//      raft leader, §2.4),
//   3. the master detects the dead node via missed heartbeats and marks
//      affected partitions read-only,
//   4. the node restarts: extent alignment first, then raft recovery
//      (§2.2.5's two-phase order),
//   5. the resource-manager leader is crashed and a replica takes over with
//      the cluster map intact.
#include <cstdio>

#include "harness/cluster.h"
#include "vfs/vfs.h"

using namespace cfs;
using harness::Cluster;
using harness::ClusterOptions;
using harness::RunTask;

int main() {
  ClusterOptions options;
  options.num_nodes = 5;
  options.track_contents = true;  // verify bytes end to end
  Cluster cluster(options);
  auto run = [&](auto task) { return *RunTask(cluster.sched(), std::move(task)); };

  if (!run(cluster.Start()).ok() || !run(cluster.CreateVolume("drill", 3, 8)).ok()) {
    return 1;
  }
  client::MountContext* mount = (*run(cluster.MountClient("drill")))->default_mount();
  vfs::FileSystem fs(mount);

  // 1. Write a 512 KiB file (several 128 KiB packets through the chain).
  std::string payload;
  for (int i = 0; i < 512; i++) payload += std::string(1024, static_cast<char>('a' + i % 26));
  vfs::Fd fd = *run(fs.Open("/victim.bin", vfs::kCreate | vfs::kWrite));
  (void)run(fs.Write(fd, payload));
  (void)run(fs.Close(fd));
  std::printf("wrote /victim.bin (%zu KiB)\n", payload.size() / kKiB);

  // 2. Crash a storage node that hosts data partitions.
  master::MasterNode* leader = cluster.master_leader();
  sim::NodeId victim_id = leader->state().data_partitions().begin()->second.replicas[0];
  int victim = -1;
  for (int i = 0; i < cluster.num_nodes(); i++) {
    if (cluster.node_host(i)->id() == victim_id) victim = i;
  }
  cluster.CrashNode(victim);
  std::printf("crashed storage node %u\n", victim_id);

  cluster.sched().RunFor(2 * kSec);  // raft failovers on affected partitions
  vfs::Fd rd = *run(fs.Open("/victim.bin", vfs::kRead));
  auto got = *run(fs.Read(rd, payload.size()));
  (void)run(fs.Close(rd));
  std::printf("read with node down: %zu bytes, %s\n", got.size(),
              got == payload ? "content INTACT" : "CONTENT MISMATCH");

  // 3. The master marks partitions on the dead node read-only (§2.3.3).
  bool marked = cluster.RunUntil([&] {
    master::MasterNode* l = cluster.master_leader();
    if (!l) return false;
    for (const auto& [pid, rec] : l->state().data_partitions()) {
      if (rec.read_only) return true;
    }
    return false;
  });
  std::printf("master marked affected partitions read-only: %s\n", marked ? "yes" : "no");

  // 4. Restart + two-phase recovery.
  bool recovered = harness::RunTaskVoid(cluster.sched(), cluster.RestartNode(victim));
  cluster.sched().RunFor(3 * kSec);
  std::printf("node %u restarted and recovered (alignment, then raft): %s\n", victim_id,
              recovered ? "ok" : "FAILED");

  vfs::Fd rd2 = *run(fs.Open("/victim.bin", vfs::kRead));
  auto got2 = *run(fs.Read(rd2, payload.size()));
  (void)run(fs.Close(rd2));
  std::printf("read after recovery: %s\n",
              got2 == payload ? "content INTACT" : "CONTENT MISMATCH");

  // 5. Master failover.
  leader = cluster.master_leader();
  size_t partitions_before = leader->state().data_partitions().size();
  leader->host()->Crash();
  bool new_leader = cluster.RunUntil([&] {
    master::MasterNode* l = cluster.master_leader();
    return l != nullptr && l->host()->up();
  });
  master::MasterNode* l2 = cluster.master_leader();
  std::printf("master failover: %s; cluster map intact: %s\n", new_leader ? "ok" : "FAILED",
              l2 && l2->state().data_partitions().size() == partitions_before ? "yes" : "no");

  // The file system still works end to end.
  vfs::Fd fd3 = *run(fs.Open("/after-failover.txt", vfs::kCreate | vfs::kWrite));
  (void)run(fs.Write(fd3, "business as usual\n"));
  (void)run(fs.Close(fd3));
  std::printf("post-failover create+write OK\nfailure drill complete\n");
  return 0;
}
