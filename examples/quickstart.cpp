// Quickstart: bring up a CFS cluster, mount a volume, and use the
// POSIX-like API — the 60-second tour of the public surface.
//
//   cluster -> volume -> client -> FileSystem (mkdir/open/write/read/list)
//
// Everything runs inside the deterministic simulation substrate; `Run(...)`
// drives the virtual clock until the operation completes.
#include <cstdio>

#include "harness/cluster.h"
#include "vfs/vfs.h"

using namespace cfs;
using harness::Cluster;
using harness::ClusterOptions;
using harness::RunTask;

int main() {
  // 1. A cluster: 3 resource-manager replicas + 5 storage machines, each
  //    running a meta node (metadata in memory) and a data node (extent
  //    stores on 16 simulated SSDs).
  ClusterOptions options;
  options.num_nodes = 5;
  Cluster cluster(options);
  auto run = [&](auto task) { return *RunTask(cluster.sched(), std::move(task)); };

  if (!run(cluster.Start()).ok()) {
    std::printf("cluster failed to start\n");
    return 1;
  }
  std::printf("cluster up: %d storage nodes, %d masters\n", cluster.num_nodes(), 3);

  // 2. A volume: the file-system instance containers mount (§2). 3 meta
  //    partitions shard the namespace; 8 data partitions hold extents.
  if (!run(cluster.CreateVolume("quickstart", 3, 8)).ok()) {
    std::printf("volume creation failed\n");
    return 1;
  }
  std::printf("volume 'quickstart' created\n");

  // 3. A client with a FUSE-like POSIX facade.
  client::MountContext* mount = (*run(cluster.MountClient("quickstart")))->default_mount();
  vfs::FileSystem fs(mount);

  // 4. Files and directories.
  (void)run(fs.Mkdir("/app"));
  (void)run(fs.Mkdir("/app/logs"));

  vfs::Fd fd = *run(fs.Open("/app/logs/boot.log", vfs::kCreate | vfs::kWrite));
  std::string line = "service started; cfs mounted rw\n";
  (void)run(fs.Write(fd, line));
  (void)run(fs.Write(fd, line));
  (void)run(fs.Close(fd));

  vfs::Fd rd = *run(fs.Open("/app/logs/boot.log", vfs::kRead));
  std::string content = *run(fs.Read(rd, 4096));
  (void)run(fs.Close(rd));
  std::printf("read back %zu bytes:\n%s", content.size(), content.c_str());

  auto entries = *run(fs.ListDir("/app/logs"));
  for (const auto& e : entries) {
    std::printf("  /app/logs/%-12s %6llu bytes  inode %llu\n", e.name.c_str(),
                static_cast<unsigned long long>(e.attr.size),
                static_cast<unsigned long long>(e.attr.ino));
  }

  auto attr = *run(fs.Stat("/app/logs/boot.log"));
  std::printf("stat: size=%llu nlink=%u\n", static_cast<unsigned long long>(attr.size),
              attr.nlink);

  std::printf("quickstart OK (simulated time: %lld ms)\n",
              static_cast<long long>(cluster.sched().Now() / 1000));
  return 0;
}
