// Container-platform scenario (the paper's motivating workload, §1): one
// volume shared by many containers across machines —
//   * a deployment writes a config file once,
//   * every container reads it (shared read access),
//   * each container appends to its own log (persist-beyond-container),
//   * one container is "rescheduled" (new client) and picks up the data the
//     old one persisted.
#include <cstdio>
#include <vector>

#include "harness/cluster.h"
#include "vfs/vfs.h"

using namespace cfs;
using harness::Cluster;
using harness::ClusterOptions;
using harness::RunTask;
using harness::RunTaskVoid;

int main() {
  ClusterOptions options;
  options.num_nodes = 6;
  Cluster cluster(options);
  auto run = [&](auto task) { return *RunTask(cluster.sched(), std::move(task)); };

  if (!run(cluster.Start()).ok() || !run(cluster.CreateVolume("shared", 3, 10)).ok()) {
    return 1;
  }

  // Four "containers" on different machines mount the same volume.
  const int kContainers = 4;
  std::vector<vfs::FileSystem*> containers;
  std::vector<std::unique_ptr<vfs::FileSystem>> owned;
  for (int i = 0; i < kContainers; i++) {
    client::MountContext* c = (*run(cluster.MountClient("shared")))->default_mount();
    owned.push_back(std::make_unique<vfs::FileSystem>(c));
    containers.push_back(owned.back().get());
  }

  // Deployment writes the shared config once.
  vfs::FileSystem* deployer = containers[0];
  (void)run(deployer->Mkdir("/cfg"));
  (void)run(deployer->Mkdir("/logs"));
  vfs::Fd cfg = *run(deployer->Open("/cfg/service.toml", vfs::kCreate | vfs::kWrite));
  (void)run(deployer->Write(cfg, "workers = 8\nregion = \"eu\"\n"));
  (void)run(deployer->Close(cfg));
  std::printf("deployer wrote /cfg/service.toml\n");

  // Every container reads the config and appends to its own log,
  // concurrently (each runs as its own simulated process).
  bool done = RunTaskVoid(cluster.sched(), [](std::vector<vfs::FileSystem*> cs) -> sim::Task<void> {
    sim::Scheduler* sched = nullptr;
    (void)sched;
    for (size_t i = 0; i < cs.size(); i++) {
      vfs::FileSystem* fs = cs[i];
      auto config = co_await fs->Open("/cfg/service.toml", vfs::kRead);
      if (!config.ok()) continue;
      auto text = co_await fs->Read(*config, 4096);
      (void)co_await fs->Close(*config);
      std::printf("container %zu read config (%zu bytes)\n", i, text.ok() ? text->size() : 0);

      std::string log_path = "/logs/container-" + std::to_string(i) + ".log";
      auto fd = co_await fs->Open(log_path, vfs::kCreate | vfs::kWrite | vfs::kAppend);
      if (!fd.ok()) continue;
      for (int line = 0; line < 50; line++) {
        (void)co_await fs->Write(*fd, "request handled rc=200\n");
      }
      (void)co_await fs->Close(*fd);
    }
  }(containers));
  if (!done) return 1;

  // "Reschedule": a brand-new container (fresh client) takes over container
  // 2's log — the data survived the container.
  client::MountContext* fresh = (*run(cluster.MountClient("shared")))->default_mount();
  vfs::FileSystem fs_new(fresh);
  auto attr = *run(fs_new.Stat("/logs/container-2.log"));
  std::printf("rescheduled container sees container-2.log: %llu bytes (nlink=%u)\n",
              static_cast<unsigned long long>(attr.size), attr.nlink);

  auto entries = *run(fs_new.ListDir("/logs"));
  std::printf("/logs has %zu files:\n", entries.size());
  for (const auto& e : entries) {
    std::printf("  %-24s %8llu bytes\n", e.name.c_str(),
                static_cast<unsigned long long>(e.attr.size));
  }
  std::printf("container platform scenario OK\n");
  return 0;
}
