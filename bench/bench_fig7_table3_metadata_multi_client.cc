// Figure 7 + Table 3: IOPS of the 7 mdtest metadata operations with
// {1, 2, 4, 8} clients, 64 processes each (tree tests: one process per
// client, as mdtest runs its tree phases once per job).
//
// Table 3 is the 8-client column. Paper shape: CFS wins 6 of 7 tests at 8
// clients (DirCreation ~4x, DirStat ~9.6x, DirRemoval ~4x, FileCreation
// ~3.9x, FileRemoval ~2.2x, TreeRemoval ~4x), Ceph stays slightly ahead on
// TreeCreation.
#include <cstdio>

#include <map>

#include "bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main() {
  WallclockReporter wallclock("bench_fig7_table3_metadata_multi_client");
  const std::vector<int> kClients = {1, 2, 4, 8};
  const int kProcsPerClient = 64;
  const std::vector<MdTest> kTests = {
      MdTest::kDirCreation, MdTest::kDirStat,      MdTest::kDirRemoval,
      MdTest::kFileCreation, MdTest::kFileRemoval, MdTest::kTreeCreation,
      MdTest::kTreeRemoval};

  std::printf("Figure 7 + Table 3: metadata operations, multiple clients x 64 procs\n");

  // mdtest runs its phases back to back against shared file-system state;
  // we do the same (one cluster pair per client count, all 7 phases in
  // order) so later phases see the cache pressure and rebalancing that the
  // earlier ones induced (§4.2's explanation of the tree results).
  std::map<MdTest, std::vector<double>> cfs_results, ceph_results;
  std::map<MdTest, obs::Histogram> cfs_lat, ceph_lat;
  obs::Registry cfs_cluster_metrics;
  for (int clients : kClients) {
    CfsBench cfs = MakeCfsBench(clients, /*seed=*/11 + clients);
    CephBench ceph = MakeCephBench(clients, /*seed=*/11 + clients);
    int phase = 0;
    for (MdTest test : kTests) {
      bool tree = test == MdTest::kTreeCreation || test == MdTest::kTreeRemoval;
      int procs = tree ? 1 : kProcsPerClient;
      MdtestParams params;
      params.phase_tag = "ph" + std::to_string(phase++) + "-";
      params.items_per_proc = 24;
      params.stat_dir_files = 24;
      params.stat_repetitions = 2;
      params.stat_shift = procs;  // mdtest -N: stat the next client's files
      {
        auto ops = FanOutAs<MetaOps>(cfs.meta_adapters, procs);
        BenchResult r = RunMdtest(&cfs.sched(), test, ops, params);
        cfs_results[test].push_back(r.Iops());
        cfs_lat[test].MergeFrom(r.latency);
      }
      {
        auto ops = FanOutAs<MetaOps>(ceph.meta_adapters, procs);
        BenchResult r = RunMdtest(&ceph.sched(), test, ops, params);
        ceph_results[test].push_back(r.Iops());
        ceph_lat[test].MergeFrom(r.latency);
      }
    }
    // How much the meta-partition leaders batched under this client count
    // (proposal batching is the consensus-path lever behind the multi-client
    // mutation numbers; see bench_ablation_group_commit for the ablation).
    const obs::Registry m = cfs.cluster->Metrics();
    obs::Registry gc;
    FoldPrefixes(m, {"raft.gc.", "raft.log."}, &gc);
    PrintMetricsLine("group_commit", "clients=" + std::to_string(clients), gc);
    FoldPrefixes(m, {"net.", "qos."}, &cfs_cluster_metrics);
  }
  PrintMetricsLine("cluster_metrics", "cfs", cfs_cluster_metrics);

  std::vector<double> table3_cfs, table3_ceph;
  for (MdTest test : kTests) {
    PrintHeader(std::string(MdTestName(test)) + " (64 procs/client)",
                {"clients=1", "clients=2", "clients=4", "clients=8"});
    const auto& cfs_row = cfs_results[test];
    const auto& ceph_row = ceph_results[test];
    PrintRow("CFS", cfs_row);
    PrintRow("Ceph", ceph_row);
    std::vector<double> ratio;
    for (size_t i = 0; i < cfs_row.size(); i++) {
      ratio.push_back(ceph_row[i] > 0 ? cfs_row[i] / ceph_row[i] : 0);
    }
    PrintRow("CFS/Ceph", ratio);
    PrintLatencyQuantiles(std::string("cfs:") + MdTestName(test), cfs_lat[test]);
    PrintLatencyQuantiles(std::string("ceph:") + MdTestName(test), ceph_lat[test]);
    table3_cfs.push_back(cfs_row.back());
    table3_ceph.push_back(ceph_row.back());
  }

  std::printf("\n=== Table 3: IOPS at 8 clients x 64 procs ===\n");
  std::printf("%-16s%14s%14s%14s   (paper %% improv.)\n", "Test", "CFS", "Ceph", "% improv");
  const char* paper[] = {"404", "862", "296", "290", "122", "-9", "300"};
  for (size_t i = 0; i < kTests.size(); i++) {
    double improv = table3_ceph[i] > 0
                        ? (table3_cfs[i] - table3_ceph[i]) / table3_ceph[i] * 100.0
                        : 0;
    std::printf("%-16s%14.0f%14.0f%13.0f%%   (%s%%)\n", MdTestName(kTests[i]), table3_cfs[i],
                table3_ceph[i], improv, paper[i]);
  }

  // Traced single create on a fresh cluster: the per-stage breakdown of one
  // metadata mutation (meta RPC -> raft propose/batch/apply -> WAL write).
  {
    CfsBench b = MakeCfsBench(1, /*seed=*/99, 30, 40, 0, std::nullopt, /*trace=*/true);
    client::Client* c = b.clients[0];
    auto st = harness::RunTask(
        b.sched(), [](client::Client* c) -> sim::Task<Status> {
          auto created = co_await c->Create(meta::kRootInode, "traced", meta::FileType::kFile);
          co_return created.status();
        }(c));
    if (st && st->ok()) {
      PrintStageBreakdown("cfs:create", *b.cluster, "op:create");
    } else {
      std::fprintf(stderr, "traced create failed\n");
    }
  }
  wallclock.Print();
  return 0;
}
