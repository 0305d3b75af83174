// Figure 6: IOPS of the 7 mdtest metadata operations with a single client
// and {1, 4, 16, 64} processes, CFS vs Ceph.
//
// Expected shape (paper): with 1 process Ceph wins most tests (directory
// locality + journal beats CFS's consensus round trip); as processes grow,
// CFS catches up and passes Ceph (uniform partition spread vs MDS hotspots
// and cache pressure). DirStat is CFS-dominated at every point
// (batchInodeGet + client cache); TreeCreation favours Ceph throughout.
#include <cstdio>

#include "bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main() {
  WallclockReporter wallclock("bench_fig6_metadata_single_client");
  const std::vector<int> kProcs = {1, 4, 16, 64};
  const std::vector<MdTest> kTests = {
      MdTest::kDirCreation, MdTest::kDirStat,      MdTest::kDirRemoval,
      MdTest::kFileCreation, MdTest::kFileRemoval, MdTest::kTreeCreation,
      MdTest::kTreeRemoval};

  std::printf("Figure 6: metadata operations, single client, varying processes\n");
  std::printf("(IOPS in simulated time; paper shape: Ceph ahead at 1 proc in most tests,\n");
  std::printf(" CFS catches up and passes as processes increase)\n");

  obs::Registry cfs_rpc_metrics, ceph_rpc_metrics, cfs_cluster_metrics;
  for (MdTest test : kTests) {
    PrintHeader(std::string(MdTestName(test)) + " (1 client)",
                {"procs=1", "procs=4", "procs=16", "procs=64"});
    std::vector<BenchResult> cfs_cells, ceph_cells;
    for (int procs : kProcs) {
      MdtestParams params;
      params.items_per_proc = 48;
      bool tree = test == MdTest::kTreeCreation || test == MdTest::kTreeRemoval;
      {
        CfsBench b = MakeCfsBench(1, /*seed=*/7 + procs);
        auto ops = FanOutAs<MetaOps>(b.meta_adapters, tree ? 1 : procs);
        cfs_cells.push_back(RunMdtest(&b.sched(), test, ops, params));
        const obs::Registry m = b.cluster->Metrics();
        FoldPrefixes(m, {"rpc."}, &cfs_rpc_metrics);
        FoldPrefixes(m, {"net.", "qos."}, &cfs_cluster_metrics);
      }
      {
        CephBench b = MakeCephBench(1, /*seed=*/7 + procs);
        auto ops = FanOutAs<MetaOps>(b.meta_adapters, tree ? 1 : procs);
        ceph_cells.push_back(RunMdtest(&b.sched(), test, ops, params));
        FoldPrefixes(HostMetrics(*b.net), {"rpc."}, &ceph_rpc_metrics);
      }
    }
    PrintFigureRows(MdTestName(test), cfs_cells, ceph_cells);
  }
  PrintMetricsLine("rpc_metrics", "cfs", cfs_rpc_metrics);
  PrintMetricsLine("rpc_metrics", "ceph", ceph_rpc_metrics);
  PrintMetricsLine("cluster_metrics", "cfs", cfs_cluster_metrics);
  wallclock.Print();
  return 0;
}
