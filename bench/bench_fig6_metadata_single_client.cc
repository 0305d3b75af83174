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
    std::vector<double> cfs_row, ceph_row;
    obs::Histogram cfs_lat, ceph_lat;
    for (int procs : kProcs) {
      MdtestParams params;
      params.items_per_proc = 48;
      bool tree = test == MdTest::kTreeCreation || test == MdTest::kTreeRemoval;
      {
        CfsBench b = MakeCfsBench(1, /*seed=*/7 + procs);
        auto ops = FanOutAs<MetaOps>(b.meta_adapters, tree ? 1 : procs);
        BenchResult r = RunMdtest(&b.sched(), test, ops, params);
        cfs_row.push_back(r.Iops());
        cfs_lat.MergeFrom(r.latency);
        const obs::Registry m = b.cluster->Metrics();
        FoldPrefixes(m, {"rpc."}, &cfs_rpc_metrics);
        FoldPrefixes(m, {"net.", "qos."}, &cfs_cluster_metrics);
      }
      {
        CephBench b = MakeCephBench(1, /*seed=*/7 + procs);
        auto ops = FanOutAs<MetaOps>(b.meta_adapters, tree ? 1 : procs);
        BenchResult r = RunMdtest(&b.sched(), test, ops, params);
        ceph_row.push_back(r.Iops());
        ceph_lat.MergeFrom(r.latency);
        FoldPrefixes(HostMetrics(*b.net), {"rpc."}, &ceph_rpc_metrics);
      }
    }
    PrintRow("CFS", cfs_row);
    PrintRow("Ceph", ceph_row);
    std::vector<double> ratio;
    for (size_t i = 0; i < cfs_row.size(); i++) {
      ratio.push_back(ceph_row[i] > 0 ? cfs_row[i] / ceph_row[i] : 0);
    }
    PrintRow("CFS/Ceph", ratio);
    PrintLatencyQuantiles(std::string("cfs:") + MdTestName(test), cfs_lat);
    PrintLatencyQuantiles(std::string("ceph:") + MdTestName(test), ceph_lat);
  }
  PrintMetricsLine("rpc_metrics", "cfs", cfs_rpc_metrics);
  PrintMetricsLine("rpc_metrics", "ceph", ceph_rpc_metrics);
  PrintMetricsLine("cluster_metrics", "cfs", cfs_cluster_metrics);
  wallclock.Print();
  return 0;
}
