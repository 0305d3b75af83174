// Figure 10: small-file write / read / removal IOPS for file sizes 1..128 KB
// with 8 clients x 64 processes (the paper's product-image workload:
// write-once, never modified).
//
// Paper shape: CFS ahead of Ceph in both write and read at every size —
// (1) CFS keeps all file metadata in memory (no disk IO on read), and
// (2) the CFS client writes small files straight into an aggregated extent
// on the data node without asking the resource manager for new extents
// (§4.4); deletes use the punch-hole path.
#include <cstdio>

#include "bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main() {
  WallclockReporter wallclock("bench_fig10_small_files");
  const std::vector<uint64_t> kSizesKb = {1, 2, 4, 8, 16, 32, 64, 128};
  const int kClients = 8;
  const int kProcs = 64;
  const int kFilesPerProc = 4;

  std::printf("Figure 10: small files, 8 clients x 64 procs, sizes 1..128 KB\n");

  std::vector<std::string> cols;
  for (auto s : kSizesKb) cols.push_back(std::to_string(s) + "KB");

  const std::vector<std::pair<SmallFileTest, const char*>> kTests = {
      {SmallFileTest::kWrite, "File Write"},
      {SmallFileTest::kRead, "File Read"},
      {SmallFileTest::kRemoval, "File Removal"},
  };

  obs::Registry cfs_cluster_metrics;
  for (auto [test, name] : kTests) {
    PrintHeader(name, cols);
    std::vector<BenchResult> cfs_cells, ceph_cells;
    for (uint64_t kb : kSizesKb) {
      {
        CfsBench b = MakeCfsBench(kClients, /*seed=*/41 + kb, 30, 120, /*nic_mib=*/1170);
        auto meta = FanOutAs<MetaOps>(b.meta_adapters, kProcs);
        auto data = FanOutAs<DataOps>(b.data_adapters, kProcs);
        cfs_cells.push_back(RunSmallFiles(&b.sched(), test, kb * kKiB, meta, data, kFilesPerProc));
        FoldPrefixes(b.cluster->Metrics(), {"net.", "qos."}, &cfs_cluster_metrics);
      }
      {
        CephBench b = MakeCephBench(kClients, /*seed=*/41 + kb, {}, /*nic_mib=*/1170);
        auto meta = FanOutAs<MetaOps>(b.meta_adapters, kProcs);
        auto data = FanOutAs<DataOps>(b.data_adapters, kProcs);
        ceph_cells.push_back(RunSmallFiles(&b.sched(), test, kb * kKiB, meta, data, kFilesPerProc));
      }
    }
    PrintFigureRows(name, cfs_cells, ceph_cells);
  }
  PrintMetricsLine("cluster_metrics", "cfs", cfs_cluster_metrics);
  wallclock.Print();
  return 0;
}
