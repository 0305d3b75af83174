// Figure 9: fio-style large-file IOPS with {1..8} clients — 64 processes per
// client for the random tests, 16 for the sequential tests, each process on
// its own private file (paper setup).
//
// Paper shape: CFS far ahead of Ceph in random read and random write at
// every client count (in-memory metadata + in-place overwrite vs bounded
// caches + queue-walking overwrites); sequential read/write similar.
//
// Flags:
//   --smoke      shrink the sweep (2 client counts, random patterns, fewer
//                ops, CFS only) so CI can run the binary in seconds.
//   --nodes N    cluster size (default 10, the paper testbed). The CI
//                bench-smoke budget step runs `--smoke --nodes 100` — a
//                100-node fig9-class run — and gates on wall-clock; see
//                .github/workflows/ci.yml and EXPERIMENTS.md.
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main(int argc, char** argv) {
  WallclockReporter wallclock("bench_fig9_largefile_multi_client");
  const bool smoke = SmokeMode(argc, argv);
  const char* nodes_flag = FlagValue(argc, argv, "--nodes");
  const int nodes = nodes_flag ? std::atoi(nodes_flag) : 10;
  // More machines get proportionally more partitions to spread over (the
  // default 30/40 split is the 10-node paper shape).
  const uint32_t meta_parts = nodes > 10 ? 3u * static_cast<uint32_t>(nodes) / 5u : 30u;
  const uint32_t data_parts = nodes > 10 ? 4u * static_cast<uint32_t>(nodes) / 5u : 40u;

  const std::vector<int> kClients = smoke ? std::vector<int>{4, 8} : std::vector<int>{1, 2, 4, 8};
  const std::vector<FioPattern> kPatterns = {FioPattern::kRandWrite, FioPattern::kRandRead,
                                             FioPattern::kSeqWrite, FioPattern::kSeqRead};

  std::printf("Figure 9: large-file IOPS, multiple clients (%d nodes%s)\n", nodes,
              smoke ? ", smoke" : "");
  std::printf("(64 procs/client random, 16 procs/client sequential; 1 GiB files)\n");

  std::vector<std::string> cols;
  for (int c : kClients) cols.push_back("clients=" + std::to_string(c));

  obs::Registry cfs_cluster_metrics;
  for (FioPattern pattern : kPatterns) {
    bool rand = pattern == FioPattern::kRandWrite || pattern == FioPattern::kRandRead;
    int procs = rand ? 64 : 16;
    PrintHeader(std::string(FioPatternName(pattern)) + " (" + std::to_string(procs) +
                    " procs/client)",
                cols);
    std::vector<BenchResult> cfs_cells, ceph_cells;
    for (int clients : kClients) {
      FioParams params;
      params.file_bytes = smoke ? 256 * kMiB : 1 * kGiB;
      params.ops_per_proc = smoke ? (rand ? 40 : 15) : (rand ? 60 : 25);
      {
        CfsBench b = MakeCfsBench(clients, /*seed=*/31 + clients, meta_parts, data_parts,
                                  /*nic_mib=*/1170, std::nullopt, /*trace=*/false, nodes);
        auto ops = FanOutAs<DataOps>(b.data_adapters, procs);
        cfs_cells.push_back(RunFio(&b.sched(), pattern, ops, params));
        FoldPrefixes(b.cluster->Metrics(), {"net.", "qos."}, &cfs_cluster_metrics);
      }
      if (!smoke) {
        CephBench b = MakeCephBench(clients, /*seed=*/31 + clients, {}, /*nic_mib=*/1170);
        auto ops = FanOutAs<DataOps>(b.data_adapters, procs);
        ceph_cells.push_back(RunFio(&b.sched(), pattern, ops, params));
      }
    }
    PrintFigureRows(FioPatternName(pattern), cfs_cells, ceph_cells);
  }
  PrintMetricsLine("cluster_metrics", "cfs", cfs_cluster_metrics);
  wallclock.Print();
  return 0;
}
