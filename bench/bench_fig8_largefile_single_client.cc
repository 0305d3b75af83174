// Figure 8: fio-style large-file IOPS with a single client and {1..64}
// processes, each on its own (scaled-down) private file. Sequential ops use
// 128 KiB blocks, random ops 4 KiB (direct IO — no client page cache).
//
// Paper shape: sequential read/write nearly identical between CFS and Ceph
// across process counts (both NIC/packet bound); random read/write similar
// at low process counts, CFS pulls ahead once the per-node object-metadata
// working set exceeds Ceph's bounded caches (> ~16 processes).
//
// Observability hooks (EXPERIMENTS.md A6):
//   * one `latency_quantiles <system>:<pattern>` line per pattern (merged
//     across the process sweep),
//   * a traced 1 MiB append on a fresh cluster, printed as a
//     `stage_breakdown cfs:write-1mb {...}` line,
//   * `--trace-out <path>` dumps that run's full span log (JSONL; feed to
//     tools/trace2chrome.py), `--critical-path` prints the span tree.
//   * `--smoke` shrinks the sweep for CI.
#include <cstdio>

#include "bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main(int argc, char** argv) {
  WallclockReporter wallclock("bench_fig8_largefile_single_client");
  const bool smoke = SmokeMode(argc, argv);
  const char* trace_out = FlagValue(argc, argv, "--trace-out");
  const bool critical_path = HasFlag(argc, argv, "--critical-path");

  const std::vector<int> kProcs =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
  const std::vector<FioPattern> kPatterns = {FioPattern::kSeqWrite, FioPattern::kSeqRead,
                                             FioPattern::kRandWrite, FioPattern::kRandRead};

  std::printf("Figure 8: large-file IOPS, single client, varying processes\n");
  std::printf("(per-process file: 1 GiB scaled stand-in for the paper's 40 GB)\n");

  std::vector<std::string> cols;
  for (int p : kProcs) cols.push_back("p=" + std::to_string(p));

  obs::Registry cfs_rpc_metrics, ceph_rpc_metrics, cfs_cluster_metrics;
  for (FioPattern pattern : kPatterns) {
    PrintHeader(std::string(FioPatternName(pattern)) + " (1 client)", cols);
    bool rand = pattern == FioPattern::kRandWrite || pattern == FioPattern::kRandRead;
    std::vector<BenchResult> cfs_cells, ceph_cells;
    for (int procs : kProcs) {
      FioParams params;
      params.file_bytes = 1 * kGiB;
      params.ops_per_proc = smoke ? (rand ? 20 : 8) : (rand ? 120 : 40);
      {
        CfsBench b = MakeCfsBench(1, /*seed=*/23 + procs, 30, 40, /*nic_mib=*/1170);
        auto ops = FanOutAs<DataOps>(b.data_adapters, procs);
        cfs_cells.push_back(RunFio(&b.sched(), pattern, ops, params));
        const obs::Registry m = b.cluster->Metrics();
        FoldPrefixes(m, {"rpc."}, &cfs_rpc_metrics);
        FoldPrefixes(m, {"net.", "qos."}, &cfs_cluster_metrics);
      }
      {
        CephBench b = MakeCephBench(1, /*seed=*/23 + procs, {}, /*nic_mib=*/1170);
        auto ops = FanOutAs<DataOps>(b.data_adapters, procs);
        ceph_cells.push_back(RunFio(&b.sched(), pattern, ops, params));
        FoldPrefixes(HostMetrics(*b.net), {"rpc."}, &ceph_rpc_metrics);
      }
    }
    PrintFigureRows(FioPatternName(pattern), cfs_cells, ceph_cells);
  }
  PrintMetricsLine("rpc_metrics", "cfs", cfs_rpc_metrics);
  PrintMetricsLine("rpc_metrics", "ceph", ceph_rpc_metrics);
  PrintMetricsLine("cluster_metrics", "cfs", cfs_cluster_metrics);

  // Traced 1 MiB append on a fresh (idle) cluster: the per-stage breakdown
  // of one end-to-end write through the sliding-window pipeline. Tracing is
  // schedule-neutral, so this run is bit-identical to an untraced one.
  {
    CfsBench b = MakeCfsBench(1, /*seed=*/97, 30, 40, /*nic_mib=*/1170, std::nullopt,
                              /*trace=*/true);
    client::MountContext* c = b.clients[0];
    auto traced = [&]() -> sim::Task<Status> {
      auto created = co_await c->Create(meta::kRootInode, "trace-1mb", meta::FileType::kFile);
      if (!created.ok()) co_return created.status();
      std::string payload(1 * kMiB, 'w');
      co_return co_await c->Write(created->id, 0, std::move(payload));
    };
    auto st = harness::RunTask(b.sched(), traced());
    if (!st || !st->ok()) {
      std::fprintf(stderr, "traced 1 MiB write failed: %s\n",
                   st ? st->ToString().c_str() : "hang");
      return 1;
    }
    PrintStageBreakdown("cfs:write-1mb", *b.cluster, "op:write");
    uint64_t id = obs::FindLastTrace(b.cluster->tracer(), "op:write");
    if (critical_path) {
      std::printf("%s", obs::CriticalPath(b.cluster->tracer(), id).c_str());
    }
    if (trace_out) {
      std::FILE* f = std::fopen(trace_out, "w");
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", trace_out);
        return 1;
      }
      std::string log = b.cluster->tracer().DumpLog();
      std::fwrite(log.data(), 1, log.size(), f);
      std::fclose(f);
      std::printf("trace_log %s (%zu bytes, %zu spans)\n", trace_out, log.size(),
                  b.cluster->tracer().num_spans());
    }
  }
  wallclock.Print();
  return 0;
}
