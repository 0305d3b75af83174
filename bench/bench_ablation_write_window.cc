// Ablation: sliding-window depth of the sequential-write pipeline.
//
// Fig-8-shaped cluster (single client, 1170 MiB/s wire so storage, not the
// NIC, is the binding resource), sequential appends of 1 MiB per op — eight
// 128 KiB packets — with fsync-per-op, sweeping write_window_packets.
// window=1 is the stop-and-wait baseline (one client→primary→backups→ack
// round trip per packet); deeper windows overlap packet round trips, so
// throughput should rise until the chain (disk/CPU) saturates.
//
// Emits one JSON line per (window, procs) point for machine consumption,
// then a summary table.
#include <cstdio>

#include "bench_common.h"

using namespace cfs;
using namespace cfs::bench;

int main(int argc, char** argv) {
  WallclockReporter wallclock("bench_ablation_write_window");
  const bool smoke = SmokeMode(argc, argv);
  const std::vector<int> kWindows = smoke ? std::vector<int>{1, 4}
                                          : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> kProcs = smoke ? std::vector<int>{1} : std::vector<int>{1, 4};
  const uint64_t kOpBytes = 1 * kMiB;  // 8 packets per op
  const int kOpsPerProc = smoke ? 6 : 40;

  std::printf("Ablation: write window depth (seq 1 MiB appends, fig8-shaped cluster)%s\n",
              smoke ? " [smoke]" : "");

  std::vector<std::string> cols;
  for (int w : kWindows) cols.push_back("w=" + std::to_string(w));

  for (int procs : kProcs) {
    std::vector<double> mibps_row, stall_row;
    for (int w : kWindows) {
      client::ClientOptions copts;
      copts.write_window_packets = w;
      CfsBench b = MakeCfsBench(1, /*seed=*/41 + procs, 30, 40, /*nic_mib=*/1170, copts);
      FioParams params;
      params.file_bytes = 1 * kGiB;
      params.seq_block = kOpBytes;
      params.ops_per_proc = kOpsPerProc;
      auto ops = FanOutAs<DataOps>(b.data_adapters, procs);
      BenchResult r = RunFio(&b.sched(), FioPattern::kSeqWrite, ops, params);
      double mibps = r.Iops() * kOpBytes / kMiB;
      const obs::Registry& st = b.clients[0]->metrics();
      std::printf(
          "{\"bench\":\"write_window\",\"window\":%d,\"procs\":%d,"
          "\"op_bytes\":%llu,\"ops\":%llu,\"iops\":%.1f,\"mib_per_s\":%.1f,"
          "\"max_inflight\":%llu,\"window_stalls\":%llu,\"resends\":%llu,"
          "\"suffix_resend_bytes\":%llu}\n",
          w, procs, static_cast<unsigned long long>(kOpBytes),
          static_cast<unsigned long long>(r.ops), r.Iops(), mibps,
          static_cast<unsigned long long>(st.gauge("client.max_inflight_packets")),
          static_cast<unsigned long long>(st.counter("client.window_stalls")),
          static_cast<unsigned long long>(st.counter("client.resends")),
          static_cast<unsigned long long>(st.counter("client.suffix_resend_bytes")));
      mibps_row.push_back(mibps);
      stall_row.push_back(static_cast<double>(st.counter("client.window_stalls")));
    }
    PrintHeader("seq write MiB/s (procs=" + std::to_string(procs) + ")", cols);
    PrintRow("CFS", mibps_row);
    std::vector<double> speedup;
    for (double v : mibps_row) speedup.push_back(mibps_row[0] > 0 ? v / mibps_row[0] : 0);
    PrintRow("vs w=1", speedup);
  }
  wallclock.Print();
  return 0;
}
