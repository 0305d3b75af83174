// Shared setup for the reproduction benches: builds a paper-shaped CFS
// cluster (10 machines, meta+data colocated, 3 masters) and a Ceph cluster
// (10 machines, 1 MDS + 16 OSDs each) on separate simulations, and wires
// mdtest/fio process vectors.
//
// Scale substitutions vs the paper testbed are documented in DESIGN.md:
// extent stores run in accounting mode, file sizes and item counts are
// scaled down (IOPS is rate-based; shapes are preserved), and each bench
// prints the simulated-time IOPS for CFS and Ceph side by side.
#pragma once

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/cluster.h"
#include "harness/workloads.h"
#include "obs/analysis.h"

namespace cfs::bench {

struct CfsBench {
  std::unique_ptr<harness::Cluster> cluster;
  std::vector<client::Client*> clients;
  std::vector<std::unique_ptr<CfsMetaOps>> meta_adapters;
  std::vector<std::unique_ptr<CfsDataOps>> data_adapters;

  sim::Scheduler& sched() { return cluster->sched(); }
};

inline CfsBench MakeCfsBench(int num_clients, uint64_t seed = 1,
                             uint32_t meta_partitions = 30, uint32_t data_partitions = 40,
                             uint64_t nic_mib = 0,
                             std::optional<client::ClientOptions> client_opts = std::nullopt,
                             bool trace = false, int num_nodes = 10) {
  CfsBench b;
  harness::ClusterOptions opts;
  opts.num_nodes = num_nodes;  // paper testbed default: 10 machines
  opts.seed = seed;
  opts.track_contents = false;
  opts.trace = trace;  // span tracing never perturbs the schedule (obs/trace.h)
  if (client_opts) opts.client = *client_opts;
  opts.host.disk.capacity_bytes = 960ull * kGiB;
  // Data-path benches scale the wire rate up so the storage stack (not the
  // NIC) is the binding resource, matching the regime the paper's absolute
  // random-IO numbers imply (see EXPERIMENTS.md).
  if (nic_mib) opts.network.bandwidth_mib = nic_mib;
  // Bound append batches so a single follower round never serializes
  // hundreds of KB of log payload (keeps overwrite latency flat under load).
  opts.raft.max_batch_entries = 16;
  b.cluster = std::make_unique<harness::Cluster>(opts);
  auto st = harness::RunTask(b.cluster->sched(), b.cluster->Start());
  if (!st || !st->ok()) {
    std::fprintf(stderr, "CFS cluster start failed\n");
    std::abort();
  }
  st = harness::RunTask(b.cluster->sched(),
                        b.cluster->CreateVolume("bench", meta_partitions, data_partitions));
  if (!st || !st->ok()) {
    std::fprintf(stderr, "CFS volume create failed: %s\n", st ? st->ToString().c_str() : "hang");
    std::abort();
  }
  for (int i = 0; i < num_clients; i++) {
    auto c = harness::RunTask(b.cluster->sched(), b.cluster->MountClient("bench"));
    if (!c || !c->ok()) {
      std::fprintf(stderr, "CFS mount failed\n");
      std::abort();
    }
    b.clients.push_back(**c);
    b.meta_adapters.push_back(std::make_unique<CfsMetaOps>(**c));
    b.data_adapters.push_back(std::make_unique<CfsDataOps>(
        b.cluster.get(), **c, 128 * kKiB));
  }
  return b;
}

struct CephBench {
  std::unique_ptr<sim::Scheduler> sched_holder;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<ceph::CephCluster> cluster;
  std::vector<std::unique_ptr<ceph::CephClient>> clients;
  std::vector<std::unique_ptr<CephMetaOps>> meta_adapters;
  std::vector<std::unique_ptr<CephDataOps>> data_adapters;

  sim::Scheduler& sched() { return *sched_holder; }
};

inline CephBench MakeCephBench(int num_clients, uint64_t seed = 1,
                               ceph::CephOptions opts = {}, uint64_t nic_mib = 0) {
  CephBench b;
  b.sched_holder = std::make_unique<sim::Scheduler>(seed);
  sim::NetworkOptions nopts;
  if (nic_mib) nopts.bandwidth_mib = nic_mib;
  b.net = std::make_unique<sim::Network>(b.sched_holder.get(), nopts);
  b.cluster = std::make_unique<ceph::CephCluster>(b.sched_holder.get(), b.net.get(), opts);
  for (int i = 0; i < num_clients; i++) {
    sim::HostOptions ho;
    ho.num_disks = 1;
    sim::Host* h = b.net->AddHost(ho);
    b.clients.push_back(std::make_unique<ceph::CephClient>(b.cluster.get(), h));
    b.meta_adapters.push_back(std::make_unique<CephMetaOps>(b.clients.back().get()));
    b.data_adapters.push_back(std::make_unique<CephDataOps>(b.clients.back().get()));
  }
  return b;
}

/// Fold the metrics of `from` whose names start with one of `prefixes` into
/// `into`. Every bench cell tears down its cluster, so main()-scoped
/// registries accumulate the cells' Cluster::Metrics() (or, for the Ceph
/// model, HostMetrics()) before teardown and are printed once at the end.
inline void FoldPrefixes(const obs::Registry& from,
                         std::initializer_list<std::string_view> prefixes, obs::Registry* into) {
  auto wanted = [&](const std::string& k) {
    for (std::string_view p : prefixes) {
      if (k.rfind(p, 0) == 0) return true;
    }
    return false;
  };
  for (const auto& [k, v] : from.counters()) {
    if (wanted(k)) into->Add(k, v);
  }
  for (const auto& [k, v] : from.gauges()) {
    if (wanted(k)) into->SetMax(k, v);
  }
  for (const auto& [k, h] : from.histograms()) {
    if (wanted(k)) into->Hist(k).MergeFrom(h);
  }
}

/// Every host registry of a simulated network, merged.
inline obs::Registry HostMetrics(sim::Network& net) {
  obs::Registry reg;
  for (sim::NodeId id = 1; id <= net.num_hosts(); id++) reg.MergeFrom(net.host(id)->metrics());
  return reg;
}

/// One machine-readable line: `<kind> <label> {registry json}`. Kinds:
/// rpc_metrics ("rpc.*"), group_commit ("raft.gc.*" + "raft.log.*"),
/// cluster_metrics ("net.*" + "qos.*").
inline void PrintMetricsLine(const char* kind, const std::string& label,
                             const obs::Registry& reg) {
  std::printf("%s %s %s\n", kind, label.c_str(), reg.DumpJson().c_str());
}

/// Simulator-throughput reporter: constructed at the top of a bench main, it
/// snapshots wall-clock time and the process-wide executed-event counter
/// (sim::Scheduler::process_executed_events), and Print() emits one machine
/// line `bench_wallclock <bench> {json}` with wall seconds, events retired
/// and events/sec. tools/collect_bench.py folds these into
/// BENCH_wallclock.json (schema in EXPERIMENTS.md) so simulator-throughput
/// regressions are caught like any other perf bug. Wall-clock use is fine
/// here: bench/ is outside the determinism lint's src/ scope and the value
/// never feeds the schedule.
class WallclockReporter {
 public:
  explicit WallclockReporter(const char* bench)
      : bench_(bench),
        start_(std::chrono::steady_clock::now()),
        events0_(sim::Scheduler::process_executed_events()) {}

  void Print() const {
    std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start_;
    uint64_t events = sim::Scheduler::process_executed_events() - events0_;
    double sec = wall.count();
    std::printf(
        "bench_wallclock %s {\"wall_sec\":%.3f,\"events\":%llu,\"events_per_sec\":%.0f}\n",
        bench_, sec, static_cast<unsigned long long>(events),
        sec > 0 ? static_cast<double>(events) / sec : 0.0);
  }

 private:
  const char* bench_;
  std::chrono::steady_clock::time_point start_;
  uint64_t events0_;
};

/// Shared tiny-parameter switch for the ablation benches: `--smoke` shrinks
/// every sweep so CI can execute each binary end to end in seconds.
inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == name) return true;
  }
  return false;
}

inline bool SmokeMode(int argc, char** argv) { return HasFlag(argc, argv, "--smoke"); }

/// Value of `--name <value>` (or nullptr if absent). Used by bench_fig8 for
/// `--trace-out <path>`.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::string(argv[i]) == name) return argv[i + 1];
  }
  return nullptr;
}

// --- Table printing ---------------------------------------------------------

inline void PrintHeader(const std::string& title, const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-24s", "");
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
}

inline void PrintRow(const std::string& label, const std::vector<double>& values) {
  std::printf("%-24s", label.c_str());
  for (double v : values) {
    if (v >= 1000) {
      std::printf("%14.0f", v);
    } else {
      std::printf("%14.1f", v);
    }
  }
  std::printf("\n");
}

/// One machine-readable quantile line per (system, test) pair:
/// `latency_quantiles <label> {json}`. Quantiles are interpolated from the
/// fixed-bucket obs::Histogram (see DESIGN.md "Observability"), so treat
/// them as bucket-resolution estimates, not exact order statistics.
inline void PrintLatencyQuantiles(const std::string& label, const obs::Histogram& h) {
  std::printf(
      "latency_quantiles %s {\"count\":%llu,\"p50_usec\":%.1f,\"p95_usec\":%.1f,"
      "\"p99_usec\":%.1f,\"max_usec\":%llu,\"mean_usec\":%.1f}\n",
      label.c_str(), static_cast<unsigned long long>(h.count), h.P50(), h.P95(), h.P99(),
      static_cast<unsigned long long>(h.max_usec),
      h.count ? static_cast<double>(h.sum_usec) / static_cast<double>(h.count) : 0.0);
}

/// Per-stage breakdown of the most recent trace whose root matches
/// `root_prefix` (e.g. "op:write"): `stage_breakdown <label> {json}`.
/// Requires the bench cell to have been built with trace=true.
inline void PrintStageBreakdown(const std::string& label, harness::Cluster& cluster,
                                std::string_view root_prefix) {
  uint64_t id = obs::FindLastTrace(cluster.tracer(), root_prefix);
  obs::TraceBreakdown bd = obs::StageBreakdown(cluster.tracer(), id);
  std::printf("stage_breakdown %s %s\n", label.c_str(), bd.DumpJson().c_str());
}

/// procs_per_client copies of each client's adapter (mdtest processes on one
/// client share the mount and its caches, §4.1).
template <typename T>
std::vector<T*> FanOut(const std::vector<std::unique_ptr<T>>& adapters, int procs_per_client) {
  std::vector<T*> out;
  for (const auto& a : adapters) {
    for (int p = 0; p < procs_per_client; p++) out.push_back(a.get());
  }
  return out;
}

template <typename Base, typename T>
std::vector<Base*> FanOutAs(const std::vector<std::unique_ptr<T>>& adapters,
                            int procs_per_client) {
  std::vector<Base*> out;
  for (const auto& a : adapters) {
    for (int p = 0; p < procs_per_client; p++) out.push_back(a.get());
  }
  return out;
}

}  // namespace cfs::bench
