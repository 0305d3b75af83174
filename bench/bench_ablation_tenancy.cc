// Ablation: multi-tenant QoS.
//
// Many volumes on one paper-shaped cluster (10 machines, meta+data
// colocated): one noisy neighbor streaming large appends from several client
// machines, one latency-sensitive tenant serving paced small reads over a
// pre-created working set, and a pool of background volumes taking
// Zipfian-distributed create+write traffic through one multi-mount client. Two phases on identically-seeded fresh clusters:
//
//   qos=0  everything at defaults — no token buckets, admission disabled
//          (the pre-QoS behavior, byte-identical schedules to the seed).
//   qos=1  per-volume VolumeQos records (weights + background iops caps) and
//          weighted-fair admission slots at every meta/data node.
//
// Reported per phase: the latency-sensitive tenant's p50/p99, the noisy
// tenant's MiB/s, aggregate ops and bytes, client-side throttle counters and
// node-side admission queue depths. The summary line gives the p99 isolation
// factor (off/on) and the aggregate-throughput delta — the acceptance
// criteria of ISSUE 8 (p99 isolation >= 3x at <= 10% aggregate delta).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"

using namespace cfs;
using namespace cfs::bench;

namespace {

struct TenancyParams {
  int bg_volumes = 30;
  int noisy_clients = 3;   // separate hosts, so demand is not client-NIC bound
  int noisy_workers = 32;  // per noisy client
  int lat_workers = 2;
  int bg_workers = 4;
  uint64_t noisy_chunk = 512 * kKiB;  // per-op append (four pipeline packets)
  uint64_t lat_bytes = 64 * kKiB;     // small-file path
  uint64_t bg_bytes = 16 * kKiB;
  SimDuration lat_pace = 10 * kMsec;
  SimDuration bg_pace = 25 * kMsec;
  SimDuration warmup = 1 * kSec;
  SimDuration window = 4 * kSec;
  double zipf_s = 1.2;
};

struct PhaseStats {
  bool stop = false;
  SimTime measure_start = 0;
  obs::Histogram lat_hist;
  uint64_t lat_ops = 0;
  uint64_t agg_ops = 0;     // every tenant, measured window only
  uint64_t agg_bytes = 0;   // payload bytes written, measured window only
  uint64_t noisy_bytes = 0;
};

/// Cumulative Zipf(s) distribution over `n` ranks.
std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (int r = 0; r < n; r++) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = sum;
  }
  for (double& v : cdf) v /= sum;
  return cdf;
}

size_t ZipfPick(Rng* rng, const std::vector<double>& cdf) {
  const double u = static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
  for (size_t i = 0; i < cdf.size(); i++) {
    if (u <= cdf[i]) return i;
  }
  return cdf.size() - 1;
}

sim::Task<void> NoisyWorker(sim::Scheduler* sched, client::MountContext* m, int id,
                            const TenancyParams* p, PhaseStats* st,
                            std::function<void()> done) {
  auto created = co_await m->Create(meta::kRootInode, "noisy-" + std::to_string(id),
                                    meta::FileType::kFile);
  if (created.ok()) {
    const Buffer chunk = Buffer::Filled(p->noisy_chunk, 'n');
    uint64_t off = 0;
    int since_fsync = 0;
    while (!st->stop) {
      Status ws = co_await m->Write(created->id, off, chunk);
      if (!ws.ok()) {
        co_await sim::SleepFor{*sched, 10 * kMsec};
        continue;
      }
      off += chunk.size();
      if (++since_fsync >= 8) {  // periodic metadata sync => meta-path load
        since_fsync = 0;
        (void)co_await m->Fsync(created->id);
      }
      if (sched->Now() >= st->measure_start && !st->stop) {
        st->noisy_bytes += chunk.size();
        st->agg_bytes += chunk.size();
        st->agg_ops++;
      }
    }
  }
  done();
}

/// Latency-sensitive tenant: a read-serving workload — paced small reads
/// over a pre-created working set, the classic victim of a bulk-writing
/// noisy neighbor (every read eats one shared-disk queue wait). The working
/// set is created during warmup and is unmeasured.
sim::Task<void> LatencyWorker(sim::Scheduler* sched, client::MountContext* m, int id,
                              const TenancyParams* p, PhaseStats* st,
                              std::function<void()> done) {
  const Buffer payload = Buffer::Filled(p->lat_bytes, 'l');
  std::vector<uint64_t> files;
  for (int k = 0; k < 8 && !st->stop; k++) {
    auto f = co_await m->Create(meta::kRootInode,
                                "lat-" + std::to_string(id) + "-" + std::to_string(k),
                                meta::FileType::kFile);
    if (!f.ok()) continue;
    // Plain if, not a ?:-expression: gcc 12 mis-handles the lifetime of
    // temporaries when co_await appears inside a conditional operator.
    Status ws = co_await m->Write(f->id, 0, payload);
    if (ws.ok()) files.push_back(f->id);
  }
  size_t n = 0;
  while (!st->stop && !files.empty()) {
    const SimTime t0 = sched->Now();
    auto r = co_await m->Read(files[n++ % files.size()], 0, p->lat_bytes);
    const SimTime t1 = sched->Now();
    if (t0 >= st->measure_start && !st->stop) {
      st->lat_hist.Add(t1 - t0);
      st->lat_ops++;
      st->agg_ops++;
      if (r.ok()) st->agg_bytes += r->size();
    }
    co_await sim::SleepFor{*sched, p->lat_pace};
  }
  done();
}

sim::Task<void> BackgroundWorker(sim::Scheduler* sched,
                                 std::vector<client::MountContext*> mounts,
                                 std::vector<double> cdf, uint64_t seed, int id,
                                 const TenancyParams* p, PhaseStats* st,
                                 std::function<void()> done) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(id));
  const Buffer payload = Buffer::Filled(p->bg_bytes, 'b');
  int n = 0;
  while (!st->stop) {
    client::MountContext* m = mounts[ZipfPick(&rng, cdf)];
    auto f = co_await m->Create(meta::kRootInode,
                                "bg-" + std::to_string(id) + "-" + std::to_string(n++),
                                meta::FileType::kFile);
    Status ws = f.status();
    if (f.ok()) ws = co_await m->Write(f->id, 0, payload);
    if (sched->Now() >= st->measure_start && !st->stop) {
      st->agg_ops++;
      if (ws.ok()) st->agg_bytes += payload.size();
    }
    co_await sim::SleepFor{*sched, p->bg_pace};
  }
  done();
}

struct PhaseResult {
  obs::Histogram lat_hist;
  uint64_t lat_ops = 0;
  double noisy_mib = 0;
  double agg_mib = 0;
  uint64_t agg_ops = 0;
};

/// `noisy_cap_mib`: per-mount client-side byte cap applied to each noisy
/// mount in the QoS-on phase (0 = uncapped). The caller derives it from the
/// off phase's measured throughput, the classic "cap the bully just under
/// its unconstrained share" isolation policy.
PhaseResult RunPhase(bool qos_on, uint64_t noisy_cap_mib, uint64_t seed,
                     const TenancyParams& P) {
  harness::ClusterOptions opts;
  opts.num_nodes = 10;
  opts.seed = seed;
  opts.track_contents = false;
  // One modest disk per storage node: the shared resource the noisy tenant
  // saturates (fig benches model the paper testbed; this ablation wants a
  // contended box instead).
  opts.host.num_disks = 1;
  opts.host.disk.bandwidth_mib = 150;
  opts.host.disk.queue_depth = 2;
  opts.host.disk.capacity_bytes = 960ull * kGiB;
  opts.network.bandwidth_mib = 1170;
  opts.raft.max_batch_entries = 16;
  if (qos_on) {
    opts.meta.admission_slots = 8;
    opts.data.admission_slots = 8;
  }
  harness::Cluster cluster(opts);
  sim::Scheduler& sched = cluster.sched();
  auto st = harness::RunTask(sched, cluster.Start());
  if (!st || !st->ok()) {
    std::fprintf(stderr, "tenancy: cluster start failed\n");
    std::abort();
  }

  // Volumes. In the off phase every VolumeQos stays default — the encoding,
  // the buckets and the admission queues are all byte-identical to pre-QoS.
  master::VolumeQos noisy_q, lat_q, bg_q;
  if (qos_on) {
    noisy_q.weight = 1;
    noisy_q.bytes_per_sec = noisy_cap_mib * kMiB;  // per mount (per client)
    lat_q.weight = 32;
    bg_q.weight = 4;
    bg_q.iops_limit = 200;  // client-side pacing of the background pool
  }
  auto create = [&](const std::string& name, uint32_t mp, uint32_t dp,
                    master::VolumeQos q) {
    auto r = harness::RunTask(sched, cluster.CreateVolume(name, mp, dp, q));
    if (!r || !r->ok()) {
      std::fprintf(stderr, "tenancy: create %s failed\n", name.c_str());
      std::abort();
    }
  };
  create("noisy", 2, 8, noisy_q);
  create("lat", 2, 4, lat_q);
  // The background pool boots concurrently: serial creation would pay one
  // election wait per volume while every prior volume's raft groups keep
  // ticking — quadratic in volumes, and the full mode boots 2,048 of them.
  std::vector<std::string> bg_names;
  for (int i = 0; i < P.bg_volumes; i++) bg_names.push_back("bg" + std::to_string(i));
  sim::Join cjoin(&sched, P.bg_volumes);
  for (int i = 0; i < P.bg_volumes; i++) {
    sim::Spawn([](harness::Cluster* cl, std::string name, master::VolumeQos q,
                  std::function<void()> done) -> sim::Task<void> {
      Status st = co_await cl->CreateVolume(name, 1, 2, q);
      if (!st.ok()) {
        std::fprintf(stderr, "tenancy: create %s failed\n", name.c_str());
        std::abort();
      }
      done();
    }(&cluster, bg_names[i], bg_q, cjoin.Arrive()));
  }
  (void)harness::RunTaskVoid(sched, cjoin.Wait());

  // One client host per tenant class; the background pool shares one
  // multi-mount client (the multi-volume seam this PR adds).
  auto mount_one = [&](std::vector<std::string> vols) -> client::Client* {
    auto c = harness::RunTask(sched, cluster.MountClient(std::move(vols)));
    if (!c || !c->ok()) {
      std::fprintf(stderr, "tenancy: mount failed\n");
      std::abort();
    }
    return **c;
  };
  std::vector<client::Client*> noisy_cs;
  for (int i = 0; i < P.noisy_clients; i++) noisy_cs.push_back(mount_one({"noisy"}));
  client::Client* lat_c = mount_one({"lat"});
  client::Client* bg_c = mount_one(bg_names);
  std::vector<client::MountContext*> bg_mounts;
  for (const std::string& n : bg_names) bg_mounts.push_back(bg_c->mount(n));

  PhaseStats stats;
  stats.measure_start = sched.Now() + P.warmup;
  const int workers = P.noisy_clients * P.noisy_workers + P.lat_workers + P.bg_workers;
  sim::Join join(&sched, workers);
  for (int c = 0; c < P.noisy_clients; c++) {
    for (int i = 0; i < P.noisy_workers; i++) {
      sim::Spawn(NoisyWorker(&sched, noisy_cs[c]->default_mount(), c * 100 + i, &P,
                             &stats, join.Arrive()));
    }
  }
  for (int i = 0; i < P.lat_workers; i++) {
    sim::Spawn(LatencyWorker(&sched, lat_c->default_mount(), i, &P, &stats, join.Arrive()));
  }
  const std::vector<double> cdf = ZipfCdf(P.bg_volumes, P.zipf_s);
  for (int i = 0; i < P.bg_workers; i++) {
    sim::Spawn(BackgroundWorker(&sched, bg_mounts, cdf, seed, i, &P, &stats, join.Arrive()));
  }

  sched.RunFor(P.warmup + P.window);
  stats.stop = true;
  (void)harness::RunTaskVoid(sched, join.Wait());

  const double secs = static_cast<double>(P.window) / kSec;
  PhaseResult r;
  r.lat_hist = stats.lat_hist;
  r.lat_ops = stats.lat_ops;
  r.noisy_mib = static_cast<double>(stats.noisy_bytes) / kMiB / secs;
  r.agg_mib = static_cast<double>(stats.agg_bytes) / kMiB / secs;
  r.agg_ops = stats.agg_ops;

  // Per-tenant observability: client-side throttle counters (token buckets)
  // and node-side weighted-fair admission queue totals.
  const obs::Registry m = cluster.Metrics();
  const uint64_t throttle_waits = m.SumCounters("tenant.", ".throttle_waits");
  const uint64_t throttle_usec = m.SumCounters("tenant.", ".throttle_wait_usec");
  const uint64_t meta_queued = m.SumCounters("qos.meta.tenant.", ".queued");
  const uint64_t data_queued = m.SumCounters("qos.data.tenant.", ".queued");
  std::printf(
      "{\"bench\":\"tenancy\",\"qos\":%d,\"bg_volumes\":%d,\"lat_ops\":%llu,"
      "\"lat_p50_usec\":%.1f,\"lat_p99_usec\":%.1f,\"noisy_mib_per_s\":%.1f,"
      "\"agg_mib_per_s\":%.1f,\"agg_ops\":%llu,\"throttle_waits\":%llu,"
      "\"throttle_wait_usec\":%llu,\"meta_queued\":%llu,\"data_queued\":%llu}\n",
      qos_on ? 1 : 0, P.bg_volumes, static_cast<unsigned long long>(r.lat_ops),
      r.lat_hist.P50(), r.lat_hist.P99(), r.noisy_mib, r.agg_mib,
      static_cast<unsigned long long>(r.agg_ops),
      static_cast<unsigned long long>(throttle_waits),
      static_cast<unsigned long long>(throttle_usec),
      static_cast<unsigned long long>(meta_queued),
      static_cast<unsigned long long>(data_queued));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  WallclockReporter wallclock("bench_ablation_tenancy");
  const bool smoke = SmokeMode(argc, argv);
  TenancyParams P;
  if (!smoke) {
    P.bg_volumes = 2048;  // thousands of volumes, the multi-tenant QoS scale
    P.window = 20 * kSec;
    P.bg_workers = 16;
  }
  std::printf("Ablation: multi-tenant QoS (noisy neighbor vs latency-sensitive, "
              "%d volumes)%s\n",
              P.bg_volumes + 2, smoke ? " [smoke]" : "");

  PhaseResult off = RunPhase(false, 0, /*seed=*/91, P);
  // Cap each noisy mount just under its unconstrained per-client share; the
  // admission weights handle whatever burstiness the cap lets through.
  const uint64_t cap_mib = static_cast<uint64_t>(
      off.noisy_mib * 0.93 / static_cast<double>(P.noisy_clients));
  PhaseResult on = RunPhase(true, cap_mib, /*seed=*/91, P);

  PrintLatencyQuantiles("tenancy:lat:qos_off", off.lat_hist);
  PrintLatencyQuantiles("tenancy:lat:qos_on", on.lat_hist);

  const double isolation = on.lat_hist.P99() > 0 ? off.lat_hist.P99() / on.lat_hist.P99() : 0;
  const double agg_delta =
      off.agg_mib > 0 ? (on.agg_mib - off.agg_mib) / off.agg_mib * 100.0 : 0;
  std::printf(
      "{\"bench\":\"tenancy\",\"summary\":1,\"p99_off_usec\":%.1f,\"p99_on_usec\":%.1f,"
      "\"p99_isolation_x\":%.2f,\"agg_off_mib\":%.1f,\"agg_on_mib\":%.1f,"
      "\"agg_delta_pct\":%.2f}\n",
      off.lat_hist.P99(), on.lat_hist.P99(), isolation, off.agg_mib, on.agg_mib,
      agg_delta);

  PrintHeader("latency-sensitive tenant p99 (usec)", {"qos off", "qos on", "isolation x"});
  PrintRow("p99", {off.lat_hist.P99(), on.lat_hist.P99(), isolation});
  PrintHeader("aggregate MiB/s", {"qos off", "qos on", "delta %"});
  PrintRow("all tenants", {off.agg_mib, on.agg_mib, agg_delta});

  wallclock.Print();
  return 0;
}
