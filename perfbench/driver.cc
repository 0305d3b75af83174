// Repo benchmark driver: one run of one named CFS workload per process.
//
//   cfs_perfbench --workload <meta_churn|append_read|overwrite_gray>
//                 --seed <n> [--trace 0|1] [--short]
//
// Builds a 10-node CFS cluster (meta and data colocated, §4.1; extent stores
// in accounting mode), lays down the workload's namespace and files, warms
// up, and then runs a fixed virtual-time window of closed-loop load through
// the public client::MountContext API: every simulated process waits for
// its reply before issuing the next op. Every call is timed from outside —
// virtual time for the simulated CFS, wall time for the simulator — and
// every attempt and every non-OK Status is counted. After the window the
// driver drains in-flight ops, runs Cluster::CheckInvariants() and checks
// the namespace against its own model; any violation exits non-zero.
//
// The seed drives only the generated op stream (op choice, names, offsets);
// ClusterOptions.seed stays fixed. All virtual-time numbers are therefore a
// pure function of (code, seed). With --trace 1 the span tracer records a
// sub-window of the measured phase and the per-layer ledger is added; the
// schedule (and so every virtual number and the trace hash) is unchanged.
//
// Output: one JSON object on the last line of stdout (perfbench/run.py
// turns it into the benchmark's metrics).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "harness/cluster.h"
#include "ledger.h"

namespace perfbench {
namespace {

using cfs::Buffer;
using cfs::kKiB;
using cfs::kMiB;
using cfs::kMsec;
using cfs::kSec;
using cfs::Rng;
using cfs::SimDuration;
using cfs::SimTime;
using cfs::Status;
using cfs::sim::Task;
namespace meta = cfs::meta;
namespace harness = cfs::harness;

enum Op : int { kStat, kCreate, kUnlink, kRead, kAppend, kOverwrite, kNumOps };
constexpr const char* kOpName[kNumOps] = {"stat",   "create", "unlink",
                                          "read",   "append", "overwrite"};

constexpr uint64_t kFileBytes = 64 * kMiB;    // prepared file per data proc
constexpr uint64_t kReadBytes = 4 * kKiB;     // random read size
constexpr uint64_t kBlockBytes = 128 * kKiB;  // append / overwrite size
constexpr size_t kLiveFiles = 128;            // live files per meta proc
// Stats pick among the newest files only: the oldest ones are next in line
// for unlink-oldest, and a closed-loop owner cannot unlink this many files
// while one stat is in flight, so no stat ever races its target's unlink.
constexpr size_t kStatSkipOldest = 32;
// A failed op is recorded as a latency sample of at least this much, so it
// misses every latency limit.
constexpr SimDuration kOverLimit = 10 * kSec;

/// Op mix in percent (sums to 100). `churn` is create-or-unlink: a proc
/// creates while it holds at most kLiveFiles live files and unlinks its
/// oldest file otherwise, so the live set stays at kLiveFiles.
struct Mix {
  int stat = 0;
  int churn = 0;
  int read = 0;
  int append = 0;
  int overwrite = 0;

  bool meta() const { return stat + churn > 0; }
  bool data() const { return read + append + overwrite > 0; }
};

/// `clients` client machines with `procs` closed-loop processes each. A
/// probe group runs on the shared probe client instead of its own machines.
/// Data procs own `files` prepared files; appends go round-robin over them.
struct Group {
  int clients = 1;
  int procs = 1;
  Mix mix;
  bool probe = false;
  int files = 1;
};

struct WorkloadSpec {
  std::vector<Group> groups;
  SimDuration warmup = 0;
  SimDuration measure = 0;
  // Traced sub-window, as offsets into the measured phase.
  SimDuration trace_begin = 0;
  SimDuration trace_end = 0;
  bool gray_disk = false;
};

// Every workload issues every op type: the main groups carry the workload's
// own mix, and a few light probe processes measure the op types the main
// mix does not issue, under the main mix's load. Append probes spread over
// several files so that their tail does not hinge on where one extent was
// placed.
bool MakeSpec(const std::string& name, bool short_mode, WorkloadSpec* s) {
  const Mix meta_mix{.stat = 50, .churn = 50};
  if (name == "meta_churn") {
    s->groups = {{4, 16, meta_mix},
                 {1, 1, {.read = 100}, true},
                 {1, 3, {.append = 100}, true, 4},
                 {1, 2, {.overwrite = 100}, true}};
    s->warmup = 500 * kMsec;
    s->measure = 2 * kSec;
  } else if (name == "append_read") {
    s->groups = {{4, 8, {.read = 75, .append = 25}},
                 {1, 2, meta_mix, true},
                 {1, 1, {.overwrite = 100}, true}};
    s->warmup = 1 * kSec;
    s->measure = 6 * kSec;
  } else if (name == "overwrite_gray") {
    // The measured phase must outlast gray-disk detection (~3 scorer
    // windows of 1 s).
    s->groups = {{2, 8, {.read = 25, .overwrite = 75}},
                 {1, 2, meta_mix, true},
                 {1, 4, {.append = 100}, true, 4}};
    s->warmup = 500 * kMsec;
    s->measure = 4 * kSec;
    s->gray_disk = true;
  } else {
    return false;
  }
  // The short mode keeps the gray-disk window: detection needs all of it.
  if (short_mode && !s->gray_disk) s->measure = 500 * kMsec;
  s->trace_begin = s->measure / 4;
  s->trace_end = s->trace_begin + std::min<SimDuration>(s->measure / 4, 1 * kSec);
  return true;
}

struct Proc {
  int group = 0;
  int client = 0;  // index into Run::mounts
  int index = 0;   // global proc index
  cfs::client::MountContext* mount = nullptr;
  Mix mix;
  Rng rng;
  // Metadata state: own directory, live files oldest first.
  meta::InodeId dir = 0;
  std::deque<std::pair<std::string, meta::InodeId>> live;
  uint64_t next_name = 0;
  bool model_exact = true;  // false once a mutation failed (outcome unknown)
  // Data state: own prepared files and their sizes.
  struct File {
    meta::InodeId ino = 0;
    uint64_t size = 0;
  };
  std::vector<File> files;
  size_t next_append = 0;
  std::vector<const Proc*> stat_peers;
  std::vector<meta::InodeId> read_files;
};

struct OpStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<SimDuration> lat;  // one sample per attempt
};

struct Run {
  harness::Cluster* cluster = nullptr;
  std::vector<std::unique_ptr<Proc>> procs;
  Buffer payload;
  bool measuring = false;
  bool stop = false;
  int running = 0;
  OpStats ops[kNumOps];
  // Ops that started and ended inside the traced sub-window.
  SimTime window_begin = 0, window_end = 0;
  uint64_t window_ops = 0;
  uint64_t user_write_bytes = 0;
  std::vector<std::string> violations;
};

// splitmix64: derives independent per-proc streams from the workload seed.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T MustRun(harness::Cluster& c, Task<T> task, const char* what) {
  auto r = harness::RunTask(c.sched(), std::move(task));
  if (!r) Die(std::string(what) + ": did not complete");
  return std::move(*r);
}

Op PickOp(Proc* p) {
  int r = static_cast<int>(p->rng.Uniform(100));
  const Mix& m = p->mix;
  if ((r -= m.stat) < 0) return kStat;
  if ((r -= m.churn) < 0) return p->live.size() <= kLiveFiles ? kCreate : kUnlink;
  if ((r -= m.read) < 0) return kRead;
  if ((r -= m.append) < 0) return kAppend;
  return kOverwrite;
}

// 128 KiB append at the end of the proc's next file (round-robin), then
// fsync so the meta node learns the new size.
Task<Status> Append(Run* run, Proc* p) {
  const size_t i = p->next_append++ % p->files.size();
  const meta::InodeId ino = p->files[i].ino;
  Status st = co_await p->mount->Write(ino, p->files[i].size, run->payload);
  if (st.ok()) st = co_await p->mount->Fsync(ino);
  if (!st.ok()) {
    p->model_exact = false;
    co_return st;
  }
  p->files[i].size += kBlockBytes;
  co_return Status::OK();
}

Task<Status> DoOp(Run* run, Proc* p, Op op) {
  cfs::client::MountContext* m = p->mount;
  switch (op) {
    case kStat: {
      const Proc* peer = p->stat_peers[p->rng.Uniform(p->stat_peers.size())];
      const size_t n = peer->live.size();
      if (n <= kStatSkipOldest) co_return Status::InvalidArgument("stat target set too small");
      const auto target = peer->live[kStatSkipOldest + p->rng.Uniform(n - kStatSkipOldest)];
      auto d = co_await m->Lookup(peer->dir, target.first);
      if (!d.ok()) co_return d.status();
      auto ino = co_await m->GetInode(d->inode);
      if (!ino.ok()) co_return ino.status();
      if (ino->id != target.second) {
        run->violations.push_back("stat of " + target.first + " returned the wrong inode");
      }
      co_return Status::OK();
    }
    case kCreate: {
      std::string name = "f" + std::to_string(p->next_name++);
      auto r = co_await m->Create(p->dir, name, meta::FileType::kFile);
      if (!r.ok()) {
        p->model_exact = false;
        co_return r.status();
      }
      p->live.emplace_back(std::move(name), r->id);
      co_return Status::OK();
    }
    case kUnlink: {
      const std::string name = p->live.front().first;
      p->live.pop_front();
      Status st = co_await m->Unlink(p->dir, name);
      if (!st.ok()) p->model_exact = false;
      co_return st;
    }
    case kRead: {
      const meta::InodeId f = p->read_files[p->rng.Uniform(p->read_files.size())];
      const uint64_t off = p->rng.Uniform(kFileBytes / kReadBytes) * kReadBytes;
      auto r = co_await m->Read(f, off, kReadBytes);
      if (!r.ok()) co_return r.status();
      if (r->size() != kReadBytes) {
        run->violations.push_back("read of inode " + std::to_string(f) + " returned " +
                                  std::to_string(r->size()) + " bytes");
      }
      co_return Status::OK();
    }
    case kAppend:
      co_return co_await Append(run, p);
    case kOverwrite: {
      const meta::InodeId f = p->files[p->rng.Uniform(p->files.size())].ino;
      const uint64_t off = p->rng.Uniform(kFileBytes / kBlockBytes) * kBlockBytes;
      co_return co_await m->Write(f, off, run->payload);
    }
    case kNumOps:
      break;
  }
  co_return Status::InvalidArgument("bad op");
}

Task<void> ProcLoop(Run* run, Proc* p) {
  cfs::sim::Scheduler& sched = run->cluster->sched();
  while (!run->stop) {
    const Op op = PickOp(p);
    const bool measured = run->measuring;
    const SimTime t0 = sched.Now();
    Status st = co_await DoOp(run, p, op);
    const SimTime t1 = sched.Now();
    if (!measured) continue;
    OpStats& s = run->ops[op];
    s.attempted++;
    if (st.ok()) {
      s.lat.push_back(t1 - t0);
      if (op == kAppend || op == kOverwrite) run->user_write_bytes += kBlockBytes;
    } else {
      s.failed++;
      s.lat.push_back(std::max(t1 - t0, kOverLimit));
    }
    if (t0 >= run->window_begin && t1 <= run->window_end) run->window_ops++;
  }
  run->running--;
}

// Unmeasured laydown of a meta proc: its directory with kLiveFiles files.
Task<Status> SetupMetaProc(Proc* p) {
  const std::string tag = "g" + std::to_string(p->group) + "p" + std::to_string(p->index);
  auto dir = co_await p->mount->Create(meta::kRootInode, tag, meta::FileType::kDir);
  if (!dir.ok()) co_return dir.status();
  p->dir = dir->id;
  while (p->live.size() < kLiveFiles) {
    std::string name = "f" + std::to_string(p->next_name++);
    auto f = co_await p->mount->Create(p->dir, name, meta::FileType::kFile);
    if (!f.ok()) co_return f.status();
    p->live.emplace_back(std::move(name), f->id);
  }
  co_return Status::OK();
}

Task<Status> CreateDataFiles(Proc* p, int n) {
  for (int k = 0; k < n; k++) {
    const std::string name = "data-g" + std::to_string(p->group) + "p" +
                             std::to_string(p->index) + "-" + std::to_string(k);
    auto f = co_await p->mount->Create(meta::kRootInode, name, meta::FileType::kFile);
    if (!f.ok()) co_return f.status();
    p->files.push_back({f->id, kFileBytes});
    // Record the prepared size on the meta node; the extent itself is laid
    // down on the replicas directly and injected into the mounts.
    CFS_CO_RETURN_IF_ERROR(co_await p->mount->Truncate(f->id, kFileBytes));
  }
  co_return Status::OK();
}

Task<Status> LayDownProc(Proc* p, int files) {
  if (p->mix.meta()) CFS_CO_RETURN_IF_ERROR(co_await SetupMetaProc(p));
  if (p->mix.data()) CFS_CO_RETURN_IF_ERROR(co_await CreateDataFiles(p, files));
  co_return Status::OK();
}

Task<Status> PrimeAppends(Run* run, Proc* p) {
  if (p->mix.append == 0) co_return Status::OK();
  for (size_t k = 0; k < p->files.size(); k++) CFS_CO_RETURN_IF_ERROR(co_await Append(run, p));
  co_return Status::OK();
}

// Run `make(proc)` for every proc concurrently; any failure ends the run.
template <typename Make>
void SetupAll(harness::Cluster& c, Run& run, Make make) {
  bool ok = true;
  cfs::sim::Join join(&c.sched(), static_cast<int>(run.procs.size()));
  for (auto& p : run.procs) {
    cfs::sim::Spawn([](Task<Status> t, bool* ok, std::function<void()> done) -> Task<void> {
      const Status st = co_await std::move(t);
      if (!st.ok()) *ok = false;
      done();
    }(make(p.get()), &ok, join.Arrive()));
  }
  if (!harness::RunTaskVoid(c.sched(), join.Wait()) || !ok) Die("laydown failed");
}

// Materialize a prepared file's single extent directly on every replica of
// one data partition (the laydown fio runs exclude from measurement).
meta::ExtentKey LayDownExtent(harness::Cluster& c, meta::PartitionId pid, meta::InodeId ino) {
  const cfs::storage::ExtentId eid = 1'000'000 + ino * 1024;
  for (cfs::sim::NodeId node : c.DataPartitionReplicas(pid)) {
    for (int i = 0; i < c.num_nodes(); i++) {
      if (c.node_host(i)->id() != node) continue;
      cfs::data::DataPartition* dp = c.data_node(i)->GetPartition(pid);
      if (!dp) Die("replica missing for partition " + std::to_string(pid));
      if (!dp->store().ImportExtent(eid, kFileBytes, false).ok()) Die("extent import failed");
      dp->set_committed(eid, kFileBytes);
    }
  }
  meta::ExtentKey key;
  key.file_offset = 0;
  key.partition_id = pid;
  key.extent_id = eid;
  key.extent_offset = 0;
  key.size = kFileBytes;
  return key;
}

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Quantile of integer-µs samples (sorted, non-empty). The nearest-rank
// order statistic v is resolved within its 1 µs clock tick by the
// grouped-data rule v - 1/2 + (q*n - below) / at, where `below` samples lie
// under v and `at` samples equal it; rounding gives back v. Ties are common
// in a simulator with a 1 µs clock, and the interpolation keeps a quantile
// from sticking to one tick across seeds.
double Quantile(const std::vector<SimDuration>& sorted, double q) {
  const double target = q * static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(target));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  const SimDuration v = sorted[rank - 1];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  const double below = static_cast<double>(lo - sorted.begin());
  const double at = static_cast<double>(hi - lo);
  return static_cast<double>(v) - 0.5 + std::clamp((target - below) / at, 0.0, 1.0);
}

class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(k, buf);
  }
  Json& Str(const std::string& k, const std::string& v) { return Raw(k, "\"" + v + "\""); }
  Json& Raw(const std::string& k, const std::string& v) {
    out_ += (out_.empty() ? "{" : ",") + ("\"" + k + "\":" + v);
    return *this;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  bool short_mode = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace" && has_val) {
      traced = std::string(argv[++i]) == "1";
    } else if (a == "--short") {
      short_mode = true;
    } else {
      Die("unknown argument " + a);
    }
  }
  WorkloadSpec spec;
  if (!MakeSpec(workload, short_mode, &spec)) Die("unknown workload '" + workload + "'");

  const auto wall0 = std::chrono::steady_clock::now();
  harness::ClusterOptions opts;
  opts.num_nodes = 10;
  opts.seed = 1;  // fixed: the workload seed only shapes the op stream
  opts.track_contents = false;
  opts.health = spec.gray_disk;
  opts.network.bandwidth_mib = 1170;
  opts.raft.max_batch_entries = 16;
  // Snapshot and truncate raft logs every 64 applied entries: retained
  // 128 KiB overwrite entries would otherwise hold gigabytes per run.
  opts.raft.compaction_threshold = 64;
  harness::Cluster cluster(opts);
  cfs::sim::Scheduler& sched = cluster.sched();

  Status st = MustRun(cluster, cluster.Start(), "cluster start");
  if (!st.ok()) Die("cluster start: " + st.ToString());
  st = MustRun(cluster, cluster.CreateVolume("perf", 30, 40), "volume create");
  if (!st.ok()) Die("volume create: " + st.ToString());

  Run run;
  run.cluster = &cluster;
  run.payload = Buffer::Filled(kBlockBytes, 'w');

  // Mount the client machines: each main group gets its own, every probe
  // group shares the one probe client.
  std::vector<cfs::client::MountContext*> mounts;
  auto mount = [&]() {
    auto c = MustRun(cluster, cluster.MountClient("perf"), "mount");
    if (!c.ok()) Die("mount: " + c.status().ToString());
    mounts.push_back((*c)->default_mount());
    return static_cast<int>(mounts.size() - 1);
  };
  int probe_client = -1;
  for (size_t g = 0; g < spec.groups.size(); g++) {
    const Group& grp = spec.groups[g];
    for (int c = 0; c < grp.clients; c++) {
      int ci = 0;
      if (grp.probe) {
        if (probe_client < 0) probe_client = mount();
        ci = probe_client;
      } else {
        ci = mount();
      }
      for (int k = 0; k < grp.procs; k++) {
        auto p = std::make_unique<Proc>();
        p->group = static_cast<int>(g);
        p->client = ci;
        p->index = static_cast<int>(run.procs.size());
        p->mount = mounts[ci];
        p->mix = grp.mix;
        p->rng.Seed(Mix64(seed * 1'000'003 + static_cast<uint64_t>(p->index)));
        run.procs.push_back(std::move(p));
      }
    }
  }

  // Laydown: directories and live files for meta procs, prepared files for
  // data procs; every proc sets up concurrently.
  SetupAll(cluster, run, [&](Proc* p) {
    return LayDownProc(p, spec.groups[p->group].files);
  });
  std::vector<meta::PartitionId> pids;
  for (const auto& [pid, rec] : cluster.master_leader()->state().data_partitions()) {
    pids.push_back(pid);
  }
  if (pids.empty()) Die("no data partitions");
  std::map<meta::InodeId, meta::ExtentKey> prepared;
  for (auto& p : run.procs) {
    for (const Proc::File& f : p->files) {
      prepared[f.ino] = LayDownExtent(cluster, pids[prepared.size() % pids.size()], f.ino);
    }
  }
  // Peers: stats target the procs on the group's other client machines (the
  // whole group when it has one machine); reads target any file of the
  // group. Every mount learns the prepared files its procs may read.
  for (auto& p : run.procs) {
    const bool one_client = spec.groups[p->group].clients == 1;
    for (auto& q : run.procs) {
      if (q->group != p->group) continue;
      if (q->mix.meta() && (one_client || q->client != p->client)) {
        p->stat_peers.push_back(q.get());
      }
      for (const Proc::File& f : q->files) p->read_files.push_back(f.ino);
    }
  }
  {
    std::set<std::pair<int, meta::InodeId>> injected;
    for (auto& p : run.procs) {
      for (meta::InodeId f : p->read_files) {
        if (injected.insert({p->client, f}).second) {
          mounts[p->client]->InjectPreparedFile(f, {prepared.at(f)}, kFileBytes);
        }
      }
    }
  }
  // One append per file places every append stream on its extent before
  // any seed-driven op runs, so placement does not vary with the seed.
  SetupAll(cluster, run, [&](Proc* p) { return PrimeAppends(&run, p); });

  // Warm-up under the full mix, then the measured window.
  run.running = static_cast<int>(run.procs.size());
  for (auto& p : run.procs) cfs::sim::Spawn(ProcLoop(&run, p.get()));
  sched.RunFor(spec.warmup);
  const double setup_s = WallSince(wall0);

  const cfs::obs::Registry before = cluster.Metrics();
  const uint64_t events0 = cfs::sim::Scheduler::process_executed_events();
  const AllocCounts allocs0 = CurrentAllocs();
  const auto wall_m = std::chrono::steady_clock::now();
  const SimTime t_m = sched.Now();
  run.measuring = true;
  run.window_begin = t_m + spec.trace_begin;
  run.window_end = t_m + spec.trace_end;

  std::string gray_target;
  if (spec.gray_disk) {
    // Busiest disk of node 0 (reads + writes; lowest index wins ties), the
    // rule bench_health_gray_disk uses, so the slowed device is serving.
    cfs::sim::Host* h = cluster.node_host(0);
    int gray = 0;
    uint64_t best = 0;
    for (int d = 0; d < h->num_disks(); d++) {
      const uint64_t n = h->disk(d)->reads() + h->disk(d)->writes();
      if (n > best) {
        best = n;
        gray = d;
      }
    }
    h->disk(gray)->set_slow_factor(8);
    gray_target = "n0.disk" + std::to_string(gray);
  }

  sched.RunUntil(run.window_begin);
  const auto wall_tb = std::chrono::steady_clock::now();
  if (traced) cluster.tracer().set_enabled(true);
  sched.RunUntil(run.window_end);
  if (traced) cluster.tracer().set_enabled(false);
  const double window_wall_s = WallSince(wall_tb);
  sched.RunUntil(t_m + spec.measure);
  run.stop = true;
  while (run.running > 0 && sched.RunOne()) {
  }
  const SimTime t_end = sched.Now();
  const double measured_wall_s = WallSince(wall_m);
  const uint64_t events = cfs::sim::Scheduler::process_executed_events() - events0;
  const AllocCounts allocs1 = CurrentAllocs();
  const uint64_t trace_hash = sched.trace_hash();
  if (run.running > 0) Die("procs did not drain");
  const cfs::obs::Registry after = cluster.Metrics();

  // ---- Correctness gate ----
  sched.RunFor(2 * kSec);  // let async unlinks and follower applies settle
  cfs::InvariantReport inv = cluster.CheckInvariants();
  for (const std::string& v : inv.violations()) run.violations.push_back("invariant: " + v);
  {
    // A fresh mount has empty caches, so it reads the meta nodes' state.
    auto checker = MustRun(cluster, cluster.MountClient("perf"), "checker mount");
    if (!checker.ok()) Die("checker mount: " + checker.status().ToString());
    cfs::client::MountContext* cm = (*checker)->default_mount();
    for (auto& p : run.procs) {
      if (!p->model_exact) continue;
      if (p->mix.meta()) {
        auto ls = MustRun(cluster, cm->ReadDir(p->dir), "readdir");
        std::set<std::string> want, got;
        for (const auto& f : p->live) want.insert(f.first);
        if (ls.ok()) {
          for (const auto& d : *ls) got.insert(d.name);
        }
        if (!ls.ok() || got != want) {
          run.violations.push_back("directory of proc " + std::to_string(p->index) + " holds " +
                                   std::to_string(got.size()) + " entries, model has " +
                                   std::to_string(want.size()));
        }
      }
      for (const Proc::File& f : p->files) {
        auto ino = MustRun(cluster, cm->GetInode(f.ino), "getinode");
        if (!ino.ok() || ino->size != f.size) {
          run.violations.push_back("inode " + std::to_string(f.ino) + " of proc " +
                                   std::to_string(p->index) + " has the wrong size");
        }
      }
    }
  }
  if (!run.violations.empty()) {
    for (const std::string& v : run.violations) std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
    return 1;
  }

  // ---- Report ----
  uint64_t attempted = 0, failed = 0;
  for (const OpStats& s : run.ops) {
    attempted += s.attempted;
    failed += s.failed;
  }
  const double vsec = static_cast<double>(t_end - t_m) / kSec;
  Json virt;
  virt.Num("vops_per_s", Ratio(static_cast<double>(attempted - failed), vsec));
  virt.Num("failed_op_ratio", Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  Json samples;
  for (int op = 0; op < kNumOps; op++) {
    std::vector<SimDuration>& lat = run.ops[op].lat;
    std::sort(lat.begin(), lat.end());
    samples.Num(kOpName[op], static_cast<double>(lat.size()));
    if (lat.empty()) continue;
    virt.Num(std::string(kOpName[op]) + "_p50_us", Quantile(lat, 0.50));
    virt.Num(std::string(kOpName[op]) + "_p99_us", Quantile(lat, 0.99));
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  Json wall;
  wall.Num("setup_s", setup_s);
  wall.Num("measured_s", measured_wall_s);
  wall.Num("window_s", window_wall_s);
  wall.Num("ops_per_wall_s", Ratio(static_cast<double>(attempted - failed), measured_wall_s));
  wall.Num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  wall.Num("events_per_wall_s", Ratio(static_cast<double>(events), measured_wall_s));

  // Counter deltas over the measured phase.
  auto delta = [&](const std::string& k) {
    return static_cast<double>(after.counter(k)) - static_cast<double>(before.counter(k));
  };
  auto sum_rpc = [](const cfs::obs::Registry& r, std::initializer_list<const char*> suffixes) {
    double n = 0;
    for (const auto& [k, v] : r.counters()) {
      if (k.rfind("rpc.", 0) != 0) continue;
      for (const char* s : suffixes) {
        const size_t len = std::strlen(s);
        if (k.size() > len && k.compare(k.size() - len, len, s) == 0) n += static_cast<double>(v);
      }
    }
    return n;
  };
  const double ops = static_cast<double>(attempted);
  const double user_bytes = static_cast<double>(run.user_write_bytes);
  const double hits = delta("client.cache_hits");
  const double misses = delta("client.cache_misses");
  Json layer;
  layer.Num("sim.events_per_op", Ratio(static_cast<double>(events), ops));
  layer.Num("sim.allocs_per_op", Ratio(static_cast<double>(allocs1.allocs - allocs0.allocs), ops));
  layer.Num("sim.alloc_bytes_per_op",
            Ratio(static_cast<double>(allocs1.bytes - allocs0.bytes), ops));
  layer.Num("sim.net_msgs_per_op", Ratio(delta("net.messages_sent"), ops));
  layer.Num("sim.net_bytes_per_op", Ratio(delta("net.bytes_sent"), ops));
  layer.Num("sim.disk_write_bytes_per_user_byte", Ratio(delta("disk.write_bytes"), user_bytes));
  layer.Num("rpc.legs_per_op",
            Ratio(sum_rpc(after, {".ok", ".timeout", ".not_leader"}) -
                      sum_rpc(before, {".ok", ".timeout", ".not_leader"}),
                  ops));
  layer.Num("rpc.retries_per_op",
            Ratio(sum_rpc(after, {".retries"}) - sum_rpc(before, {".retries"}), ops));
  layer.Num("rpc.timeouts_fired", delta("net.rpc_timeout.fired"));
  layer.Num("client.cache_hit_ratio", Ratio(hits, hits + misses));
  layer.Num("client.meta_rpcs_per_op", Ratio(delta("client.meta_rpcs"), ops));
  layer.Num("client.data_rpcs_per_op", Ratio(delta("client.data_rpcs"), ops));
  layer.Num("client.master_rpcs_per_op", Ratio(delta("client.master_rpcs"), ops));
  layer.Num("client.window_stalls_per_append",
            Ratio(delta("client.window_stalls"), static_cast<double>(run.ops[kAppend].attempted)));
  layer.Num("client.resends", delta("client.resends"));
  layer.Num("raft.proposals_per_batch",
            Ratio(delta("raft.gc.proposals"), delta("raft.gc.batches")));
  layer.Num("raft.log_writes_per_op", Ratio(delta("raft.log.append_writes"), ops));
  layer.Num("raft.log_bytes_per_user_byte", Ratio(delta("raft.log.persisted_bytes"), user_bytes));
  double detect_us = 0;
  if (spec.gray_disk) {
    const cfs::obs::HealthEvent* ev = cluster.health_scorer()->FirstSuspectEvent(gray_target, t_m);
    if (!ev) {
      std::fprintf(stderr, "VIOLATION gray disk %s was never flagged suspect\n",
                   gray_target.c_str());
      return 1;
    }
    detect_us = static_cast<double>(ev->time - t_m);
  }
  layer.Num("obs.health_detect_us", detect_us);

  Json stages;
  if (traced) {
    const Ledger ledger = BuildLedger(cluster.tracer(), run.window_begin, run.window_end);
    for (const auto& [k, v] : ledger.totals_us) {
      stages.Num(k, Ratio(v, static_cast<double>(run.window_ops)));
    }
    stages.Num("window_roots", static_cast<double>(ledger.roots));
    stages.Num("spans", static_cast<double>(cluster.tracer().num_spans()));
  }

  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, trace_hash);
  Json out;
  out.Str("workload", workload)
      .Num("seed", static_cast<double>(seed))
      .Raw("traced", traced ? "true" : "false")
      .Num("attempted", ops)
      .Num("failed", static_cast<double>(failed))
      .Num("window_ops", static_cast<double>(run.window_ops))
      .Str("trace_hash", hash)
      .Raw("virtual", virt.Done())
      .Raw("samples", samples.Done())
      .Raw("wall", wall.Done())
      .Raw("layer", layer.Done())
      .Raw("stages", stages.Done());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
