// Wall-clock micro-benchmarks (google-benchmark) for the hot data
// structures: the meta-partition B-tree, the extent store, CRC32C, the
// codec, and the KV store. These complement the simulated-time benches —
// they measure the real CPU cost of the in-memory structures the paper puts
// on the metadata hot path.
//
// `bench_micro --rpc-churn` bypasses google-benchmark and runs the
// allocation-gated benches instead, under an instrumented global allocator:
// a steady-state unary echo loop, then steady-state proposals through a
// 3-replica raft group. It prints one machine-readable
// `bench_wallclock bench_micro {...}` line whose `allocs_per_rpc` (~zero)
// and `allocs_per_proposal` fields CI caps (tools/check_bench_wallclock.py;
// DESIGN.md "RPC transport" and "Simulator performance").
//
// `bench_micro --btree-footprint` measures, under the same allocator, the
// live heap bytes per entry of the meta partitions' B-trees, each holding
// one memoized snapshot of itself as a partition does: a 100k-entry inode
// tree built by monotone inserts, the same tree after FIFO churn (insert
// right, erase left), and a 100k-entry dentry tree. It prints a
// `bench_wallclock bench_micro {...}` line whose `btree_bytes_per_entry`
// (the worst of the three) CI caps (DESIGN.md "Meta B-tree node layout").
// Both flags may be given to one run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <malloc.h>
#include <map>
#include <new>
#include <string_view>

#include "common/buffer.h"
#include "common/codec.h"
#include "common/crc32.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "kv/kvstore.h"
#include "meta/btree.h"
#include "meta/meta_partition.h"
#include "raft/multiraft.h"
#include "sim/network.h"
#include "storage/extent_store.h"

namespace cfs {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    meta::BTree<uint64_t, uint64_t> tree;
    Rng rng(42);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); i++) {
      tree.Insert(rng.Next(), i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1024)->Arg(16384);

void BM_BTreeLookup(benchmark::State& state) {
  meta::BTree<uint64_t, uint64_t> tree;
  Rng rng(42);
  std::vector<uint64_t> keys;
  for (int64_t i = 0; i < state.range(0); i++) {
    uint64_t k = rng.Next();
    keys.push_back(k);
    tree.Insert(k, i);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(16384)->Arg(262144);

void BM_BTreeVsStdMapLookup(benchmark::State& state) {
  std::map<uint64_t, uint64_t> tree;
  Rng rng(42);
  std::vector<uint64_t> keys;
  for (int64_t i = 0; i < state.range(0); i++) {
    uint64_t k = rng.Next();
    keys.push_back(k);
    tree.emplace(k, i);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeVsStdMapLookup)->Arg(262144);

void BM_BTreeRangeScan(benchmark::State& state) {
  meta::DentryTree tree;
  for (int dir = 0; dir < 64; dir++) {
    for (int f = 0; f < 256; f++) {
      tree.Insert(meta::DentryKey{static_cast<uint64_t>(dir), "file-" + std::to_string(f)},
                  meta::DentryValue{static_cast<uint64_t>(dir * 1000 + f), meta::FileType::kFile});
    }
  }
  uint64_t dir = 0;
  for (auto _ : state) {
    size_t n = 0;
    tree.AscendFrom(meta::DentryKey{dir % 64, ""}, [&](const meta::DentryKey& k,
                                                       const meta::DentryValue&) {
      if (k.parent != dir % 64) return false;
      n++;
      return true;
    });
    benchmark::DoNotOptimize(n);
    dir++;
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BTreeRangeScan);

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(131072);

void BM_CodecEncodeInode(benchmark::State& state) {
  meta::Inode ino;
  ino.id = 123456;
  ino.type = meta::FileType::kFile;
  ino.nlink = 1;
  ino.size = 40ull * kGiB;
  for (int i = 0; i < 8; i++) {
    ino.extents.push_back(meta::ExtentKey{static_cast<uint64_t>(i) * 128 * kMiB,
                                          static_cast<uint64_t>(i % 4 + 1),
                                          static_cast<uint64_t>(i + 100), 0, 128 * kMiB});
  }
  for (auto _ : state) {
    Encoder enc;
    ino.Encode(&enc);
    benchmark::DoNotOptimize(enc.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecEncodeInode);

void BM_MetaPartitionApplyCreate(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Network net(&sched);
  sim::Host* host = net.AddHost();
  meta::MetaPartitionConfig cfg;
  cfg.id = 1;
  meta::MetaPartition mp(cfg, host);
  Buffer cmd =
      Buffer::FromString(meta::MetaPartition::EncodeCreateInode(meta::FileType::kFile, "", 0));
  raft::Index idx = 0;
  for (auto _ : state) {
    meta::ApplyResult res;
    mp.Apply(++idx, cmd, {}, &res);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetaPartitionApplyCreate);

void BM_ExtentStoreSmallWrite(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Network net(&sched);
  sim::Host* host = net.AddHost();
  storage::ExtentStoreOptions opts;
  opts.track_contents = false;
  storage::ExtentStore store(host->disk(0), opts);
  std::string data(4096, 's');
  for (auto _ : state) {
    sim::Spawn([](storage::ExtentStore& store, const std::string& data) -> sim::Task<void> {
      (void)co_await store.WriteSmall(Buffer::CopyOf(data));
    }(store, data));
    sched.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtentStoreSmallWrite);

// --- Simulator hot-path microbenches (DESIGN.md "Simulator performance") --
// One per rebuilt component, so a regression in the timer wheel, event pool,
// payload sharing, or flat-map routing shows up here before it shows up as
// fig9 wall-clock.

void BM_SchedulerChurn(benchmark::State& state) {
  // Steady-state schedule/dispatch cycle: `width` events in flight, each
  // firing re-arms the next. Exercises wheel insert, level-0 collection,
  // seq-sort, and node recycling with zero allocations after warmup.
  const int64_t width = state.range(0);
  sim::Scheduler sched;
  uint64_t fired = 0;
  std::function<void()> rearm;  // self-referential: must outlive the loop
  rearm = [&] {
    fired++;
    sched.After(1 + fired % 7, [&] { rearm(); });
  };
  for (int64_t i = 0; i < width; i++) sched.After(1 + i % 7, [&] { rearm(); });
  for (auto _ : state) {
    uint64_t target = fired + width;
    while (fired < target) sched.RunOne();
  }
  state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_SchedulerChurn)->Arg(64)->Arg(4096)->Arg(65536);

void BM_TimerCancel(benchmark::State& state) {
  // The RPC-timeout pattern: arm a far watchdog, cancel it almost always.
  // Measures Insert + Cancel, which unlinks and frees the node at once.
  sim::Scheduler sched;
  uint64_t armed = 0;
  for (auto _ : state) {
    sim::Scheduler::TimerId id = sched.ScheduleAfter(1'000'000, [] {});
    armed++;
    if (armed % 64 != 0) {
      benchmark::DoNotOptimize(sched.Cancel(id));
    }
    if (armed % 4096 == 0) sched.RunFor(2'000'000);  // drain the survivors
  }
  sched.Run();
  state.SetItemsProcessed(static_cast<int64_t>(armed));
}
BENCHMARK(BM_TimerCancel);

void BM_PayloadFanout(benchmark::State& state) {
  // A 1 MiB client write fanned out as 128 KiB packet slices to 3 replicas,
  // each verifying the payload CRC: with shared Buffers and the CRC memo the
  // bytes are touched once per packet, not once per replica.
  Buffer payload = Buffer::Filled(1 * kMiB, 'w');
  const size_t kPacket = 128 * kKiB;
  for (auto _ : state) {
    uint32_t crc = 0;
    for (size_t off = 0; off < payload.size(); off += kPacket) {
      Buffer packet = payload.Slice(off, kPacket);
      for (int replica = 0; replica < 3; replica++) {
        Buffer hop = packet;  // refcount bump, no copy
        crc ^= hop.Crc0();
      }
    }
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * 3 * static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_PayloadFanout);

void BM_FlatMapVsStdMapLookup(benchmark::State& state) {
  // The rpc-router / handler-registry shape: a small, rarely-mutated map
  // probed on every delivered message. FlatMap (sorted vector) vs std::map.
  const int64_t n = state.range(0);
  FlatMap<uint64_t, uint64_t> flat;
  std::map<uint64_t, uint64_t> tree;
  Rng rng(7);
  std::vector<uint64_t> keys;
  for (int64_t i = 0; i < n; i++) {
    uint64_t k = rng.Next();
    keys.push_back(k);
    flat[k] = i;
    tree[k] = i;
  }
  size_t i = 0;
  if (state.range(1) == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(flat.find(keys[i++ % keys.size()]));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(tree.find(keys[i++ % keys.size()]));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapVsStdMapLookup)
    ->ArgsProduct({{16, 256}, {0 /* flat */, 1 /* std::map */}});

void BM_KvStorePut(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Network net(&sched);
  sim::Host* host = net.AddHost();
  kv::KvStore store(&host->storage(), host->disk(0), "bench");
  sim::Spawn([](kv::KvStore& s) -> sim::Task<void> { (void)co_await s.Open(); }(store));
  sched.Run();
  uint64_t i = 0;
  for (auto _ : state) {
    sim::Spawn([](kv::KvStore& s, uint64_t i) -> sim::Task<void> {
      (void)co_await s.Put("key" + std::to_string(i % 4096), "value");
    }(store, i++));
    sched.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStorePut);

// --- RPC transport allocation gate (--rpc-churn) ----------------------------
// Proves the zero-allocation-per-RPC claim end to end: after a warmup that
// populates the frame pool and the event slab, a measured run of unary echo
// RPCs must perform ~zero heap allocations.

struct RpcChurnReq {
  uint64_t x = 0;
};
struct RpcChurnResp {
  uint64_t x = 0;
};

sim::Task<void> RpcChurnClient(sim::Network& net, uint64_t n, uint64_t* ok) {
  for (uint64_t i = 0; i < n; i++) {
    auto r = co_await net.Call<RpcChurnReq, RpcChurnResp>(1, 2, RpcChurnReq{i});
    if (r.ok() && r->x == i + 1) (*ok)++;
  }
}

/// Raft state machine that applies nothing: the churn bench measures the
/// replication path, not a state machine.
class NullSm : public raft::StateMachine {
 public:
  void Apply(raft::Index, const Buffer&, const Buffer&, raft::ApplyOutcome*) override {}
  Buffer TakeSnapshot() override { return {}; }
  Status Restore(std::string_view) override { return Status::OK(); }
};

/// One closed-loop proposer: `n` sequential proposals on `node`.
sim::Task<void> RaftChurnProposer(raft::RaftNode* node, uint64_t n, uint64_t* done,
                                  uint64_t* ok) {
  for (uint64_t i = 0; i < n; i++) {
    if ((co_await node->Propose("cmd")).ok()) (*ok)++;
    (*done)++;
  }
}

int RunRpcChurn();
int RunBTreeFootprint();

}  // namespace
}  // namespace cfs

// Instrumented global allocator: counts every operator-new-family call so
// the churn bench can report allocations per RPC, and tracks the live heap
// bytes (malloc's usable size of each block) so the footprint bench can
// report bytes per entry. Counting is process-wide and always on; the
// overhead is negligible for the google-benchmark mode that shares this
// binary.
namespace {
uint64_t g_heap_allocs = 0;
int64_t g_heap_live_bytes = 0;

void* Counted(void* p) {
  g_heap_allocs++;
  if (p) g_heap_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
  return p;
}
void* CountedAlloc(std::size_t n) {
  if (void* p = Counted(std::malloc(n ? n : 1))) return p;
  throw std::bad_alloc();
}
void* CountedAllocAligned(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return Counted(p);
}
void CountedFree(void* p) {
  if (p) g_heap_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAllocAligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAllocAligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Counted(std::malloc(n ? n : 1));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Counted(std::malloc(n ? n : 1));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { CountedFree(p); }

namespace cfs {
namespace {

/// Steady-state raft replication under the counting allocator: after a
/// warmup that grows every pool, a few closed-loop proposers drive a
/// 3-replica group through group commit, AppendEntries to both followers,
/// WAL appends, commit and apply. Returns false when a proposal fails.
bool RunRaftChurn(uint64_t* proposals, uint64_t* allocs, uint64_t* events) {
  constexpr int kProposers = 4;
  constexpr uint64_t kWarmup = 1024;
  constexpr uint64_t kMeasured = 16384;
  sim::Scheduler sched(1);
  sim::Network net(&sched);
  std::vector<sim::NodeId> peers;
  for (int i = 0; i < 3; i++) peers.push_back(net.AddHost()->id());
  std::vector<std::unique_ptr<raft::RaftHost>> hosts;
  std::vector<NullSm> sms(3);
  raft::RaftNode* leader = nullptr;
  for (int i = 0; i < 3; i++) {
    sim::Host* h = net.host(peers[i]);
    hosts.push_back(std::make_unique<raft::RaftHost>(&net, h, raft::RaftOptions{}));
    hosts.back()->CreateGroup(1, peers, &sms[i], h->disk(0))->Start();
  }
  while (leader == nullptr && sched.Now() < 10 * kSec) {
    sched.RunFor(10 * kMsec);
    for (auto& h : hosts) {
      if (h->Get(1)->IsLeader()) leader = h->Get(1);
    }
  }
  if (leader == nullptr) return false;
  uint64_t done = 0, ok = 0;
  auto run = [&](uint64_t per_proposer) {
    const uint64_t target = done + kProposers * per_proposer;
    for (int p = 0; p < kProposers; p++) {
      sim::Spawn(RaftChurnProposer(leader, per_proposer, &done, &ok));
    }
    while (done < target) sched.RunOne();
  };
  run(kWarmup / kProposers);
  const uint64_t allocs0 = g_heap_allocs;
  const uint64_t events0 = sim::Scheduler::process_executed_events();
  run(kMeasured / kProposers);
  *allocs = g_heap_allocs - allocs0;
  *events = sim::Scheduler::process_executed_events() - events0;
  *proposals = kMeasured;
  return ok == kWarmup + kMeasured;
}

int RunRpcChurn() {
  constexpr uint64_t kWarmup = 4096;
  constexpr uint64_t kMeasured = 262144;
  sim::Scheduler sched(1);
  sim::Network net(&sched);
  net.AddHost();
  net.AddHost();
  net.host(2)->Register<RpcChurnReq, RpcChurnResp>(
      [](RpcChurnReq r, sim::NodeId) -> sim::Task<RpcChurnResp> {
        co_return RpcChurnResp{r.x + 1};
      });
  uint64_t ok = 0;
  // Warmup: grow every slab to steady-state footprint.
  sim::Spawn(RpcChurnClient(net, kWarmup, &ok));
  sched.Run();
  // Measured run under the counting allocator.
  const uint64_t allocs0 = g_heap_allocs;
  const uint64_t events0 = sim::Scheduler::process_executed_events();
  const auto start = std::chrono::steady_clock::now();
  sim::Spawn(RpcChurnClient(net, kMeasured, &ok));
  sched.Run();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
  const uint64_t allocs = g_heap_allocs - allocs0;
  const uint64_t events = sim::Scheduler::process_executed_events() - events0;
  if (ok != kWarmup + kMeasured) {
    std::fprintf(stderr, "rpc-churn: %llu/%llu calls succeeded\n",
                 static_cast<unsigned long long>(ok),
                 static_cast<unsigned long long>(kWarmup + kMeasured));
    return 1;
  }
  uint64_t proposals = 0, raft_allocs = 0, raft_events = 0;
  if (!RunRaftChurn(&proposals, &raft_allocs, &raft_events)) {
    std::fprintf(stderr, "rpc-churn: a raft proposal failed\n");
    return 1;
  }
  const double sec = wall.count();
  std::printf(
      "bench_wallclock bench_micro {\"wall_sec\":%.3f,\"events\":%llu,"
      "\"events_per_sec\":%.0f,\"rpcs\":%llu,\"heap_allocs\":%llu,"
      "\"allocs_per_rpc\":%.4f,\"proposals\":%llu,\"raft_events\":%llu,"
      "\"raft_heap_allocs\":%llu,\"allocs_per_proposal\":%.4f}\n",
      sec, static_cast<unsigned long long>(events),
      sec > 0 ? static_cast<double>(events) / sec : 0.0,
      static_cast<unsigned long long>(kMeasured),
      static_cast<unsigned long long>(allocs),
      static_cast<double>(allocs) / static_cast<double>(kMeasured),
      static_cast<unsigned long long>(proposals),
      static_cast<unsigned long long>(raft_events),
      static_cast<unsigned long long>(raft_allocs),
      static_cast<double>(raft_allocs) / static_cast<double>(proposals));
  return 0;
}

/// Live heap bytes per entry of the tree `build` fills, the tree object
/// itself and one memoized snapshot of it included: a meta partition keeps
/// its last snapshot, shared with the raft log store, and its leaf memos.
template <typename Tree, typename Build>
double HeapBytesPerEntry(Build build) {
  const int64_t live0 = g_heap_live_bytes;
  auto tree = std::make_unique<Tree>();
  build(tree.get());
  Encoder enc;
  tree->EncodeValues(
      &enc, {}, [](const auto& k, const auto& v, Encoder* e) { meta::EncodeTreePair(k, v, e); },
      /*adopt=*/true);
  const Buffer snapshot = Buffer::FromString(enc.Take());
  return static_cast<double>(g_heap_live_bytes - live0) / static_cast<double>(tree->size());
}

int RunBTreeFootprint() {
  using meta::DentryTree;
  using meta::InodeTree;
  constexpr uint64_t kEntries = 100000;
  constexpr uint64_t kChurnSteps = 300000;
  auto append = [](InodeTree* t, uint64_t id) {
    meta::Inode ino;
    ino.id = id;
    t->Insert(id, std::move(ino));
  };
  // Inode ids grow monotonically within a partition.
  const double inode = HeapBytesPerEntry<InodeTree>([&](InodeTree* t) {
    for (uint64_t id = 1; id <= kEntries; id++) append(t, id);
  });
  // Files created and deleted in age order: insert right, erase left.
  const double fifo = HeapBytesPerEntry<InodeTree>([&](InodeTree* t) {
    for (uint64_t id = 1; id <= kEntries; id++) append(t, id);
    for (uint64_t id = kEntries + 1; id <= kEntries + kChurnSteps; id++) {
      append(t, id);
      t->Erase(id - kEntries);
    }
  });
  // One directory's entries, named as perfbench's meta_churn names them.
  const double dentry = HeapBytesPerEntry<DentryTree>([&](DentryTree* t) {
    for (uint64_t i = 0; i < kEntries; i++) {
      meta::DentryKey key{meta::kRootInode, "f"};
      key.name += std::to_string(i);
      t->Insert(std::move(key), meta::DentryValue{i + 2, meta::FileType::kFile});
    }
  });
  std::printf(
      "bench_wallclock bench_micro {\"btree_inode_bytes_per_entry\":%.1f,"
      "\"btree_fifo_bytes_per_entry\":%.1f,\"btree_dentry_bytes_per_entry\":%.1f,"
      "\"btree_bytes_per_entry\":%.1f}\n",
      inode, fifo, dentry, std::max({inode, fifo, dentry}));
  return 0;
}

}  // namespace
}  // namespace cfs

int main(int argc, char** argv) {
  bool rpc_churn = false, btree_footprint = false;
  for (int i = 1; i < argc; i++) {
    rpc_churn |= std::string_view(argv[i]) == "--rpc-churn";
    btree_footprint |= std::string_view(argv[i]) == "--btree-footprint";
  }
  if (rpc_churn || btree_footprint) {
    if (rpc_churn && cfs::RunRpcChurn() != 0) return 1;
    return btree_footprint ? cfs::RunBTreeFootprint() : 0;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
