// The closed-loop workload engine (harness/workloads.h): every attempt is
// accounted, so a failed op or a failed setup can never vanish from a cell's
// result, and a cell's schedule does not depend on which cells ran before it
// in the same process.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/cluster.h"
#include "harness/workloads.h"

namespace cfs::bench {
namespace {

/// A small CFS cluster with one mount and `procs` procs sharing its adapters.
struct SmallCell {
  std::unique_ptr<harness::Cluster> cluster;
  std::unique_ptr<CfsMetaOps> meta;
  std::unique_ptr<CfsDataOps> data;

  explicit SmallCell(uint64_t seed) {
    harness::ClusterOptions opts;
    opts.num_nodes = 5;
    opts.seed = seed;
    opts.track_contents = false;
    opts.client.rpc_timeout = 300 * kMsec;
    cluster = std::make_unique<harness::Cluster>(opts);
    auto st = harness::RunTask(cluster->sched(), cluster->Start());
    EXPECT_TRUE(st && st->ok());
    st = harness::RunTask(cluster->sched(), cluster->CreateVolume("v", 3, 8));
    EXPECT_TRUE(st && st->ok());
    auto c = harness::RunTask(cluster->sched(), cluster->MountClient("v"));
    EXPECT_TRUE(c && c->ok());
    client::MountContext* m = (**c)->default_mount();
    meta = std::make_unique<CfsMetaOps>(m);
    data = std::make_unique<CfsDataOps>(cluster.get(), m, 128 * kKiB);
  }

  sim::Scheduler* sched() { return &cluster->sched(); }
};

FioParams SmallFio() {
  FioParams p;
  p.file_bytes = 8 * kMiB;
  p.ops_per_proc = 3;
  return p;
}

void ExpectAllFailed(const BenchResult& r) {
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, r.attempted);
  EXPECT_EQ(r.ops, 0u);
  EXPECT_EQ(r.Iops(), 0);
  EXPECT_EQ(r.latency.count, 0u);
  EXPECT_EQ(r.OkOpRatio(), 0);
}

TEST(Workloads, TotalLossFailsEveryFioSetup) {
  SmallCell cell(5);
  cell.cluster->net().SetDropProbability(1.0);
  std::vector<DataOps*> procs(2, cell.data.get());
  BenchResult r = RunFio(cell.sched(), FioPattern::kRandWrite, procs, SmallFio());
  ExpectAllFailed(r);
  EXPECT_EQ(r.attempted, 2u);  // one failed setup per proc; no op was issued
}

TEST(Workloads, TotalLossFailsEveryMdtestSetup) {
  SmallCell cell(6);
  cell.cluster->net().SetDropProbability(1.0);
  std::vector<MetaOps*> procs(2, cell.meta.get());
  MdtestParams params;
  params.items_per_proc = 3;
  BenchResult r = RunMdtest(cell.sched(), MdTest::kFileCreation, procs, params);
  ExpectAllFailed(r);
  EXPECT_EQ(r.attempted, 2u);
}

TEST(Workloads, TotalLossOnCephCountsEveryProc) {
  sim::Scheduler sched(10);
  sim::Network net(&sched);
  ceph::CephOptions opts;
  opts.num_nodes = 5;
  ceph::CephCluster cluster(&sched, &net, opts);
  sim::HostOptions ho;
  ho.num_disks = 1;
  ceph::CephClient client(&cluster, net.AddHost(ho));
  CephMetaOps meta(&client);
  net.SetDropProbability(1.0);
  std::vector<MetaOps*> procs(2, &meta);
  MdtestParams params;
  params.items_per_proc = 3;
  BenchResult r = RunMdtest(&sched, MdTest::kDirCreation, procs, params);
  ExpectAllFailed(r);
  EXPECT_EQ(r.attempted, 2u);
}

/// Every call parks on a promise nobody sets, so the simulation stalls under
/// the procs that issue them.
class NeverReturns final : public MetaOps {
 public:
  explicit NeverReturns(sim::Scheduler* sched) : sched_(sched) {}
  sim::Task<Result<uint64_t>> Mkdir(uint64_t, std::string) override {
    sim::Promise<bool> never(sched_);
    co_await never.future();
    co_return uint64_t{1};
  }
  sim::Task<Result<uint64_t>> Create(uint64_t parent, std::string name) override {
    return Mkdir(parent, std::move(name));
  }
  sim::Task<Result<size_t>> StatDir(uint64_t) override {
    sim::Promise<bool> never(sched_);
    co_await never.future();
    co_return size_t{0};
  }
  sim::Task<Status> Remove(uint64_t, std::string) override {
    sim::Promise<bool> never(sched_);
    co_await never.future();
    co_return Status::OK();
  }
  sim::Task<Status> Rmdir(uint64_t parent, std::string name) override {
    return Remove(parent, std::move(name));
  }
  uint64_t Root() const override { return 1; }

 private:
  sim::Scheduler* sched_;
};

TEST(Workloads, ProcThatNeverReturnsCountsAsFailed) {
  sim::Scheduler sched(11);
  NeverReturns stalls(&sched);
  std::vector<MetaOps*> procs(2, &stalls);
  BenchResult r = RunMdtest(&sched, MdTest::kDirCreation, procs, MdtestParams{});
  ExpectAllFailed(r);
  EXPECT_EQ(r.attempted, 2u);  // each proc stalled in its setup
}

/// Forwards to a real adapter, and cuts every link once the first measured
/// op is issued: setup succeeds, every op then fails.
class LossAtFirstOp : public DataOps {
 public:
  LossAtFirstOp(DataOps* inner, sim::Network* net) : inner_(inner), net_(net) {}
  sim::Task<Result<uint64_t>> PrepareFile(uint64_t bytes, uint64_t index) override {
    return inner_->PrepareFile(bytes, index);
  }
  sim::Task<Status> Write(uint64_t file, uint64_t offset, uint64_t len,
                          bool overwrite) override {
    net_->SetDropProbability(1.0);
    return inner_->Write(file, offset, len, overwrite);
  }
  sim::Task<Status> Read(uint64_t file, uint64_t offset, uint64_t len) override {
    net_->SetDropProbability(1.0);
    return inner_->Read(file, offset, len);
  }

 private:
  DataOps* inner_;
  sim::Network* net_;
};

TEST(Workloads, TotalLossFailsEveryMeasuredFioOp) {
  SmallCell cell(7);
  LossAtFirstOp lossy(cell.data.get(), &cell.cluster->net());
  std::vector<DataOps*> procs(2, &lossy);
  BenchResult r = RunFio(cell.sched(), FioPattern::kRandRead, procs, SmallFio());
  ExpectAllFailed(r);
  EXPECT_EQ(r.attempted, 6u);  // 2 procs x 3 ops, every one counted
}

TEST(Workloads, FaultFreeCellCountsEveryAttemptOk) {
  SmallCell cell(8);
  std::vector<MetaOps*> procs(2, cell.meta.get());
  MdtestParams params;
  params.items_per_proc = 3;
  params.stat_dir_files = 4;
  params.stat_repetitions = 2;
  BenchResult r = RunMdtest(cell.sched(), MdTest::kDirStat, procs, params);
  EXPECT_EQ(r.attempted, 4u);  // 2 procs x 2 scans
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.ops, 16u);  // DirStat counts stat'ed entries
  EXPECT_EQ(r.latency.count, 4u);
  EXPECT_EQ(r.OkOpRatio(), 1.0);
}

/// Same seed, fresh cluster, same process: a cell's names come from its own
/// proc indexes, so the second run replays the first exactly. 8 procs make a
/// process-wide name counter cross a digit boundary on the second run.
TEST(Workloads, FioCellIsIndependentOfEarlierCells) {
  auto run = [](uint64_t* hash) {
    SmallCell cell(9);
    std::vector<DataOps*> procs(8, cell.data.get());
    BenchResult r = RunFio(cell.sched(), FioPattern::kSeqWrite, procs, SmallFio());
    *hash = cell.sched()->trace_hash();
    return r;
  };
  uint64_t h1 = 0;
  uint64_t h2 = 0;
  const BenchResult first = run(&h1);
  const BenchResult second = run(&h2);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(first.ops, 24u);
  EXPECT_EQ(first.ops, second.ops);
  EXPECT_EQ(first.elapsed, second.elapsed);
  EXPECT_EQ(first.latency.count, second.latency.count);
  EXPECT_EQ(first.latency.sum_usec, second.latency.sum_usec);
  for (int b = 0; b <= obs::Histogram::kNumBounds; b++) {
    EXPECT_EQ(first.latency.buckets[b], second.latency.buckets[b]) << "bucket " << b;
  }
  EXPECT_EQ(h1, h2);
}

}  // namespace
}  // namespace cfs::bench
