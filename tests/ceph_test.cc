// Tests for the Ceph baseline model: MDS metadata ops, directory-locality
// authority + rebalancing, bounded cache behaviour, OSD read/write paths.
#include <gtest/gtest.h>

#include "ceph/ceph.h"
#include "harness/cluster.h"  // for RunTask

namespace cfs::ceph {
namespace {

using harness::RunTask;
using sim::Task;

class CephFixture : public ::testing::Test {
 protected:
  CephFixture() : net_(&sched_) {
    CephOptions opts;
    opts.num_nodes = 5;
    cluster_ = std::make_unique<CephCluster>(&sched_, &net_, opts);
    sim::HostOptions ho;
    ho.num_disks = 1;
    client_host_ = net_.AddHost(ho);
    client_ = std::make_unique<CephClient>(cluster_.get(), client_host_);
  }

  template <typename T>
  T Run(sim::Task<T> t) {
    auto out = RunTask(sched_, std::move(t));
    EXPECT_TRUE(out.has_value()) << "hung";
    return std::move(*out);
  }

  sim::Scheduler sched_;
  sim::Network net_;
  std::unique_ptr<CephCluster> cluster_;
  sim::Host* client_host_;
  std::unique_ptr<CephClient> client_;
};

TEST_F(CephFixture, MkdirCreateLookup) {
  auto dir = Run(client_->Mkdir(kCephRoot, "d"));
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  auto file = Run(client_->Create(*dir, "f"));
  ASSERT_TRUE(file.ok());
  auto looked = Run(client_->Lookup(*dir, "f"));
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(looked->id, *file);
  EXPECT_FALSE(looked->is_dir);
}

TEST_F(CephFixture, DuplicateCreateFails) {
  ASSERT_TRUE(Run(client_->Create(kCephRoot, "x")).ok());
  EXPECT_TRUE(Run(client_->Create(kCephRoot, "x")).status().IsAlreadyExists());
}

TEST_F(CephFixture, ReaddirPlusIssuesPerInodeGets) {
  auto dir = Run(client_->Mkdir(kCephRoot, "dir"));
  ASSERT_TRUE(dir.ok());
  for (int i = 0; i < 10; i++) {
    std::string name = "f";
    name += std::to_string(i);
    ASSERT_TRUE(Run(client_->Create(*dir, name)).ok());
  }
  uint64_t before = client_->meta_rpcs();
  auto listing = Run(client_->ReaddirPlus(*dir));
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 10u);
  // 1 readdir + 10 inodeGets (the §4.2 contrast with CFS's batchInodeGet).
  EXPECT_EQ(client_->meta_rpcs() - before, 11u);
}

TEST_F(CephFixture, RemoveAndRmdir) {
  auto dir = Run(client_->Mkdir(kCephRoot, "rd"));
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(Run(client_->Create(*dir, "f")).ok());
  EXPECT_EQ(Run(client_->Rmdir(kCephRoot, "rd")).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(Run(client_->Remove(*dir, "f")).ok());
  EXPECT_TRUE(Run(client_->Rmdir(kCephRoot, "rd")).ok());
  EXPECT_TRUE(Run(client_->Lookup(kCephRoot, "rd")).status().IsNotFound());
}

TEST_F(CephFixture, DirectoryLocalityRoutesToOneMds) {
  auto dir = Run(client_->Mkdir(kCephRoot, "hot"));
  ASSERT_TRUE(dir.ok());
  for (int i = 0; i < 20; i++) {
    std::string name = "f";
    name += std::to_string(i);
    ASSERT_TRUE(Run(client_->Create(*dir, name)).ok());
  }
  // All creates for this directory landed on its single authority MDS.
  int authority = cluster_->AuthorityOf(*dir);
  EXPECT_GE(cluster_->mds(authority)->ops(), 20u);
}

TEST_F(CephFixture, CacheMissesGrowBeyondCapacity) {
  // Shrink the cache and touch more inodes than fit.
  CephOptions opts;
  opts.num_nodes = 3;
  opts.mds_cache_capacity = 64;
  sim::Scheduler sched2;
  sim::Network net2(&sched2);
  CephCluster small(&sched2, &net2, opts);
  sim::HostOptions ho;
  ho.num_disks = 1;
  CephClient c(&small, net2.AddHost(ho));

  auto dir = RunTask(sched2, c.Mkdir(kCephRoot, "d"));
  ASSERT_TRUE(dir->ok());
  std::vector<InodeId> files;
  for (int i = 0; i < 300; i++) {
    std::string name = "f";
    name += std::to_string(i);
    auto f = RunTask(sched2, c.Create(**dir, name));
    ASSERT_TRUE(f->ok());
    files.push_back(**f);
  }
  // Random-ish access over a working set 5x the cache: mostly misses.
  int authority = small.AuthorityOf(**dir);
  uint64_t misses_before = small.mds(authority)->cache_misses();
  for (int round = 0; round < 2; round++) {
    for (size_t i = 0; i < files.size(); i += 3) {
      ASSERT_TRUE(RunTask(sched2, c.InodeGet(files[i], **dir))->ok());
    }
  }
  EXPECT_GT(small.mds(authority)->cache_misses(), misses_before + 50);
}

TEST_F(CephFixture, RebalancingMovesHotDirectory) {
  CephOptions opts;
  opts.num_nodes = 4;
  opts.rebalance_interval = 500 * kMsec;
  opts.rebalance_imbalance_factor = 1.5;
  sim::Scheduler sched2;
  sim::Network net2(&sched2);
  CephCluster small(&sched2, &net2, opts);
  sim::HostOptions ho;
  ho.num_disks = 1;
  CephClient c(&small, net2.AddHost(ho));

  auto dir = RunTask(sched2, c.Mkdir(kCephRoot, "hot"));
  ASSERT_TRUE(dir->ok());
  int initial_authority = small.AuthorityOf(**dir);
  // Hammer the one directory; every other MDS is idle -> imbalance.
  for (int i = 0; i < 2000; i++) {
    std::string name = "f";
    name += std::to_string(i);
    ASSERT_TRUE(RunTask(sched2, c.Create(**dir, name))->ok());
  }
  sched2.RunFor(3 * kSec);
  EXPECT_GT(small.rebalances(), 0u);
  // Stale-route requests still succeed (proxied), and the authority moved.
  int now_authority = small.AuthorityOf(**dir);
  EXPECT_NE(now_authority, initial_authority);
  EXPECT_TRUE(RunTask(sched2, c.Lookup(**dir, "f0"))->ok());
}

TEST_F(CephFixture, WriteStripesAcrossObjects) {
  auto f = Run(client_->Create(kCephRoot, "big"));
  ASSERT_TRUE(f.ok());
  // 10 MiB spans 3 x 4 MiB objects.
  ASSERT_TRUE(Run(client_->Write(*f, kCephRoot, 0, 10 * kMiB, false)).ok());
  uint64_t written = 0;
  for (int i = 0; i < cluster_->num_mds(); i++) {
    sim::Host* h = cluster_->mds_host(i);
    for (int d = 0; d < h->num_disks(); d++) written += h->disk(d)->write_bytes();
  }
  // 3 replicas x (journal + data) = 6x logical bytes, plus metadata.
  EXPECT_GE(written, 6 * 10 * kMiB);
}

TEST_F(CephFixture, OverwritePaysQueueWalkAndMetadataSync) {
  auto f = Run(client_->Create(kCephRoot, "ow"));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Write(*f, kCephRoot, 0, 1 * kMiB, false)).ok());
  SimTime t0 = sched_.Now();
  ASSERT_TRUE(Run(client_->Write(*f, 0, 0, 4 * kKiB, true)).ok());
  SimTime overwrite_lat = sched_.Now() - t0;
  t0 = sched_.Now();
  ASSERT_TRUE(Run(client_->Read(*f, 0, 4 * kKiB)).ok());
  SimTime read_lat = sched_.Now() - t0;
  // Overwrites are substantially slower than reads of the same size.
  EXPECT_GT(overwrite_lat, read_lat * 2);
}

TEST_F(CephFixture, ReadComesFromPrimaryOnly) {
  auto f = Run(client_->Create(kCephRoot, "r"));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(client_->Write(*f, kCephRoot, 0, 64 * kKiB, false)).ok());
  uint64_t reads_before = 0;
  for (int i = 0; i < cluster_->num_mds(); i++) {
    sim::Host* h = cluster_->mds_host(i);
    for (int d = 0; d < h->num_disks(); d++) reads_before += h->disk(d)->reads();
  }
  ASSERT_TRUE(Run(client_->Read(*f, 0, 64 * kKiB)).ok());
  uint64_t reads_after = 0;
  for (int i = 0; i < cluster_->num_mds(); i++) {
    sim::Host* h = cluster_->mds_host(i);
    for (int d = 0; d < h->num_disks(); d++) reads_after += h->disk(d)->reads();
  }
  EXPECT_EQ(reads_after - reads_before, 1u);  // one disk read, one replica
}

}  // namespace
}  // namespace cfs::ceph
