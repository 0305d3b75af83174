// Extent store tests: large-file extents, small-file aggregation, punch
// holes, CRC integrity, overwrite semantics, range checks that cannot
// overflow, accounting mode. Every case drives the mutators the cluster
// calls: PlaceAt, WriteSmall and the raft-applied *Sync methods.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/network.h"
#include "storage/extent_store.h"

namespace cfs::storage {
namespace {

using sim::Spawn;
using sim::Task;

class ExtentFixture : public ::testing::Test {
 protected:
  ExtentFixture() : net_(&sched_) {
    host_ = net_.AddHost();
    ExtentStoreOptions opts;
    opts.extent_size_limit = 1 * kMiB;
    store_ = std::make_unique<ExtentStore>(host_->disk(0), opts);
  }

  template <typename F>
  void Run(F f) {
    Spawn(f());
    sched_.Run();
  }

  sim::Scheduler sched_;
  sim::Network net_;
  sim::Host* host_;
  std::unique_ptr<ExtentStore> store_;
};

TEST_F(ExtentFixture, AppendAndReadBack) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    EXPECT_TRUE((co_await store_->PlaceAt(id, 0, Buffer::CopyOf("hello "))).ok());
    EXPECT_TRUE((co_await store_->PlaceAt(id, 6, Buffer::CopyOf("world"))).ok());
    auto r = co_await store_->Read(id, 0, 11);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, "hello world");
    }
    EXPECT_EQ(store_->ExtentSize(id), 11u);
  });
}

TEST_F(ExtentFixture, AppendMustBeAtEnd) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->PlaceAt(id, 0, Buffer::CopyOf("abc"));
    Status st = co_await store_->PlaceAt(id, 1, Buffer::CopyOf("x"));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    st = co_await store_->PlaceAt(id, 10, Buffer::CopyOf("x"));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, ExtentSizeLimitEnforced) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    std::string big(512 * kKiB, 'a');
    EXPECT_TRUE((co_await store_->PlaceAt(id, 0, Buffer::CopyOf(big))).ok());
    EXPECT_TRUE((co_await store_->PlaceAt(id, big.size(), Buffer::CopyOf(big))).ok());
    Status st = co_await store_->PlaceAt(id, 2 * big.size(), Buffer::CopyOf("x"));
    EXPECT_TRUE(st.IsNoSpace());
  });
}

TEST_F(ExtentFixture, OverwriteInPlace) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->PlaceAt(id, 0, Buffer::CopyOf("aaaaaaaaaa"));
    EXPECT_TRUE(store_->OverwriteSync(id, 3, Buffer::CopyOf("XYZ")).ok());
    auto r = co_await store_->Read(id, 0, 10);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, "aaaXYZaaaa");
    }
    // Size unchanged: overwrite never extends (§2.7.2, offsets fixed).
    EXPECT_EQ(store_->ExtentSize(id), 10u);
  });
}

TEST_F(ExtentFixture, OverwriteBeyondEndRejected) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->PlaceAt(id, 0, Buffer::CopyOf("abc"));
    Status st = store_->OverwriteSync(id, 2, Buffer::CopyOf("toolong"));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, CrcCaughtAfterOverwrite) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->PlaceAt(id, 0, Buffer::CopyOf("0123456789"));
    EXPECT_TRUE(store_->OverwriteSync(id, 0, Buffer::CopyOf("9876543210")).ok());
    // Whole-extent read verifies the recomputed CRC.
    auto r = co_await store_->Read(id, 0, 10);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE((co_await store_->VerifyExtent(id)).ok());
  });
}

TEST_F(ExtentFixture, SmallFilesAggregateIntoOneExtent) {
  Run([&]() -> Task<void> {
    std::string f1(4 * kKiB, 'a'), f2(8 * kKiB, 'b'), f3(100, 'c');
    auto r1 = co_await store_->WriteSmall(Buffer::CopyOf(f1));
    auto r2 = co_await store_->WriteSmall(Buffer::CopyOf(f2));
    auto r3 = co_await store_->WriteSmall(Buffer::CopyOf(f3));
    EXPECT_TRUE(r1.ok());
    EXPECT_TRUE(r2.ok());
    EXPECT_TRUE(r3.ok());
    if (!(r1.ok() && r2.ok() && r3.ok())) co_return;
    // All in the same tiny extent, at consecutive physical offsets.
    EXPECT_EQ(r1->first, r2->first);
    EXPECT_EQ(r2->first, r3->first);
    EXPECT_EQ(r1->second, 0u);
    EXPECT_EQ(r2->second, f1.size());
    EXPECT_EQ(r3->second, f1.size() + f2.size());
    // Contents readable at the recorded offsets.
    auto read = co_await store_->Read(r2->first, r2->second, f2.size());
    EXPECT_TRUE(read.ok());
    if (read.ok()) {
      EXPECT_EQ(*read, f2);
    }
  });
}

TEST_F(ExtentFixture, TooLargeForSmallPathRejected) {
  Run([&]() -> Task<void> {
    auto r = co_await store_->WriteSmall(Buffer::Filled(256 * kKiB, 'x'));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, PunchHoleFreesSpaceAndBlocksReads) {
  Run([&]() -> Task<void> {
    std::string f1(16 * kKiB, 'a'), f2(16 * kKiB, 'b');
    auto r1 = co_await store_->WriteSmall(Buffer::CopyOf(f1));
    auto r2 = co_await store_->WriteSmall(Buffer::CopyOf(f2));
    uint64_t before = store_->physical_bytes();
    EXPECT_TRUE(store_->PunchHoleSync(r1->first, r1->second, f1.size()).ok());
    EXPECT_EQ(store_->physical_bytes(), before - f1.size());
    // Reading the punched file fails; the neighbour is intact.
    auto bad = co_await store_->Read(r1->first, r1->second, f1.size());
    EXPECT_FALSE(bad.ok());
    auto good = co_await store_->Read(r2->first, r2->second, f2.size());
    EXPECT_TRUE(good.ok());
    if (good.ok()) {
      EXPECT_EQ(*good, f2);
    }
  });
}

TEST_F(ExtentFixture, DoublePunchRejected) {
  Run([&]() -> Task<void> {
    // A neighbour keeps the tiny extent resident, so the second punch is
    // caught by the hole bookkeeping rather than by the extent being gone.
    auto r = co_await store_->WriteSmall(Buffer::Filled(1024, 'x'));
    (void)co_await store_->WriteSmall(Buffer::Filled(1024, 'y'));
    EXPECT_TRUE(store_->PunchHoleSync(r->first, r->second, 1024).ok());
    Status st = store_->PunchHoleSync(r->first, r->second, 1024);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    // Overlapping the punched range is rejected too.
    st = store_->PunchHoleSync(r->first, r->second + 512, 1024);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, FullyPunchedTinyExtentIsRemoved) {
  Run([&]() -> Task<void> {
    auto r1 = co_await store_->WriteSmall(Buffer::Filled(512, 'a'));
    auto r2 = co_await store_->WriteSmall(Buffer::Filled(512, 'b'));
    size_t extents_before = store_->num_extents();
    EXPECT_TRUE(store_->PunchHoleSync(r1->first, r1->second, 512).ok());
    EXPECT_EQ(store_->num_extents(), extents_before);  // half punched: stays
    EXPECT_TRUE(store_->PunchHoleSync(r2->first, r2->second, 512).ok());
    EXPECT_EQ(store_->num_extents(), extents_before - 1);  // all punched: gone
    EXPECT_TRUE(store_->PunchHoleSync(r2->first, r2->second, 512).IsNotFound());
  });
}

TEST_F(ExtentFixture, DeleteLargeExtentDirectly) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->PlaceAt(id, 0, Buffer::Filled(64 * kKiB, 'z'));
    uint64_t before = store_->physical_bytes();
    EXPECT_TRUE(store_->DeleteExtentSync(id).ok());
    EXPECT_EQ(store_->physical_bytes(), before - 64 * kKiB);
    EXPECT_FALSE(store_->Has(id));
  });
}

TEST_F(ExtentFixture, DeleteTinyExtentRejected) {
  Run([&]() -> Task<void> {
    auto r = co_await store_->WriteSmall(Buffer::CopyOf("tiny"));
    Status st = store_->DeleteExtentSync(r->first);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, NewTinyExtentWhenActiveFills) {
  Run([&]() -> Task<void> {
    // 1 MiB limit; 128 KiB files fill one tiny extent after 8 writes.
    Buffer f = Buffer::Filled(128 * kKiB, 'q');
    ExtentId first = 0;
    for (int i = 0; i < 9; i++) {
      auto r = co_await store_->WriteSmall(f);
      EXPECT_TRUE(r.ok());
      if (i == 0) first = r->first;
      if (i == 8) {
        EXPECT_NE(r->first, first);  // rolled over to a new extent
      }
    }
  });
}

// Ranges whose end wraps past UINT64_MAX must be rejected, not pass a
// `offset + len > size` check that overflowed.
TEST_F(ExtentFixture, WrappingRangesRejected) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->PlaceAt(id, 0, Buffer::CopyOf("0123456789"));
    auto r = co_await store_->Read(id, UINT64_MAX - 1, 2);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    r = co_await store_->Read(id, 4, UINT64_MAX);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    Status st = store_->OverwriteSync(id, UINT64_MAX - 1, Buffer::CopyOf("ab"));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    st = store_->PunchHoleSync(id, 1, UINT64_MAX);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    st = store_->PunchHoleSync(id, UINT64_MAX, 2);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    auto whole = co_await store_->Read(id, 0, 10);
    EXPECT_TRUE(whole.ok());
    if (whole.ok()) {
      EXPECT_EQ(*whole, "0123456789");
    }
  });
  InvariantReport report;
  store_->CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(store_->physical_bytes(), 10u);
}

// Benches run in accounting mode, where a wrapped punch would not fault on
// the (absent) contents but would silently corrupt the byte accounting.
TEST_F(ExtentFixture, WrappingPunchLeavesAccountingIntact) {
  ExtentStoreOptions opts = store_->options();
  opts.track_contents = false;
  ExtentStore store(host_->disk(1), opts);
  Run([&]() -> Task<void> {
    auto r = co_await store.WriteSmall(Buffer::Filled(4 * kKiB, 's'));
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    Status st = store.PunchHoleSync(r->first, r->second + 1, UINT64_MAX);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
  InvariantReport report;
  store.CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(store.physical_bytes(), 4 * kKiB);
  EXPECT_EQ(store.num_extents(), 1u);
}

TEST_F(ExtentFixture, AccountingModeTracksSizesWithoutContents) {
  ExtentStoreOptions opts;
  opts.track_contents = false;
  ExtentStore store(host_->disk(1), opts);
  Run([&]() -> Task<void> {
    ExtentId id = store.CreateExtent();
    (void)co_await store.PlaceAt(id, 0, Buffer::Filled(1 * kMiB, 'a'));
    EXPECT_EQ(store.ExtentSize(id), 1 * kMiB);
    EXPECT_EQ(store.Find(id)->data.size(), 0u);  // no bytes materialized
    auto r = co_await store.Read(id, 0, 1024);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->size(), 1024u);
    }
  });
  EXPECT_EQ(store.logical_bytes(), 1 * kMiB);
}

// One op table run against a tracking store and an accounting store side by
// side. Every bench runs accounting mode, so after each step both stores
// must pass their deep check and agree on logical and physical bytes.
TEST_F(ExtentFixture, AccountingModeMatchesTrackingModeOpByOp) {
  ExtentStoreOptions opts = store_->options();
  opts.track_contents = false;
  ExtentStore accounting(host_->disk(1), opts);
  ExtentStore* stores[] = {store_.get(), &accounting};
  auto check = [&](const std::string& step) {
    for (ExtentStore* s : stores) {
      InvariantReport report;
      s->CheckInvariants(&report);
      EXPECT_TRUE(report.ok()) << step << ": " << report.ToString();
    }
    EXPECT_EQ(accounting.logical_bytes(), store_->logical_bytes()) << step;
    EXPECT_EQ(accounting.physical_bytes(), store_->physical_bytes()) << step;
    EXPECT_EQ(accounting.num_extents(), store_->num_extents()) << step;
  };
  Run([&]() -> Task<void> {
    ExtentId large[2];
    std::pair<ExtentId, uint64_t> small[2][2];
    const Buffer chunk = Buffer::Filled(64 * kKiB, 'p');
    const Buffer file = Buffer::Filled(4 * kKiB, 's');
    const Buffer patch = Buffer::Filled(8 * kKiB, 'o');
    for (int i = 0; i < 2; i++) {
      large[i] = stores[i]->CreateExtent();
      EXPECT_TRUE((co_await stores[i]->PlaceAt(large[i], 0, chunk)).ok());
      EXPECT_TRUE((co_await stores[i]->PlaceAt(large[i], chunk.size(), chunk)).ok());
    }
    check("place");
    for (int i = 0; i < 2; i++) {
      for (auto& slot : small[i]) {
        auto r = co_await stores[i]->WriteSmall(file);
        EXPECT_TRUE(r.ok());
        if (r.ok()) slot = *r;
      }
    }
    check("small write");
    for (int i = 0; i < 2; i++) {
      EXPECT_TRUE(stores[i]->OverwriteSync(large[i], 4 * kKiB, patch).ok());
    }
    check("overwrite");
    for (int i = 0; i < 2; i++) {
      auto [tiny, offset] = small[i][0];
      EXPECT_TRUE(stores[i]->PunchHoleSync(tiny, offset, file.size()).ok());
    }
    check("punch one small file");
    for (int i = 0; i < 2; i++) {
      EXPECT_TRUE(stores[i]->DeleteExtentSync(large[i]).ok());
    }
    check("delete large extent");
    for (int i = 0; i < 2; i++) {
      auto [tiny, offset] = small[i][1];
      EXPECT_TRUE(stores[i]->PunchHoleSync(tiny, offset, file.size()).ok());
    }
    check("punch last small file");
    EXPECT_EQ(store_->num_extents(), 0u);
  });
}

TEST_F(ExtentFixture, RebuildCrcCacheAfterRestart) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->PlaceAt(id, 0, Buffer::CopyOf("data-to-check"));
    EXPECT_TRUE((co_await store_->RebuildCrcCache()).ok());
    EXPECT_TRUE((co_await store_->VerifyExtent(id)).ok());
  });
}

}  // namespace
}  // namespace cfs::storage
