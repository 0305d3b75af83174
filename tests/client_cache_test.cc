// client::LruTtlCache: LRU eviction order under a capacity cap, TTL expiry,
// and which operations refresh recency and the TTL anchor.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "client/client.h"

namespace cfs::client {
namespace {

using Cache = LruTtlCache<int, std::string>;

constexpr SimDuration kTtl = 100;

class LruTtlCacheTest : public ::testing::Test {
 protected:
  bool Has(int k, SimTime now = 0) { return cache_.Find(k, now, kTtl) != nullptr; }

  uint64_t evictions_ = 0;
  Cache cache_{evictions_};
};

TEST_F(LruTtlCacheTest, EvictsLeastRecentlyUsedFirst) {
  cache_.set_capacity(3);
  cache_.Put(1, "a", 0);
  cache_.Put(2, "b", 0);
  cache_.Put(3, "c", 0);
  EXPECT_EQ(evictions_, 0u);
  cache_.Put(4, "d", 0);  // evicts 1, the oldest
  EXPECT_EQ(cache_.size(), 3u);
  EXPECT_EQ(evictions_, 1u);
  EXPECT_FALSE(Has(1));
  cache_.Put(5, "e", 0);  // evicts 2
  EXPECT_EQ(evictions_, 2u);
  EXPECT_FALSE(Has(2));
  EXPECT_TRUE(Has(3));
  EXPECT_TRUE(Has(4));
  EXPECT_TRUE(Has(5));
}

TEST_F(LruTtlCacheTest, HitRefreshesRecencyButNotTtl) {
  cache_.set_capacity(2);
  cache_.Put(1, "a", 0);
  cache_.Put(2, "b", 10);
  ASSERT_NE(cache_.Find(1, 50, kTtl), nullptr);  // 1 is now the most recent
  cache_.Put(3, "c", 50);                        // so 2 is evicted
  EXPECT_EQ(evictions_, 1u);
  EXPECT_FALSE(Has(2, 50));
  // The hit at t=50 did not move 1's TTL anchor off t=0.
  EXPECT_NE(cache_.Find(1, kTtl, kTtl), nullptr);
  EXPECT_EQ(cache_.Find(1, kTtl + 1, kTtl), nullptr);
}

TEST_F(LruTtlCacheTest, PutOnExistingKeyRefreshesRecencyAndTtl) {
  cache_.set_capacity(2);
  cache_.Put(1, "a", 0);
  cache_.Put(2, "b", 10);
  cache_.Put(1, "a2", 60);  // overwrite: 1 becomes the most recent
  EXPECT_EQ(cache_.size(), 2u);
  EXPECT_EQ(evictions_, 0u);
  cache_.Put(3, "c", 60);  // evicts 2
  EXPECT_EQ(evictions_, 1u);
  EXPECT_FALSE(Has(2, 60));
  // The overwrite re-anchored 1's TTL at t=60 and replaced its value.
  std::string* v = cache_.Find(1, 60 + kTtl, kTtl);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, "a2");
}

TEST_F(LruTtlCacheTest, TtlExpiryDropsEntry) {
  cache_.Put(1, "a", 0);
  EXPECT_NE(cache_.Find(1, kTtl, kTtl), nullptr);
  EXPECT_EQ(cache_.Find(1, kTtl + 1, kTtl), nullptr);
  EXPECT_EQ(cache_.size(), 0u);
  EXPECT_EQ(evictions_, 0u);  // expiry is not a capacity eviction
}

TEST_F(LruTtlCacheTest, EraseAndUnboundedCapacity) {
  for (int k = 0; k < 100; k++) cache_.Put(k, "v", 0);  // capacity 0: unbounded
  EXPECT_EQ(cache_.size(), 100u);
  EXPECT_EQ(evictions_, 0u);
  cache_.Erase(7);
  cache_.Erase(1000);  // absent: no-op
  EXPECT_EQ(cache_.size(), 99u);
  EXPECT_FALSE(Has(7));
  cache_.set_capacity(99);
  cache_.Put(7, "v", 0);  // full: evicts 0, the least recently used
  EXPECT_EQ(evictions_, 1u);
  EXPECT_FALSE(Has(0));
  EXPECT_TRUE(Has(7));
}

TEST_F(LruTtlCacheTest, ChurnPastCapacityKeepsIndexAndRecencyInStep) {
  // Each insert into the full cache re-keys the evicted entry's nodes; many
  // rounds of that must keep evicting exactly the oldest key.
  cache_.set_capacity(3);
  for (int k = 1; k <= 20; k++) {
    std::string value = "v";
    value += std::to_string(k);
    cache_.Put(k, value, 0);
    EXPECT_EQ(cache_.size(), static_cast<size_t>(std::min(k, 3)));
    EXPECT_EQ(evictions_, static_cast<uint64_t>(std::max(k - 3, 0)));
  }
  for (int k = 1; k <= 17; k++) EXPECT_FALSE(Has(k)) << k;
  for (int k = 18; k <= 20; k++) {
    std::string* v = cache_.Find(k, 0, kTtl);
    ASSERT_NE(v, nullptr) << k;
    std::string want = "v";
    want += std::to_string(k);
    EXPECT_EQ(*v, want);
  }
}

}  // namespace
}  // namespace cfs::client
