// B-tree unit + randomized property tests (checked against std::map).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/buffer.h"
#include "common/codec.h"
#include "common/rng.h"
#include "meta/btree.h"

namespace cfs::meta {
namespace {

TEST(BTreeTest, EmptyTree) {
  BTree<int, int> t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.Find(1), nullptr);
  EXPECT_FALSE(t.Erase(1));
  EXPECT_TRUE(t.CheckInvariants());
}

TEST(BTreeTest, InsertFindSingle) {
  BTree<int, std::string> t;
  EXPECT_TRUE(t.Insert(5, "five"));
  ASSERT_NE(t.Find(5), nullptr);
  EXPECT_EQ(*t.Find(5), "five");
  EXPECT_EQ(t.Find(4), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(BTreeTest, DuplicateInsertRejected) {
  BTree<int, int> t;
  EXPECT_TRUE(t.Insert(1, 10));
  EXPECT_FALSE(t.Insert(1, 20));
  EXPECT_EQ(*t.Find(1), 10);
  EXPECT_EQ(t.size(), 1u);
}

TEST(BTreeTest, UpsertOverwrites) {
  BTree<int, int> t;
  t.Upsert(1, 10);
  t.Upsert(1, 20);
  EXPECT_EQ(*t.Find(1), 20);
  EXPECT_EQ(t.size(), 1u);
}

TEST(BTreeTest, SequentialInsertCausesSplits) {
  BTree<int, int, std::less<int>, 2> t;  // tiny degree: splits early
  for (int i = 0; i < 1000; i++) EXPECT_TRUE(t.Insert(i, i * 2));
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_TRUE(t.CheckInvariants());
  for (int i = 0; i < 1000; i++) {
    ASSERT_NE(t.Find(i), nullptr) << i;
    EXPECT_EQ(*t.Find(i), i * 2);
  }
}

TEST(BTreeTest, ReverseInsert) {
  BTree<int, int, std::less<int>, 3> t;
  for (int i = 999; i >= 0; i--) EXPECT_TRUE(t.Insert(i, i));
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_EQ(t.size(), 1000u);
}

TEST(BTreeTest, EraseLeafAndInternal) {
  BTree<int, int, std::less<int>, 2> t;
  for (int i = 0; i < 100; i++) t.Insert(i, i);
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(t.Erase(i));
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_EQ(t.size(), 50u);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(t.Find(i) != nullptr, i % 2 == 1) << i;
  }
}

TEST(BTreeTest, EraseAllThenReuse) {
  BTree<int, int, std::less<int>, 2> t;
  for (int i = 0; i < 256; i++) t.Insert(i, i);
  for (int i = 0; i < 256; i++) EXPECT_TRUE(t.Erase(i)) << i;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.CheckInvariants());
  for (int i = 0; i < 64; i++) EXPECT_TRUE(t.Insert(i, -i));
  EXPECT_EQ(t.size(), 64u);
}

TEST(BTreeTest, AscendVisitsInOrder) {
  BTree<int, int, std::less<int>, 2> t;
  for (int i : {5, 3, 8, 1, 9, 2, 7, 4, 6, 0}) t.Insert(i, i * i);
  std::vector<int> seen;
  t.Ascend([&](const int& k, const int& v) {
    EXPECT_EQ(v, k * k);
    seen.push_back(k);
    return true;
  });
  for (int i = 0; i < 10; i++) EXPECT_EQ(seen[i], i);
}

TEST(BTreeTest, AscendFromStartsAtLowerBound) {
  BTree<int, int, std::less<int>, 2> t;
  for (int i = 0; i < 100; i += 2) t.Insert(i, i);  // evens only
  std::vector<int> seen;
  t.AscendFrom(31, [&](const int& k, const int&) {
    seen.push_back(k);
    return seen.size() < 5;
  });
  EXPECT_EQ(seen, (std::vector<int>{32, 34, 36, 38, 40}));
}

TEST(BTreeTest, AscendEarlyStop) {
  BTree<int, int> t;
  for (int i = 0; i < 1000; i++) t.Insert(i, i);
  int count = 0;
  t.Ascend([&](const int&, const int&) { return ++count < 10; });
  EXPECT_EQ(count, 10);
}

TEST(BTreeTest, StringKeysWithRangeScan) {
  // Mirrors the dentryTree use: (parent, name) keys scanned per parent.
  BTree<std::pair<uint64_t, std::string>, int> t;
  t.Insert({1, "a"}, 1);
  t.Insert({1, "b"}, 2);
  t.Insert({2, "a"}, 3);
  t.Insert({2, "z"}, 4);
  t.Insert({3, "m"}, 5);
  std::vector<int> parent2;
  t.AscendFrom({2, ""}, [&](const auto& k, const int& v) {
    if (k.first != 2) return false;
    parent2.push_back(v);
    return true;
  });
  EXPECT_EQ(parent2, (std::vector<int>{3, 4}));
}

// The leaf-memoized encoding (what snapshots ship) against a fresh in-order
// encode of the same pairs. `memos` holds the last adopted encoding; with
// `adopt` this one replaces it, as a snapshot the caller keeps would.
template <typename Tree>
::testing::AssertionResult MemoMatchesFresh(const Tree& tree, Buffer* memos, bool adopt) {
  auto encode = [](uint64_t k, uint64_t v, Encoder* e) {
    e->PutVarint(k);
    e->PutVarint(v);
  };
  Encoder memo, fresh;
  tree.EncodeValues(&memo, memos->view(), encode, adopt);
  tree.Ascend([&](const uint64_t& k, const uint64_t& v) {
    encode(k, v, &fresh);
    return true;
  });
  if (adopt) *memos = Buffer::CopyOf(memo.data());
  if (memo.data() == fresh.data()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "memoized encoding (" << memo.size() << " B) differs from a fresh one ("
         << fresh.size() << " B)";
}

// How ChurnAgainstModel picks keys. kRandom draws every key from the key
// space. kAppend inserts strictly increasing keys, as a partition allocates
// inode ids, so every insert lands in the rightmost leaf; the other ops
// probe keys at random. kFifo inserts the same way and erases the smallest
// live key: a window sliding right, as files are created and deleted.
enum class KeyPattern { kRandom, kAppend, kFifo };

// Drives `tree` and a std::map model through the same inserts, erases,
// finds, FindMutable edits, upserts and periodic clears, and checks every
// op's result against the model. The memo and the structural invariants are
// checked after every step, so any path that changes a node's values
// (splits, shifts, merges, borrows from either sibling, predecessor/successor
// takes) without invalidating the node's memo, or that leaves a node short
// of keys, fails at the step that did it.
template <typename Tree>
void ChurnAgainstModel(Tree& tree, uint64_t seed, uint64_t key_space, int steps,
                       int clear_every, KeyPattern pattern = KeyPattern::kRandom) {
  Rng rng(seed);
  std::map<uint64_t, uint64_t> model;
  Buffer memos;  // leaves stay clean across steps that do not adopt
  uint64_t next_key = 0;  // kAppend / kFifo: the next key to insert
  for (int step = 1; step <= steps; step++) {
    uint64_t key = 0;
    if (pattern == KeyPattern::kRandom) {
      key = rng.Uniform(key_space);
    } else {
      uint64_t lo = model.empty() ? next_key : model.begin()->first;
      key = lo + rng.Uniform(next_key - lo + 1);
    }
    uint64_t value = static_cast<uint64_t>(step);
    switch (rng.Uniform(10)) {
      case 0: case 1: case 2: case 3: {  // insert
        if (pattern != KeyPattern::kRandom) key = next_key++;
        bool inserted = tree.Insert(key, value);
        bool model_inserted = model.emplace(key, value).second;
        ASSERT_EQ(inserted, model_inserted) << "step " << step;
        break;
      }
      case 4: case 5: case 6:  // erase
        if (pattern == KeyPattern::kFifo && !model.empty()) key = model.begin()->first;
        ASSERT_EQ(tree.Erase(key), model.erase(key) > 0) << "step " << step;
        break;
      case 7: {  // find
        const uint64_t* v = tree.Find(key);
        auto it = model.find(key);
        ASSERT_EQ(v != nullptr, it != model.end()) << "step " << step;
        if (v) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      case 8: {  // in-place edit
        uint64_t* v = tree.FindMutable(key);
        auto it = model.find(key);
        ASSERT_EQ(v != nullptr, it != model.end()) << "step " << step;
        if (v) *v = it->second = value;
        break;
      }
      case 9:  // upsert
        tree.Upsert(key, value);
        model[key] = value;
        break;
    }
    if (step % clear_every == 0) {
      tree.Clear();
      model.clear();
    }
    ASSERT_TRUE(MemoMatchesFresh(tree, &memos, /*adopt=*/step % 3 == 0)) << "step " << step;
    ASSERT_TRUE(tree.CheckInvariants()) << "step " << step;
    ASSERT_EQ(tree.size(), model.size()) << "step " << step;
  }
  // Full-order comparison.
  auto it = model.begin();
  bool order_ok = true;
  tree.Ascend([&](const uint64_t& k, const uint64_t& v) {
    if (it == model.end() || it->first != k || it->second != v) {
      order_ok = false;
      return false;
    }
    ++it;
    return true;
  });
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(it, model.end());
}

class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, MatchesStdMapUnderRandomOps) {
  BTree<uint64_t, uint64_t, std::less<uint64_t>, 3> tree;  // small degree: deep tree
  ChurnAgainstModel(tree, GetParam(), /*key_space=*/500, /*steps=*/20000,
                    /*clear_every=*/7000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest, ::testing::Values(1, 2, 3, 7, 13, 99));

TEST(BTreePropertyTest, LargeDegreeRandomChurn) {
  BTree<uint64_t, uint64_t> tree;  // default degree 16
  ChurnAgainstModel(tree, 4242, /*key_space=*/2000, /*steps=*/30000, /*clear_every=*/12000);
}

// Monotone appends and FIFO churn: the meta partitions' real key patterns,
// which drive every insert through the shift-before-split path.
template <size_t Degree>
void AppendAndFifoChurn(int steps, int clear_every) {
  for (KeyPattern pattern : {KeyPattern::kAppend, KeyPattern::kFifo}) {
    SCOPED_TRACE(pattern == KeyPattern::kAppend ? "append" : "fifo");
    BTree<uint64_t, uint64_t, std::less<uint64_t>, Degree> tree;
    ChurnAgainstModel(tree, 77, /*key_space=*/0, steps, clear_every, pattern);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BTreePropertyTest, AppendAndFifoChurnDegree2) { AppendAndFifoChurn<2>(20000, 7000); }
TEST(BTreePropertyTest, AppendAndFifoChurnDegree3) { AppendAndFifoChurn<3>(20000, 7000); }
TEST(BTreePropertyTest, AppendAndFifoChurnDegree16) { AppendAndFifoChurn<16>(30000, 12000); }

// Inode ids grow monotonically, so the inode tree only ever appends, and
// the nodes it leaves behind must be nearly full.
TEST(BTreeFootprintTest, MonotoneInsertsFillNodes) {
  BTree<uint64_t, uint64_t> tree;  // degree 16, as the meta partitions use
  for (uint64_t i = 0; i < 10000; i++) ASSERT_TRUE(tree.Insert(i, i));
  ASSERT_TRUE(tree.CheckInvariants());
  auto o = tree.OccupancyForTest();
  EXPECT_EQ(o.keys, 10000u);
  EXPECT_GE(static_cast<double>(o.keys) / static_cast<double>(o.slots), 0.9)
      << o.nodes << " nodes, " << o.slots << " slots";
}

// A tree too small to split is one root leaf that grows by doubling: it
// pays for at most twice its entries, never for a full-capacity node up
// front.
TEST(BTreeFootprintTest, SmallTreeGrowsByDoubling) {
  constexpr size_t kMaxKeys = 2 * 16 - 1;
  BTree<uint64_t, uint64_t> tree;
  EXPECT_EQ(tree.OccupancyForTest().slots, 0u);
  for (uint64_t i = 1; i < kMaxKeys; i++) {
    ASSERT_TRUE(tree.Insert(i, i));
    auto o = tree.OccupancyForTest();
    ASSERT_EQ(o.nodes, 1u);
    ASSERT_LE(o.slots, 2 * i) << i << " entries";
  }
}

}  // namespace
}  // namespace cfs::meta
