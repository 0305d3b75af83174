// In-memory B-tree used by meta partitions for the inodeTree and dentryTree
// (§2.1.1). Classic CLRS structure with configurable minimum degree;
// supports point lookup, insert, delete with rebalancing, and ordered range
// scans (ReadDir walks all dentries sharing a parent inode id).
//
// Leaves memoize the encoding of their pairs so a snapshot re-encodes only
// what changed since the last one (EncodeValues). A memo is a view: the
// (offset, length) of the leaf's bytes in the snapshot the tree was last
// encoded into, which the caller keeps anyway (MetaPartition shares it with
// the raft log store), so memos own no bytes. Every path that changes a
// node's values marks that node dirty; a clean leaf's view always equals a
// fresh encode of its pairs (MetaPartition::CheckInvariants verifies it).
//
// Nodes are dense (DESIGN.md "Meta B-tree node layout"). The right half of
// a split is sized once for kMaxKeys pairs and never reallocates; only the
// root grows by doubling, so small trees stay small. Inserts shift a full
// child's pairs into a left sibling with room before splitting it, so
// monotone inode ids, which always land in the rightmost leaf, leave full
// leaves behind them instead of half-full ones.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.h"

namespace cfs::meta {

template <typename K, typename V, typename Less = std::less<K>, size_t MinDegree = 16>
class BTree {
  static_assert(MinDegree >= 2, "B-tree minimum degree must be >= 2");

 public:
  BTree() : root_(std::make_unique<Node>()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    root_ = std::make_unique<Node>();  // fresh nodes start dirty
    size_ = 0;
  }

  /// Insert; returns false (and leaves the tree unchanged) if the key exists.
  bool Insert(K key, V value) {
    if (Find(key) != nullptr) return false;
    if (root_->keys.size() == kMaxKeys) {
      auto new_root = std::make_unique<Node>();
      new_root->kids.push_back(std::move(root_));
      SplitChild(new_root.get(), 0);
      root_ = std::move(new_root);
    }
    InsertNonFull(root_.get(), std::move(key), std::move(value));
    size_++;
    return true;
  }

  /// Insert or overwrite.
  void Upsert(K key, V value) {
    if (V* v = FindMutable(key)) {
      *v = std::move(value);
      return;
    }
    Insert(std::move(key), std::move(value));
  }

  const V* Find(const K& key) const {
    auto [n, i] = Locate(key);
    return n ? &n->vals[i] : nullptr;
  }

  /// Mutable lookup; the caller may change the value, so its node's memo
  /// is invalidated.
  V* FindMutable(const K& key) {
    auto [n, i] = Locate(key);
    if (!n) return nullptr;
    n->dirty = true;
    return &n->vals[i];
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Erase; returns false if the key was absent.
  bool Erase(const K& key) {
    if (Find(key) == nullptr) return false;
    EraseFrom(root_.get(), key);
    if (root_->keys.empty() && !root_->leaf()) {
      root_ = std::move(root_->kids[0]);
    }
    size_--;
    return true;
  }

  /// Visit pairs in key order starting at the first key >= `from`.
  /// `fn(key, value)` returns false to stop the scan.
  template <typename F>
  void AscendFrom(const K& from, F fn) const {
    bool keep_going = true;
    VisitFrom(root_.get(), from, fn, &keep_going);
  }

  /// Visit every pair in key order.
  template <typename F>
  void Ascend(F fn) const {
    bool keep_going = true;
    VisitAll(root_.get(), fn, &keep_going);
  }

  /// Append `encode(key, value, enc)` for every pair in key order,
  /// byte-identical to doing so through Ascend. A clean leaf copies its memo
  /// view out of `memos`; a dirty leaf is encoded fresh. Internal nodes hold
  /// ~1/MinDegree of the pairs and are encoded fresh. `memos` must be the
  /// bytes of the last adopting call (empty before the first), and every
  /// call must pass the same `encode`. With `adopt` the caller keeps what
  /// `enc` holds afterwards as the next `memos`, so every leaf's view moves
  /// there (offsets count from the start of `enc`) and no leaf is dirty;
  /// without it no memo state changes. The views are a cache (hence const).
  template <typename F>
  void EncodeValues(Encoder* enc, std::string_view memos, F encode, bool adopt) const {
    EncodeNode(root_.get(), enc, memos, encode, adopt);
  }

  /// Negative-test hook: leave the leftmost leaf's memo view one byte short
  /// of its pairs' encoding, as a missed invalidation would leave it stale.
  /// The leaf must be clean and non-empty.
  void CorruptLeafMemoForTest() {
    Node* n = root_.get();
    while (!n->leaf()) n = n->kids.front().get();
    assert(!n->dirty && n->memo_len > 0);
    n->memo_len--;
  }

  /// Structural invariant check (tests): every node except the root has at
  /// least MinDegree-1 keys, keys are ordered, leaves at equal depth.
  bool CheckInvariants() const {
    int leaf_depth = -1;
    return CheckNode(root_.get(), true, 0, &leaf_depth, nullptr, nullptr);
  }

  /// Node occupancy (tests): `slots` counts the pairs the nodes' vectors
  /// have room for; keys / slots is the fill factor.
  struct Occupancy {
    size_t nodes = 0;
    size_t keys = 0;
    size_t slots = 0;
  };
  Occupancy OccupancyForTest() const {
    Occupancy o;
    AddOccupancy(root_.get(), &o);
    return o;
  }

 private:
  static constexpr size_t kMaxKeys = 2 * MinDegree - 1;
  static constexpr size_t kMinKeys = MinDegree - 1;

  struct Node {
    std::vector<K> keys;
    std::vector<V> vals;
    std::vector<std::unique_ptr<Node>> kids;  // empty for leaves
    // Leaves only, valid while !dirty: where the encoding of the pairs sits
    // in the last adopted snapshot. Mutating paths set `dirty` on every node
    // whose values they change.
    mutable size_t memo_off = 0;
    mutable uint32_t memo_len = 0;
    mutable bool dirty = true;
    bool leaf() const { return kids.empty(); }
  };

  template <typename F>
  void EncodeNode(const Node* n, Encoder* enc, std::string_view memos, F& encode,
                  bool adopt) const {
    if (n->leaf()) {
      const size_t start = enc->size();
      if (n->dirty) {
        for (size_t i = 0; i < n->keys.size(); i++) encode(n->keys[i], n->vals[i], enc);
      } else {
        enc->PutBytes(memos.data() + n->memo_off, n->memo_len);
      }
      if (adopt) {
        n->memo_off = start;
        n->memo_len = static_cast<uint32_t>(enc->size() - start);
        n->dirty = false;
      }
      return;
    }
    for (size_t i = 0; i < n->vals.size(); i++) {
      EncodeNode(n->kids[i].get(), enc, memos, encode, adopt);
      encode(n->keys[i], n->vals[i], enc);
    }
    EncodeNode(n->kids.back().get(), enc, memos, encode, adopt);
  }

  /// The node holding `key` and its slot, or {nullptr, 0}.
  std::pair<Node*, size_t> Locate(const K& key) const {
    Node* n = root_.get();
    while (n) {
      size_t i = LowerBound(n, key);
      if (i < n->keys.size() && !less_(key, n->keys[i])) return {n, i};
      if (n->leaf()) break;
      n = n->kids[i].get();
    }
    return {nullptr, 0};
  }

  size_t LowerBound(const Node* n, const K& key) const {
    size_t lo = 0, hi = n->keys.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (less_(n->keys[mid], key)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void SplitChild(Node* parent, size_t i) {
    Node* child = parent->kids[i].get();
    // The right half gets room for a full node once and never reallocates.
    // (The root grows by doubling instead; it is full, hence has room for a
    // full node, when it splits and becomes a left half.)
    auto right = std::make_unique<Node>();
    right->keys.reserve(kMaxKeys);
    right->vals.reserve(kMaxKeys);
    if (!child->leaf()) right->kids.reserve(kMaxKeys + 1);
    // Middle key moves up; right half moves to the new sibling.
    right->keys.assign(std::make_move_iterator(child->keys.begin() + MinDegree),
                       std::make_move_iterator(child->keys.end()));
    right->vals.assign(std::make_move_iterator(child->vals.begin() + MinDegree),
                       std::make_move_iterator(child->vals.end()));
    K mid_key = std::move(child->keys[MinDegree - 1]);
    V mid_val = std::move(child->vals[MinDegree - 1]);
    child->keys.resize(MinDegree - 1);
    child->vals.resize(MinDegree - 1);
    if (!child->leaf()) {
      right->kids.assign(std::make_move_iterator(child->kids.begin() + MinDegree),
                         std::make_move_iterator(child->kids.end()));
      child->kids.resize(MinDegree);
    }
    parent->keys.insert(parent->keys.begin() + i, std::move(mid_key));
    parent->vals.insert(parent->vals.begin() + i, std::move(mid_val));
    parent->kids.insert(parent->kids.begin() + i + 1, std::move(right));
    child->dirty = parent->dirty = true;  // `right` is new, hence dirty
  }

  void InsertNonFull(Node* n, K key, V value) {
    while (true) {
      size_t i = LowerBound(n, key);
      if (n->leaf()) {
        n->keys.insert(n->keys.begin() + i, std::move(key));
        n->vals.insert(n->vals.begin() + i, std::move(value));
        n->dirty = true;
        return;
      }
      if (n->kids[i]->keys.size() == kMaxKeys && i > 0 &&
          n->kids[i - 1]->keys.size() < kMaxKeys) {
        ShiftLeft(n, i);
        i = LowerBound(n, key);
      }
      if (n->kids[i]->keys.size() == kMaxKeys) {
        SplitChild(n, i);
        if (less_(n->keys[i], key)) i++;
      }
      n = n->kids[i].get();
    }
  }

  /// Shift before split (B*-style): move the first pairs of the full
  /// kids[i] into its left sibling through the separator. Each shift moves
  /// half the sibling's free room (at least one pair), so a run of inserts
  /// into kids[i] shifts O(log MinDegree) times before the sibling is full
  /// and kids[i] splits. The sibling is not the root, so its free room is at
  /// most MinDegree and kids[i] keeps at least kMinKeys keys.
  void ShiftLeft(Node* n, size_t i) {
    Node* left = n->kids[i - 1].get();
    Node* child = n->kids[i].get();
    const size_t m = (kMaxKeys - left->keys.size() + 1) / 2;
    left->keys.push_back(std::move(n->keys[i - 1]));
    left->vals.push_back(std::move(n->vals[i - 1]));
    left->keys.insert(left->keys.end(), std::make_move_iterator(child->keys.begin()),
                      std::make_move_iterator(child->keys.begin() + (m - 1)));
    left->vals.insert(left->vals.end(), std::make_move_iterator(child->vals.begin()),
                      std::make_move_iterator(child->vals.begin() + (m - 1)));
    n->keys[i - 1] = std::move(child->keys[m - 1]);
    n->vals[i - 1] = std::move(child->vals[m - 1]);
    child->keys.erase(child->keys.begin(), child->keys.begin() + m);
    child->vals.erase(child->vals.begin(), child->vals.begin() + m);
    if (!child->leaf()) {
      left->kids.insert(left->kids.end(), std::make_move_iterator(child->kids.begin()),
                        std::make_move_iterator(child->kids.begin() + m));
      child->kids.erase(child->kids.begin(), child->kids.begin() + m);
    }
    child->dirty = left->dirty = n->dirty = true;
  }

  /// Merge kids[i], keys[i] and kids[i+1] into kids[i]. The result has
  /// exactly kMaxKeys keys, which kids[i] already has room for: it is the
  /// right half of a split or was a full root.
  void MergeChildren(Node* n, size_t i) {
    Node* left = n->kids[i].get();
    Node* right = n->kids[i + 1].get();
    left->keys.push_back(std::move(n->keys[i]));
    left->vals.push_back(std::move(n->vals[i]));
    for (auto& k : right->keys) left->keys.push_back(std::move(k));
    for (auto& v : right->vals) left->vals.push_back(std::move(v));
    for (auto& c : right->kids) left->kids.push_back(std::move(c));
    n->keys.erase(n->keys.begin() + i);
    n->vals.erase(n->vals.begin() + i);
    n->kids.erase(n->kids.begin() + i + 1);
    left->dirty = n->dirty = true;
  }

  /// Ensure kids[i] has at least MinDegree keys before descending into it.
  /// Returns the (possibly shifted) child index to descend into.
  size_t FixChild(Node* n, size_t i) {
    if (n->kids[i]->keys.size() >= MinDegree) return i;
    if (i > 0 && n->kids[i - 1]->keys.size() >= MinDegree) {
      // Borrow from the left sibling through the separator.
      Node* child = n->kids[i].get();
      Node* left = n->kids[i - 1].get();
      child->keys.insert(child->keys.begin(), std::move(n->keys[i - 1]));
      child->vals.insert(child->vals.begin(), std::move(n->vals[i - 1]));
      n->keys[i - 1] = std::move(left->keys.back());
      n->vals[i - 1] = std::move(left->vals.back());
      left->keys.pop_back();
      left->vals.pop_back();
      if (!left->leaf()) {
        child->kids.insert(child->kids.begin(), std::move(left->kids.back()));
        left->kids.pop_back();
      }
      child->dirty = left->dirty = n->dirty = true;
      return i;
    }
    if (i + 1 < n->kids.size() && n->kids[i + 1]->keys.size() >= MinDegree) {
      // Borrow from the right sibling.
      Node* child = n->kids[i].get();
      Node* right = n->kids[i + 1].get();
      child->keys.push_back(std::move(n->keys[i]));
      child->vals.push_back(std::move(n->vals[i]));
      n->keys[i] = std::move(right->keys.front());
      n->vals[i] = std::move(right->vals.front());
      right->keys.erase(right->keys.begin());
      right->vals.erase(right->vals.begin());
      if (!right->leaf()) {
        child->kids.push_back(std::move(right->kids.front()));
        right->kids.erase(right->kids.begin());
      }
      child->dirty = right->dirty = n->dirty = true;
      return i;
    }
    // Merge with a sibling.
    if (i + 1 < n->kids.size()) {
      MergeChildren(n, i);
      return i;
    }
    MergeChildren(n, i - 1);
    return i - 1;
  }

  void EraseFrom(Node* n, const K& key) {
    size_t i = LowerBound(n, key);
    if (i < n->keys.size() && !less_(key, n->keys[i])) {
      if (n->leaf()) {
        n->keys.erase(n->keys.begin() + i);
        n->vals.erase(n->vals.begin() + i);
        n->dirty = true;
        return;
      }
      if (n->kids[i]->keys.size() >= MinDegree) {
        ReplaceWithPredecessor(n, i);
        return;
      }
      if (n->kids[i + 1]->keys.size() >= MinDegree) {
        ReplaceWithSuccessor(n, i);
        return;
      }
      MergeChildren(n, i);
      EraseFrom(n->kids[i].get(), key);
      return;
    }
    if (n->leaf()) return;  // not found (caller pre-checked, defensive)
    i = FixChild(n, i);
    // After fixing, the key may have moved into kids[i] via merge; the
    // standard descent handles it because separators stay ordered.
    size_t j = LowerBound(n, key);
    if (j < n->keys.size() && !less_(key, n->keys[j])) {
      EraseFrom(n, key);  // separator became the key after rotation
      return;
    }
    EraseFrom(n->kids[j].get(), key);
  }

  /// Delete-by-predecessor: kids[i] has >= MinDegree keys. The predecessor
  /// must be removed along a balanced path, so descend with FixChild.
  void ReplaceWithPredecessor(Node* n, size_t i) {
    Node* cur = n->kids[i].get();
    while (!cur->leaf()) {
      size_t last = FixChild(cur, cur->kids.size() - 1);
      cur = cur->kids[last].get();
    }
    n->keys[i] = cur->keys.back();
    n->vals[i] = std::move(cur->vals.back());
    cur->keys.pop_back();
    cur->vals.pop_back();
    cur->dirty = n->dirty = true;
  }

  /// Mirror of ReplaceWithPredecessor: kids[i+1] has >= MinDegree keys.
  void ReplaceWithSuccessor(Node* n, size_t i) {
    Node* cur = n->kids[i + 1].get();
    while (!cur->leaf()) {
      size_t first = FixChild(cur, 0);
      cur = cur->kids[first].get();
    }
    n->keys[i] = cur->keys.front();
    n->vals[i] = std::move(cur->vals.front());
    cur->keys.erase(cur->keys.begin());
    cur->vals.erase(cur->vals.begin());
    cur->dirty = n->dirty = true;
  }

  template <typename F>
  void VisitAll(const Node* n, F& fn, bool* keep_going) const {
    for (size_t i = 0; i < n->keys.size() && *keep_going; i++) {
      if (!n->leaf()) VisitAll(n->kids[i].get(), fn, keep_going);
      if (*keep_going && !fn(n->keys[i], n->vals[i])) *keep_going = false;
    }
    if (*keep_going && !n->leaf()) VisitAll(n->kids.back().get(), fn, keep_going);
  }

  template <typename F>
  void VisitFrom(const Node* n, const K& from, F& fn, bool* keep_going) const {
    size_t i = LowerBound(n, from);
    if (!n->leaf()) VisitFrom(n->kids[i].get(), from, fn, keep_going);
    for (size_t j = i; j < n->keys.size() && *keep_going; j++) {
      if (!fn(n->keys[j], n->vals[j])) {
        *keep_going = false;
        return;
      }
      if (!n->leaf()) VisitAll(n->kids[j + 1].get(), fn, keep_going);
    }
  }

  bool CheckNode(const Node* n, bool is_root, int depth, int* leaf_depth, const K* lo,
                 const K* hi) const {
    if (!is_root && n->keys.size() < kMinKeys) return false;
    if (n->keys.size() > kMaxKeys) return false;
    for (size_t i = 0; i + 1 < n->keys.size(); i++) {
      if (!less_(n->keys[i], n->keys[i + 1])) return false;
    }
    if (lo && !n->keys.empty() && !less_(*lo, n->keys.front())) return false;
    if (hi && !n->keys.empty() && !less_(n->keys.back(), *hi)) return false;
    if (n->leaf()) {
      if (*leaf_depth == -1) *leaf_depth = depth;
      return *leaf_depth == depth;
    }
    if (n->kids.size() != n->keys.size() + 1) return false;
    for (size_t i = 0; i < n->kids.size(); i++) {
      const K* clo = i == 0 ? lo : &n->keys[i - 1];
      const K* chi = i == n->keys.size() ? hi : &n->keys[i];
      if (!CheckNode(n->kids[i].get(), false, depth + 1, leaf_depth, clo, chi)) return false;
    }
    return true;
  }

  void AddOccupancy(const Node* n, Occupancy* o) const {
    o->nodes++;
    o->keys += n->keys.size();
    o->slots += std::max(n->keys.capacity(), n->vals.capacity());
    for (const auto& kid : n->kids) AddOccupancy(kid.get(), o);
  }

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  Less less_;
};

}  // namespace cfs::meta
