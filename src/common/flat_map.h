// Sorted-vector associative containers for the simulator's hot point-lookup
// maps (DESIGN.md "Simulator performance").
//
// std::map's node-per-entry layout costs an allocation per insert and a
// pointer chase per comparison; the hot registries this replaces (RPC
// handler tables, router leader caches, extent directories, partition sets)
// are small-to-medium, point-looked-up on every message or IO, and mutated
// comparatively rarely — the classic flat-map regime. Keys stay sorted, so
// iteration order is identical to std::map and the determinism lint's
// no-unordered rule (R2 of `python3 -m tools.analyze`) is satisfied by
// construction.
//
// Deliberately a subset of the std::map interface (what the converted call
// sites use): find/contains/count, operator[], insert_or_assign, erase,
// lower_bound, ordered iteration. Iterators invalidate on mutation, like
// any vector.
#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace cfs {

template <typename K, typename V, typename Compare = std::less<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return v_.begin(); }
  iterator end() { return v_.end(); }
  const_iterator begin() const { return v_.begin(); }
  const_iterator end() const { return v_.end(); }

  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }
  void reserve(size_t n) { v_.reserve(n); }

  template <typename Key>
  iterator lower_bound(const Key& k) {
    return std::lower_bound(v_.begin(), v_.end(), k,
                            [this](const value_type& e, const Key& key) {
                              return cmp_(e.first, key);
                            });
  }
  template <typename Key>
  const_iterator lower_bound(const Key& k) const {
    return std::lower_bound(v_.begin(), v_.end(), k,
                            [this](const value_type& e, const Key& key) {
                              return cmp_(e.first, key);
                            });
  }

  template <typename Key>
  iterator find(const Key& k) {
    iterator it = lower_bound(k);
    return (it != v_.end() && !cmp_(k, it->first)) ? it : v_.end();
  }
  template <typename Key>
  const_iterator find(const Key& k) const {
    const_iterator it = lower_bound(k);
    return (it != v_.end() && !cmp_(k, it->first)) ? it : v_.end();
  }

  template <typename Key>
  bool contains(const Key& k) const {
    return find(k) != v_.end();
  }
  template <typename Key>
  size_t count(const Key& k) const {
    return contains(k) ? 1 : 0;
  }

  V& operator[](const K& k) {
    iterator it = lower_bound(k);
    if (it != v_.end() && !cmp_(k, it->first)) return it->second;
    return v_.emplace(it, k, V{})->second;
  }
  V& operator[](K&& k) {
    iterator it = lower_bound(k);
    if (it != v_.end() && !cmp_(k, it->first)) return it->second;
    return v_.emplace(it, std::move(k), V{})->second;
  }

  /// std::map::emplace shape: no-op if the key is present.
  template <typename Key, typename Val>
  std::pair<iterator, bool> emplace(Key&& k, Val&& val) {
    iterator it = lower_bound(k);
    if (it != v_.end() && !cmp_(k, it->first)) return {it, false};
    return {v_.emplace(it, std::forward<Key>(k), std::forward<Val>(val)), true};
  }

  template <typename Key, typename Val>
  std::pair<iterator, bool> insert_or_assign(Key&& k, Val&& val) {
    iterator it = lower_bound(k);
    if (it != v_.end() && !cmp_(k, it->first)) {
      it->second = std::forward<Val>(val);
      return {it, false};
    }
    return {v_.emplace(it, std::forward<Key>(k), std::forward<Val>(val)), true};
  }

  template <typename Key>
  size_t erase(const Key& k) {
    iterator it = find(k);
    if (it == v_.end()) return 0;
    v_.erase(it);
    return 1;
  }
  iterator erase(iterator it) { return v_.erase(it); }

 private:
  std::vector<value_type> v_;
  [[no_unique_address]] Compare cmp_;
};

template <typename K, typename Compare = std::less<K>>
class FlatSet {
 public:
  using const_iterator = typename std::vector<K>::const_iterator;

  const_iterator begin() const { return v_.begin(); }
  const_iterator end() const { return v_.end(); }
  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }

  bool insert(const K& k) {
    auto it = std::lower_bound(v_.begin(), v_.end(), k, cmp_);
    if (it != v_.end() && !cmp_(k, *it)) return false;
    v_.insert(it, k);
    return true;
  }
  size_t erase(const K& k) {
    auto it = std::lower_bound(v_.begin(), v_.end(), k, cmp_);
    if (it == v_.end() || cmp_(k, *it)) return 0;
    v_.erase(it);
    return 1;
  }
  bool contains(const K& k) const {
    auto it = std::lower_bound(v_.begin(), v_.end(), k, cmp_);
    return it != v_.end() && !cmp_(k, *it);
  }
  size_t count(const K& k) const { return contains(k) ? 1 : 0; }

 private:
  std::vector<K> v_;
  [[no_unique_address]] Compare cmp_;
};

}  // namespace cfs
