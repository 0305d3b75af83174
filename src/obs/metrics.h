// Unified metric primitives: counters, gauges, and fixed-bucket histograms
// in one Registry with deterministic (std::map) iteration, dumpable as JSON.
//
// Every sim::Host owns one Registry, and every component running on that
// host (RPC channels and stubs, raft, admission queues, the client) writes
// into it directly; harness::Cluster::Metrics() merges the host registries
// (DESIGN.md "Unified metric registry"). Hot paths resolve a metric once
// through Counter()/Gauge()/Hist() and keep the reference: std::map nodes
// never move, so the reference stays valid across later inserts and merges.
//
// Naming convention: dot-separated "<subsystem>.<metric>", e.g.
// "raft.gc.batches", "client.cache_hits", "rpc.WritePacket.ok". Counters are
// monotonic sums, gauges merge by taking the max (cluster-wide
// high-watermark semantics).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/units.h"

namespace cfs::obs {

/// Fixed-bucket histogram (bucket upper bounds in virtual microseconds,
/// geometric-ish ladder from 100us to 5s, plus overflow).
struct Histogram {
  static constexpr uint64_t kBounds[] = {100,    200,     500,     1000,   2000,
                                         5000,   10000,   20000,   50000,  100000,
                                         200000, 500000,  1000000, 2000000, 5000000};
  static constexpr int kNumBounds = static_cast<int>(sizeof(kBounds) / sizeof(kBounds[0]));

  uint64_t buckets[kNumBounds + 1] = {};  // last = overflow
  uint64_t count = 0;
  uint64_t sum_usec = 0;
  uint64_t max_usec = 0;

  void Add(SimDuration v);
  void MergeFrom(const Histogram& other);

  /// Interpolated quantile estimate, q in [0, 1]. Linear interpolation
  /// within the bucket containing the q-th sample. Edge behavior (pinned by
  /// tests/obs_test.cc "QuantileEdges"):
  ///   * empty histogram -> 0;
  ///   * q == 0 -> the lower edge of the first non-empty bucket;
  ///   * count == 1 -> a value inside the sample's bucket, never above the
  ///     sample itself (the final min() clamps to max_usec);
  ///   * the q-th sample lands in the overflow bucket -> interpolation uses
  ///     max_usec as the bucket's upper edge (no sample exceeded it; the
  ///     max(lo, ...) guard keeps the edge sane even though any overflow
  ///     sample must already exceed the last bound), so the estimate stays
  ///     within (last bound, max_usec].
  double Quantile(double q) const;
  /// Integer bucket-resolution quantile: the upper edge of the bucket
  /// containing the ceil(count*q_num/q_den)-th sample (max_usec for the
  /// overflow bucket, 0 when empty). No floating point — byte-stable across
  /// platforms, so health scoring and its event log are built on this.
  uint64_t QuantileUpperBound(uint32_t q_num, uint32_t q_den) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  /// {"count":n,"sum_usec":n,"max_usec":n,"buckets":[...]}
  std::string DumpJson() const;
};

/// Counters + gauges + histograms keyed by name. All maps are ordered so
/// DumpJson() is byte-stable across same-seed runs.
class Registry {
 public:
  /// Stable references, created (zeroed) on first use: resolve once, then
  /// update in place. Valid for the registry's lifetime.
  uint64_t& Counter(std::string_view name);
  int64_t& Gauge(std::string_view name);
  Histogram& Hist(std::string_view name);

  /// Increment counter `name` by `delta`.
  void Add(std::string_view name, uint64_t delta = 1) { Counter(name) += delta; }
  /// Set gauge `name` (last-write-wins locally; merges take the max).
  void Set(std::string_view name, int64_t value) { Gauge(name) = value; }
  /// Raise gauge `name` to at least `value` (high-watermark).
  void SetMax(std::string_view name, int64_t value);
  /// Add one sample to histogram `name`.
  void Observe(std::string_view name, SimDuration value) { Hist(name).Add(value); }

  uint64_t counter(std::string_view name) const;
  /// Sum of the counters named "<prefix>...<suffix>", e.g. every RPC type's
  /// timeouts: SumCounters("rpc.", ".timeout").
  uint64_t SumCounters(std::string_view prefix, std::string_view suffix) const;
  int64_t gauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  const std::map<std::string, uint64_t, std::less<>>& counters() const { return counters_; }
  const std::map<std::string, int64_t, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const { return hists_; }

  /// Counters sum, gauges max, histograms bucket-wise sum.
  void MergeFrom(const Registry& other);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} — stable key order.
  std::string DumpJson() const;

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, int64_t, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> hists_;
};

}  // namespace cfs::obs
