#include "obs/metrics.h"

#include <algorithm>

namespace cfs::obs {

constexpr uint64_t Histogram::kBounds[];

void Histogram::Add(SimDuration latency_usec) {
  uint64_t v = latency_usec < 0 ? 0 : static_cast<uint64_t>(latency_usec);
  int b = 0;
  while (b < kNumBounds && v > kBounds[b]) b++;
  buckets[b]++;
  count++;
  sum_usec += v;
  if (v > max_usec) max_usec = v;
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int i = 0; i <= kNumBounds; i++) buckets[i] += other.buckets[i];
  count += other.count;
  sum_usec += other.sum_usec;
  if (other.max_usec > max_usec) max_usec = other.max_usec;
}

double Histogram::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  uint64_t cum = 0;
  for (int i = 0; i <= kNumBounds; i++) {
    if (buckets[i] == 0) continue;
    const uint64_t next = cum + buckets[i];
    if (rank <= static_cast<double>(next)) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(kBounds[i - 1]);
      // Overflow bucket: we know no sample exceeded max_usec, so use it as
      // the upper edge instead of pretending the bucket is unbounded.
      const double hi = i < kNumBounds
                            ? static_cast<double>(kBounds[i])
                            : std::max(lo, static_cast<double>(max_usec));
      const double frac = (rank - static_cast<double>(cum)) / static_cast<double>(buckets[i]);
      const double v = lo + frac * (hi - lo);
      return std::min(v, static_cast<double>(max_usec));
    }
    cum = next;
  }
  return static_cast<double>(max_usec);
}

uint64_t Histogram::QuantileUpperBound(uint32_t q_num, uint32_t q_den) const {
  if (count == 0 || q_den == 0) return 0;
  // ceil(count * q_num / q_den), clamped to [1, count]: the rank of the
  // sample whose bucket's upper edge we report.
  uint64_t rank = (count * q_num + q_den - 1) / q_den;
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t cum = 0;
  for (int i = 0; i < kNumBounds; i++) {
    cum += buckets[i];
    if (rank <= cum) return kBounds[i];
  }
  return max_usec;  // overflow bucket: no sample exceeded the observed max
}

std::string Histogram::DumpJson() const {
  std::string out = "{\"count\":" + std::to_string(count) +
                    ",\"sum_usec\":" + std::to_string(sum_usec) +
                    ",\"max_usec\":" + std::to_string(max_usec) + ",\"buckets\":[";
  for (int i = 0; i <= kNumBounds; i++) {
    if (i) out += ",";
    out += std::to_string(buckets[i]);
  }
  out += "]}";
  return out;
}

namespace {

// Transparent find first: the hit path must not materialize a std::string.
template <typename Map>
typename Map::mapped_type& FindOrInsert(Map& m, std::string_view name) {
  auto it = m.find(name);
  if (it == m.end()) it = m.emplace(std::string(name), typename Map::mapped_type{}).first;
  return it->second;
}

}  // namespace

uint64_t& Registry::Counter(std::string_view name) { return FindOrInsert(counters_, name); }
int64_t& Registry::Gauge(std::string_view name) { return FindOrInsert(gauges_, name); }
Histogram& Registry::Hist(std::string_view name) { return FindOrInsert(hists_, name); }

void Registry::SetMax(std::string_view name, int64_t value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else if (value > it->second) {
    it->second = value;
  }
}

uint64_t Registry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

uint64_t Registry::SumCounters(std::string_view prefix, std::string_view suffix) const {
  uint64_t n = 0;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    const std::string& k = it->first;
    if (!k.starts_with(prefix)) break;
    if (k.size() >= prefix.size() + suffix.size() && k.ends_with(suffix)) n += it->second;
  }
  return n;
}

int64_t Registry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const Histogram* Registry::FindHistogram(std::string_view name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

void Registry::MergeFrom(const Registry& other) {
  for (const auto& [k, v] : other.counters_) Add(k, v);
  for (const auto& [k, v] : other.gauges_) SetMax(k, v);
  for (const auto& [k, h] : other.hists_) Hist(k).MergeFrom(h);
}

std::string Registry::DumpJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + k + "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + k + "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [k, h] : hists_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + k + "\":" + h.DumpJson();
  }
  out += "}}";
  return out;
}

}  // namespace cfs::obs
