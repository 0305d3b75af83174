// Unit tests for the observability layer (src/obs/): histogram quantile
// interpolation edge cases, registry merge semantics and dump stability,
// tracer span bookkeeping, and the trace-analysis helpers benches rely on
// for their stage_breakdown lines.
#include <gtest/gtest.h>

#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cfs::obs {
namespace {

// --- Histogram quantiles -----------------------------------------------------

TEST(Histogram, EmptyQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.P50(), 0.0);
  EXPECT_EQ(h.P95(), 0.0);
  EXPECT_EQ(h.P99(), 0.0);
  EXPECT_EQ(h.count, 0u);
}

TEST(Histogram, SingleSampleAllQuantilesInItsBucket) {
  Histogram h;
  h.Add(150);  // bucket (100, 200]
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.max_usec, 150u);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    double v = h.Quantile(q);
    // q=0 returns the bucket's lower edge; everything stays within (the
    // sample's bucket bounds, clamped to the observed max].
    EXPECT_GE(v, 100.0) << "q=" << q;
    EXPECT_LE(v, 200.0) << "q=" << q;
  }
}

TEST(Histogram, SingleBucketInterpolatesWithinBounds) {
  Histogram h;
  for (int i = 0; i < 100; i++) h.Add(1500);  // all in (1000, 2000]
  double p50 = h.P50(), p95 = h.P95(), p99 = h.P99();
  EXPECT_GT(p50, 1000.0);
  EXPECT_LE(p99, 2000.0);
  // Interpolation is monotone in q.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(Histogram, QuantilesOrderedAcrossBuckets) {
  Histogram h;
  for (int i = 0; i < 90; i++) h.Add(80);      // <= 100
  for (int i = 0; i < 9; i++) h.Add(15000);    // (10000, 20000]
  h.Add(450000);                               // (200000, 500000]
  EXPECT_LE(h.P50(), 100.0);
  EXPECT_GT(h.P95(), 10000.0);
  EXPECT_LE(h.P95(), 20000.0);
  // rank(0.99) = 99 of 100 lands exactly at the top of the middle bucket;
  // only a strictly higher rank crosses into the outlier's bucket.
  EXPECT_LE(h.P99(), 20000.0);
  EXPECT_GT(h.Quantile(0.995), 200000.0);
  EXPECT_LE(h.Quantile(0.995), 450000.0);
}

TEST(Histogram, OverflowBucketClampsToObservedMax) {
  Histogram h;
  const uint64_t huge = 9'000'000;  // past the last bound (5s)
  h.Add(huge);
  h.Add(huge + 500);
  // Every quantile lands in the overflow bucket, whose upper edge is the
  // observed max (no sample exceeded it), not infinity.
  EXPECT_GT(h.P50(), static_cast<double>(Histogram::kBounds[Histogram::kNumBounds - 1]));
  EXPECT_LE(h.P99(), static_cast<double>(huge + 500));
  EXPECT_EQ(h.max_usec, huge + 500);
}

TEST(Histogram, MergePreservesCountSumMax) {
  Histogram a, b;
  a.Add(100);
  a.Add(300);
  b.Add(7000);
  a.MergeFrom(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum_usec, 7400u);
  EXPECT_EQ(a.max_usec, 7000u);
}

// Pins the edge behavior documented on Histogram::Quantile and its integer
// sibling QuantileUpperBound (the health scorer's byte-stable p99).
TEST(Histogram, QuantileEdges) {
  // Empty: both forms return 0 for every q.
  Histogram empty;
  EXPECT_EQ(empty.Quantile(0.0), 0.0);
  EXPECT_EQ(empty.Quantile(1.0), 0.0);
  EXPECT_EQ(empty.QuantileUpperBound(99, 100), 0u);

  // q == 0 -> lower edge of the first non-empty bucket.
  Histogram h;
  h.Add(1500);  // bucket (1000, 2000]
  EXPECT_EQ(h.Quantile(0.0), 1000.0);

  // count == 1 -> never above the sample itself.
  EXPECT_LE(h.Quantile(1.0), 1500.0);
  // Integer form reports the bucket's upper edge, by design one bucket
  // coarser than the interpolated estimate.
  EXPECT_EQ(h.QuantileUpperBound(50, 100), 2000u);
  EXPECT_EQ(h.QuantileUpperBound(99, 100), 2000u);

  // Rank arithmetic: ceil(count * q) with the rank clamped to [1, count].
  Histogram r;
  for (int i = 0; i < 99; i++) r.Add(80);  // <= 100
  r.Add(15000);                            // (10000, 20000]
  // ceil(100 * 0.99) = 99 -> still the low bucket; 0.995 crosses over.
  EXPECT_EQ(r.QuantileUpperBound(99, 100), 100u);
  EXPECT_EQ(r.QuantileUpperBound(995, 1000), 20000u);
  EXPECT_EQ(r.QuantileUpperBound(0, 100), 100u);  // rank clamps up to 1

  // Overflow bucket -> observed max, not infinity and not the last bound.
  Histogram o;
  o.Add(9'000'000);
  EXPECT_EQ(o.QuantileUpperBound(99, 100), 9'000'000u);
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, CountersSumGaugesHighWatermark) {
  Registry r;
  r.Add("x.ops", 3);
  r.Add("x.ops", 4);
  r.SetMax("x.depth", 5);
  r.SetMax("x.depth", 2);  // lower: ignored
  EXPECT_EQ(r.counter("x.ops"), 7u);
  EXPECT_EQ(r.gauge("x.depth"), 5);
}

TEST(Registry, MergeFromCombinesAllKinds) {
  Registry a, b;
  a.Add("c", 1);
  b.Add("c", 2);
  a.SetMax("g", 10);
  b.SetMax("g", 20);
  a.Observe("h", 100);
  b.Observe("h", 5000);
  a.MergeFrom(b);
  EXPECT_EQ(a.counter("c"), 3u);
  EXPECT_EQ(a.gauge("g"), 20);
  const Histogram* h = a.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->max_usec, 5000u);
}

TEST(Registry, DumpJsonIsByteStableAndSorted) {
  auto build = []() {
    Registry r;
    r.Add("z.last", 1);
    r.Add("a.first", 2);
    r.Set("m.gauge", 7);
    r.Observe("lat", 123);
    return r.DumpJson();
  };
  std::string once = build(), twice = build();
  EXPECT_EQ(once, twice);
  // Ordered maps: "a.first" serializes before "z.last".
  EXPECT_LT(once.find("a.first"), once.find("z.last"));
  EXPECT_NE(once.find("\"counters\""), std::string::npos);
  EXPECT_NE(once.find("\"gauges\""), std::string::npos);
  EXPECT_NE(once.find("\"histograms\""), std::string::npos);
}

// Hot paths resolve a metric once and keep the reference; later inserts and
// merges must neither move it nor detach it from the registry.
TEST(Registry, ReferencesSurviveInsertsAndMerge) {
  Registry r;
  uint64_t& c = r.Counter("m.count");
  int64_t& g = r.Gauge("m.gauge");
  Histogram& h = r.Hist("m.hist");
  c += 2;
  g = 5;
  h.Add(300);
  for (int i = 0; i < 1000; i++) {
    const std::string k = std::to_string(i);
    r.Add("a." + k);
    r.Set("m." + k, i);
    r.Observe("z." + k, i);
  }
  Registry other;
  other.Add("m.count", 3);
  other.SetMax("m.gauge", 9);
  other.Observe("m.hist", 7000);
  other.Add("new.key", 1);
  r.MergeFrom(other);

  EXPECT_EQ(&r.Counter("m.count"), &c);
  EXPECT_EQ(&r.Gauge("m.gauge"), &g);
  EXPECT_EQ(&r.Hist("m.hist"), &h);
  c++;  // writes through the old reference land in the registry
  EXPECT_EQ(r.counter("m.count"), 6u);
  EXPECT_EQ(r.gauge("m.gauge"), 9);
  ASSERT_NE(r.FindHistogram("m.hist"), nullptr);
  EXPECT_EQ(r.FindHistogram("m.hist")->count, 2u);
  EXPECT_EQ(r.counter("new.key"), 1u);
}

TEST(Registry, SumCountersMatchesPrefixAndSuffix) {
  Registry r;
  r.Add("rpc.A.ok", 2);
  r.Add("rpc.B.ok", 3);
  r.Add("rpc.B.timeout", 7);
  r.Add("rpcx.C.ok", 100);  // different prefix
  r.Add("zzz.ok", 100);
  EXPECT_EQ(r.SumCounters("rpc.", ".ok"), 5u);
  EXPECT_EQ(r.SumCounters("rpc.", ".timeout"), 7u);
  EXPECT_EQ(r.SumCounters("rpc.", ".missing"), 0u);
}

// --- Tracer ------------------------------------------------------------------

TEST(Tracer, DisabledMintsNothing) {
  SimTime now = 0;
  Tracer t(1, &now);
  SpanRef root = t.BeginTrace("op:test", 0);
  EXPECT_FALSE(root.valid());
  EXPECT_FALSE(root.ctx.valid());
  t.Note(root, "k", 1);  // all no-ops
  t.End(root);
  EXPECT_EQ(t.num_spans(), 0u);
  EXPECT_EQ(t.DumpLog(), "");
}

TEST(Tracer, UntracedParentPropagatesAsNoop) {
  SimTime now = 0;
  Tracer t(1, &now);
  t.set_enabled(true);
  TraceContext untraced;  // zero trace id
  SpanRef child = t.BeginSpan("rpc:Leg", untraced, 3);
  EXPECT_FALSE(child.valid());
  EXPECT_EQ(t.num_spans(), 0u);
}

TEST(Tracer, SpanTreeCarriesTimesNodesAndNotes) {
  SimTime now = 100;
  Tracer t(42, &now);
  t.set_enabled(true);
  SpanRef root = t.BeginTrace("op:write", 0);
  ASSERT_TRUE(root.valid());
  now = 150;
  SpanRef child = t.BeginSpan("rpc:WritePacket", root.ctx, 7);
  ASSERT_TRUE(child.valid());
  t.Note(child, "bytes", 4096);
  now = 180;
  t.End(child);
  now = 200;
  t.End(root);

  ASSERT_EQ(t.num_spans(), 2u);
  const Span& r = t.spans()[0];
  const Span& c = t.spans()[1];
  EXPECT_EQ(r.parent_id, 0u);
  EXPECT_EQ(c.trace_id, r.trace_id);
  EXPECT_EQ(c.parent_id, r.span_id);
  EXPECT_EQ(c.node, 7u);
  EXPECT_EQ(r.start, 100);
  EXPECT_EQ(r.end, 200);
  EXPECT_EQ(c.start, 150);
  EXPECT_EQ(c.end, 180);
  ASSERT_EQ(c.notes.size(), 1u);
  EXPECT_EQ(c.notes[0].first, "bytes");
  EXPECT_EQ(c.notes[0].second, 4096);
}

TEST(Tracer, SameSeedSameIds) {
  SimTime now = 0;
  Tracer a(9, &now), b(9, &now);
  a.set_enabled(true);
  b.set_enabled(true);
  SpanRef ra = a.BeginTrace("op:x", 0);
  SpanRef rb = b.BeginTrace("op:x", 0);
  EXPECT_EQ(ra.ctx.trace_id, rb.ctx.trace_id);
  EXPECT_EQ(a.DumpLog(), b.DumpLog());
}

TEST(SpanScope, ClosesOnDestructionAndMove) {
  SimTime now = 10;
  Tracer t(5, &now);
  t.set_enabled(true);
  {
    SpanScope scope(&t, t.BeginTrace("op:scoped", 0));
    scope.Note("n", 1);
    now = 30;
  }
  ASSERT_EQ(t.num_spans(), 1u);
  EXPECT_EQ(t.spans()[0].end, 30);

  SpanScope a(&t, t.BeginTrace("op:moved", 0));
  SpanScope b = std::move(a);
  now = 50;
  b = SpanScope();  // move-assign closes the span
  EXPECT_EQ(t.spans()[1].end, 50);
}

// --- Analysis ----------------------------------------------------------------

TEST(Analysis, StageBreakdownGroupsByNameAndComputesCoverage) {
  SimTime now = 0;
  Tracer t(3, &now);
  t.set_enabled(true);
  SpanRef root = t.BeginTrace("op:write", 0);
  now = 10;
  SpanRef s1 = t.BeginSpan("disk:write", root.ctx, 1);
  now = 40;
  t.End(s1);
  SpanRef s2 = t.BeginSpan("disk:write", root.ctx, 2);
  now = 60;
  t.End(s2);
  now = 100;
  t.End(root);

  TraceBreakdown bd = StageBreakdown(t, root.ctx.trace_id);
  EXPECT_EQ(bd.trace_id, root.ctx.trace_id);
  EXPECT_EQ(bd.root_name, "op:write");
  EXPECT_EQ(bd.total_usec, 100);
  ASSERT_EQ(bd.stages.count("disk:write"), 1u);
  EXPECT_EQ(bd.stages.at("disk:write").count, 2u);
  EXPECT_EQ(bd.stages.at("disk:write").sum_usec, 50);
  EXPECT_EQ(bd.stages.at("disk:write").max_usec, 30);
  EXPECT_DOUBLE_EQ(bd.Coverage(), 0.5);
  std::string json = bd.DumpJson();
  EXPECT_NE(json.find("\"root\":\"op:write\""), std::string::npos);
  EXPECT_NE(json.find("\"disk:write\""), std::string::npos);
}

TEST(Analysis, FindLastTracePicksMostRecentMatchingRoot) {
  SimTime now = 0;
  Tracer t(4, &now);
  t.set_enabled(true);
  SpanRef first = t.BeginTrace("op:write", 0);
  t.End(first);
  SpanRef other = t.BeginTrace("op:read", 0);
  t.End(other);
  SpanRef second = t.BeginTrace("op:write", 0);
  t.End(second);
  EXPECT_EQ(FindLastTrace(t, "op:write"), second.ctx.trace_id);
  EXPECT_EQ(FindLastTrace(t, "op:read"), other.ctx.trace_id);
  EXPECT_EQ(FindLastTrace(t, "op:create"), 0u);
}

TEST(Analysis, MissingTraceYieldsEmptyBreakdown) {
  SimTime now = 0;
  Tracer t(6, &now);
  TraceBreakdown bd = StageBreakdown(t, 12345);
  EXPECT_EQ(bd.trace_id, 0u);
  EXPECT_EQ(bd.Coverage(), 0.0);
}

}  // namespace
}  // namespace cfs::obs
