// Unit + integration tests for the windowed health-telemetry layer
// (obs/timeseries.h, obs/health.h, the harness wiring in harness/cluster.h):
// ring-buffer windowing and exemplar retention, rate sampling, the
// gray-failure scorer's outlier rules and state machine, byte-stable dumps,
// and the end-to-end cluster path (observers -> series -> scorer ->
// heartbeat piggyback -> master health view).
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "obs/health.h"
#include "obs/timeseries.h"

namespace cfs::obs {
namespace {

// --- WindowedHistogram -------------------------------------------------------

TEST(WindowedHistogram, WindowsAddressedByAbsoluteIndex) {
  WindowedHistogram wh(1 * kSec, 4);
  wh.Observe(100, 500);           // window 0
  wh.Observe(1 * kSec + 1, 700);  // window 1
  wh.Observe(1 * kSec + 2, 900);  // window 1
  ASSERT_NE(wh.Find(0), nullptr);
  ASSERT_NE(wh.Find(1), nullptr);
  EXPECT_EQ(wh.Find(0)->hist.count, 1u);
  EXPECT_EQ(wh.Find(1)->hist.count, 2u);
  EXPECT_EQ(wh.Find(2), nullptr);
  EXPECT_EQ(wh.newest_window(), 1u);
  EXPECT_EQ(wh.total_samples(), 3u);
}

TEST(WindowedHistogram, OldWindowsEvictedByRingDepth) {
  WindowedHistogram wh(1 * kSec, 4);
  wh.Observe(100, 500);  // window 0
  // Jump far ahead: window 10 reuses window 0's ring slot.
  wh.Observe(10 * kSec + 1, 800);
  EXPECT_EQ(wh.Find(0), nullptr);
  ASSERT_NE(wh.Find(10), nullptr);
  EXPECT_EQ(wh.Find(10)->hist.count, 1u);
}

TEST(WindowedHistogram, ExemplarTracksWorstSamplePerWindow) {
  WindowedHistogram wh(1 * kSec, 4);
  wh.Observe(10, 500, /*trace_id=*/7);
  wh.Observe(20, 9000, /*trace_id=*/42);  // worst so far
  wh.Observe(30, 3000, /*trace_id=*/99);  // not worse: exemplar stays
  const HistWindow* w = wh.Find(0);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->worst_usec, 9000u);
  EXPECT_EQ(w->exemplar_trace, 42u);
  // A new window starts its own exemplar.
  wh.Observe(1 * kSec + 1, 100, /*trace_id=*/5);
  EXPECT_EQ(wh.Find(1)->exemplar_trace, 5u);
}

TEST(WindowedHistogram, ErrorsCountedSeparately) {
  WindowedHistogram wh(1 * kSec, 4);
  wh.Observe(10, 500);
  wh.CountError(20);
  wh.CountError(30);
  const HistWindow* w = wh.Find(0);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->hist.count, 1u);
  EXPECT_EQ(w->errors, 2u);
  EXPECT_EQ(wh.total_errors(), 2u);
}

// --- RateSeries --------------------------------------------------------------

TEST(RateSeries, FirstSampleSeedsThenDeltasPerWindow) {
  RateSeries rs(1 * kSec, 4);
  rs.Sample(100, 1000);            // seeds the baseline, delta 0
  rs.Sample(1 * kSec + 1, 1250);   // +250 lands in window 1
  rs.Sample(2 * kSec + 1, 1300);   // +50 lands in window 2
  EXPECT_EQ(rs.Delta(0), 0u);
  EXPECT_EQ(rs.Delta(1), 250u);
  EXPECT_EQ(rs.Delta(2), 50u);
}

// --- HealthScorer ------------------------------------------------------------

HealthOptions FastOptions() {
  HealthOptions o;
  // Keep the production thresholds (suspect_after=3, degraded_after=8,
  // recover_after=4) but drop the sample floors so tests can feed tiny
  // synthetic windows.
  o.min_samples = 4;
  o.min_error_ops = 4;
  return o;
}

// Feed window `w`: every cohort member gets `base` x8 samples, the target
// under test gets `target_usec` x8.
void FeedWindow(HealthScorer& s, uint64_t w, uint64_t target_usec,
                uint64_t base = 1000) {
  const SimTime t = static_cast<SimTime>(w) * kSec + 10;
  for (int i = 0; i < 8; i++) {
    s.Observe("disk", "a", t, base);
    s.Observe("disk", "b", t, base);
    s.Observe("disk", "c", t, target_usec);
  }
}

TEST(HealthScorer, EscalatesThroughSuspectToDegraded) {
  HealthScorer s(FastOptions());
  // 9 consecutive windows where c's p99 is 60x the cohort median.
  for (uint64_t w = 0; w < 9; w++) FeedWindow(s, w, 60000);
  s.Advance(10 * kSec);
  EXPECT_EQ(s.state("a"), HealthState::kHealthy);
  EXPECT_EQ(s.state("b"), HealthState::kHealthy);
  EXPECT_EQ(s.state("c"), HealthState::kDegraded);
  // Two transitions, in order: suspect at streak 3 (window 2), degraded at
  // streak 8 (window 7).
  ASSERT_EQ(s.events().size(), 2u);
  EXPECT_EQ(s.events()[0].to, HealthState::kSuspect);
  EXPECT_EQ(s.events()[0].window, 2u);
  EXPECT_EQ(s.events()[0].streak, 3u);
  EXPECT_EQ(s.events()[1].to, HealthState::kDegraded);
  EXPECT_EQ(s.events()[1].window, 7u);
  EXPECT_EQ(s.events()[1].streak, 8u);
  // The evidence rides the event: target p99 vs cohort median.
  EXPECT_GT(s.events()[0].p99_usec, s.events()[0].cohort_median_usec * 3);
  // FirstSuspectEvent finds the first upward crossing at/after a time.
  const HealthEvent* ev = s.FirstSuspectEvent("c", 0);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->window, 2u);
  EXPECT_EQ(s.FirstSuspectEvent("a", 0), nullptr);
}

TEST(HealthScorer, RecoversOneStateAtATime) {
  HealthScorer s(FastOptions());
  for (uint64_t w = 0; w < 9; w++) FeedWindow(s, w, 60000);
  s.Advance(9 * kSec);
  ASSERT_EQ(s.state("c"), HealthState::kDegraded);
  // 8 clean windows: step down to suspect after 4, to healthy after 4 more.
  for (uint64_t w = 9; w < 17; w++) FeedWindow(s, w, 1000);
  s.Advance(17 * kSec);
  EXPECT_EQ(s.state("c"), HealthState::kHealthy);
  ASSERT_EQ(s.events().size(), 4u);
  EXPECT_EQ(s.events()[2].to, HealthState::kSuspect);    // step-down 1
  EXPECT_EQ(s.events()[2].from, HealthState::kDegraded);
  EXPECT_EQ(s.events()[3].to, HealthState::kHealthy);    // step-down 2
}

TEST(HealthScorer, IdleWindowsFreezeStreaks) {
  HealthScorer s(FastOptions());
  FeedWindow(s, 0, 60000);
  FeedWindow(s, 1, 60000);  // streak 2, still healthy
  // Windows 2-3: c idle (a and b keep serving) — its streak must freeze,
  // not reset and not grow.
  for (uint64_t w = 2; w < 4; w++) {
    const SimTime t = static_cast<SimTime>(w) * kSec + 10;
    for (int i = 0; i < 8; i++) {
      s.Observe("disk", "a", t, 1000);
      s.Observe("disk", "b", t, 1000);
    }
  }
  FeedWindow(s, 4, 60000);  // streak 3 -> suspect
  s.Advance(5 * kSec);
  EXPECT_EQ(s.state("c"), HealthState::kSuspect);
  ASSERT_EQ(s.events().size(), 1u);
  EXPECT_EQ(s.events()[0].window, 4u);
}

TEST(HealthScorer, SmallCohortNeverLatencyScores) {
  // With only two members the cohort median is undefined (min_cohort=3):
  // no latency outlier can fire no matter how far the target detaches.
  HealthScorer s(FastOptions());
  for (uint64_t w = 0; w < 10; w++) {
    const SimTime t = static_cast<SimTime>(w) * kSec + 10;
    for (int i = 0; i < 8; i++) {
      s.Observe("disk", "a", t, 1000);
      s.Observe("disk", "c", t, 900000);
    }
  }
  s.Advance(11 * kSec);
  EXPECT_EQ(s.state("c"), HealthState::kHealthy);
  EXPECT_TRUE(s.events().empty());
}

TEST(HealthScorer, ErrorRateOutlierNeedsNoCohort) {
  // A target drowning in errors is sick even if its cohort is too small to
  // compare latencies (the whole-cohort-erroring case).
  HealthScorer s(FastOptions());
  for (uint64_t w = 0; w < 3; w++) {
    const SimTime t = static_cast<SimTime>(w) * kSec + 10;
    for (int i = 0; i < 6; i++) s.Observe("peer", "p", t, 1000);
    for (int i = 0; i < 2; i++) s.ObserveError("peer", "p", t);  // 25%
  }
  s.Advance(4 * kSec);
  EXPECT_EQ(s.state("p"), HealthState::kSuspect);
  ASSERT_EQ(s.events().size(), 1u);
  EXPECT_EQ(s.events()[0].errors, 2u);
}

TEST(HealthScorer, DeadIsStickyUntilMarkedAlive) {
  HealthScorer s(FastOptions());
  s.MarkDead("disk", "c", 5 * kSec);
  EXPECT_EQ(s.state("c"), HealthState::kDead);
  // Perfectly healthy traffic cannot resurrect it — only MarkAlive can.
  for (uint64_t w = 5; w < 15; w++) FeedWindow(s, w, 1000);
  s.Advance(16 * kSec);
  EXPECT_EQ(s.state("c"), HealthState::kDead);
  s.MarkAlive("disk", "c", 16 * kSec);
  EXPECT_EQ(s.state("c"), HealthState::kHealthy);
}

TEST(HealthScorer, AdvanceIsIdempotentPerWindow) {
  HealthScorer s(FastOptions());
  for (uint64_t w = 0; w < 4; w++) FeedWindow(s, w, 60000);
  s.Advance(4 * kSec);
  const size_t events = s.events().size();
  s.Advance(4 * kSec);  // same frontier: nothing rescored
  s.Advance(3 * kSec);  // going backwards: nothing rescored either
  EXPECT_EQ(s.events().size(), events);
}

TEST(HealthScorer, SummaryForFiltersByPrefix) {
  HealthScorer s(FastOptions());
  for (uint64_t w = 0; w < 4; w++) {
    const SimTime t = static_cast<SimTime>(w) * kSec + 10;
    for (int i = 0; i < 8; i++) {
      s.Observe("disk", "n0.disk0", t, 1000);
      s.Observe("disk", "n1.disk0", t, 1000);
      s.Observe("disk", "n2.disk0", t, 60000);  // the outlier
    }
  }
  s.Advance(5 * kSec);
  ASSERT_EQ(s.state("n2.disk0"), HealthState::kSuspect);
  NodeHealthSummary healthy_slice = s.SummaryFor("n0.");
  EXPECT_EQ(healthy_slice.tracked, 1u);
  EXPECT_EQ(healthy_slice.worst, 0u);
  EXPECT_TRUE(healthy_slice.unhealthy.empty());
  NodeHealthSummary sick_slice = s.SummaryFor("n2.");
  EXPECT_EQ(sick_slice.tracked, 1u);
  EXPECT_EQ(sick_slice.worst, static_cast<uint8_t>(HealthState::kSuspect));
  ASSERT_EQ(sick_slice.unhealthy.size(), 1u);
  EXPECT_EQ(sick_slice.unhealthy[0].target, "n2.disk0");
}

TEST(HealthScorer, IdenticallyFedScorersDumpIdenticalBytes) {
  auto feed = [](HealthScorer& s) {
    for (uint64_t w = 0; w < 6; w++) FeedWindow(s, w, 60000);
    s.Advance(7 * kSec);
  };
  HealthScorer s1(FastOptions()), s2(FastOptions());
  feed(s1);
  feed(s2);
  EXPECT_FALSE(s1.events().empty());
  EXPECT_EQ(s1.DumpJson(), s2.DumpJson());
  EXPECT_EQ(s1.DumpEventsJsonl(), s2.DumpEventsJsonl());
}

// --- Cluster integration -----------------------------------------------------

TEST(ClusterHealth, ObserversFeedSeriesScorerAndMasterView) {
  harness::ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = 7;
  opts.health = true;
  harness::Cluster cluster(opts);
  auto st = harness::RunTask(cluster.sched(), cluster.Start());
  ASSERT_TRUE(st && st->ok());
  st = harness::RunTask(cluster.sched(), cluster.CreateVolume("v", 3, 8));
  ASSERT_TRUE(st && st->ok());
  auto c = harness::RunTask(cluster.sched(), cluster.MountClient("v"));
  ASSERT_TRUE(c && c->ok());
  client::MountContext* client = (**c)->default_mount();
  for (int i = 0; i < 4; i++) {
    std::string name = "f";
    name += std::to_string(i);
    auto f = harness::RunTask(cluster.sched(),
                              client->Create(meta::kRootInode, name, meta::FileType::kFile));
    ASSERT_TRUE(f && f->ok());
    ASSERT_TRUE(harness::RunTask(cluster.sched(),
                                 client->Write((*f)->id, 0, std::string(256 * kKiB, 'h')))
                    ->ok());
  }
  cluster.sched().RunFor(3 * kSec);
  cluster.CollectAllNow();

  ASSERT_TRUE(cluster.health_enabled());
  // Disk observers filled the per-node write series (raft WAL writes at the
  // very least) and the rate collector sampled the counters.
  const WindowedHistogram* wr = cluster.node_series(0)->FindHist("disk.write_usec");
  ASSERT_NE(wr, nullptr);
  EXPECT_GT(wr->total_samples(), 0u);
  EXPECT_NE(cluster.node_series(0)->FindRate("disk.writes"), nullptr);
  // The shared scorer tracks cluster-wide targets with the node prefix.
  EXPECT_NE(cluster.health_scorer()->Series("n0.disk0"), nullptr);
  EXPECT_GT(cluster.health_scorer()->last_scored_window(), 0u);
  // Heartbeats piggybacked each node's slice into the master's view.
  std::string view = cluster.master_leader()->HealthViewJson();
  EXPECT_NE(view.find("\"health\""), std::string::npos);
  EXPECT_NE(view.find("\"scored_window\""), std::string::npos);
  // And the full dump carries every section.
  std::string json = cluster.HealthJson();
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"scorer\""), std::string::npos);
  EXPECT_NE(json.find("\"master\""), std::string::npos);
}

TEST(ClusterHealth, SlowDiskDetectedAgainstCrossNodeCohort) {
  // The in-vitro version of bench_health_gray_disk: run steady traffic, make
  // node 0's raft-WAL disk 8x slower, and watch the scorer cross
  // healthy -> suspect against the other nodes' equivalent disks.
  harness::ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = 9;
  opts.health = true;
  harness::Cluster cluster(opts);
  auto st = harness::RunTask(cluster.sched(), cluster.Start());
  ASSERT_TRUE(st && st->ok());
  st = harness::RunTask(cluster.sched(), cluster.CreateVolume("v", 3, 8));
  ASSERT_TRUE(st && st->ok());
  auto c = harness::RunTask(cluster.sched(), cluster.MountClient("v"));
  ASSERT_TRUE(c && c->ok());
  client::MountContext* client = (**c)->default_mount();
  auto f = harness::RunTask(
      cluster.sched(), client->Create(meta::kRootInode, "load", meta::FileType::kFile));
  ASSERT_TRUE(f && f->ok());

  // Steady writer: one 128 KiB overwrite per 50 ms keeps every raft WAL
  // (disk 0 on each node) busy enough to be latency-scorable each window.
  bool stop = false;
  sim::Spawn([](harness::Cluster* cl, client::MountContext* cli, uint64_t ino,
                bool* stop) -> sim::Task<void> {
    uint64_t i = 0;
    while (!*stop) {
      (void)co_await cli->Write(ino, (i++ % 8) * 128 * kKiB, std::string(128 * kKiB, 'w'));
      co_await sim::SleepFor{cl->sched(), 50 * kMsec};
    }
  }(&cluster, client, (*f)->id, &stop));

  cluster.sched().RunFor(4 * kSec);  // warm-up: a few clean windows
  const SimTime injected_at = cluster.sched().Now();
  cluster.node_host(0)->disk(0)->set_slow_factor(8);
  bool detected = false;
  for (int s = 0; s < 30 && !detected; s++) {
    cluster.sched().RunFor(1 * kSec);
    detected =
        cluster.health_scorer()->FirstSuspectEvent("n0.disk0", injected_at) != nullptr;
  }
  stop = true;
  cluster.sched().RunFor(1 * kSec);
  EXPECT_TRUE(detected) << cluster.health_scorer()->DumpJson();
  EXPECT_EQ(cluster.health_scorer()->state("n0.disk0"), HealthState::kSuspect);
}

}  // namespace
}  // namespace cfs::obs
