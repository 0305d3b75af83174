// Full-cluster harness: brings up the resource manager (3 replicas), N
// storage nodes each running a meta node and a data node (the paper deploys
// both on the same 10 machines, §4.1), wires heartbeats and the deleted-
// inode content purger, and hands out mounted clients.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/check.h"
#include "datanode/data_node.h"
#include "master/master.h"
#include "meta/meta_node.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "raft/multiraft.h"
#include "rpc/router.h"
#include "rpc/service.h"
#include "sim/network.h"

namespace cfs::harness {

struct ClusterOptions {
  int num_nodes = 10;   // storage machines (meta + data on each, §4.1)
  int num_masters = 3;  // resource manager replicas
  uint64_t seed = 1;
  sim::NetworkOptions network;
  sim::HostOptions host;
  raft::RaftOptions raft;
  meta::MetaNodeOptions meta;
  data::DataNodeOptions data;
  master::MasterOptions master;
  client::ClientOptions client;
  SimDuration heartbeat_interval = 1 * kSec;
  /// Extent stores keep real bytes (tests) or account only (benches).
  bool track_contents = true;
  /// Enable the deterministic span tracer (obs::Tracer). Off by default:
  /// tracing never perturbs the schedule either way, but the span log costs
  /// memory proportional to traffic.
  bool trace = false;
  /// Enable windowed health telemetry (DESIGN.md "Health telemetry"): a
  /// per-node obs::TimeSeries plus one cluster-wide obs::HealthScorer, both
  /// filled by passive observers on disks, chain channels and meta execs,
  /// sampled and scored from each node's HeartbeatLoop, with each node's
  /// slice of the scorer piggybacked on its heartbeat. The scorer is
  /// cluster-wide because its cohorts must span nodes: in this simulation
  /// (as in a raft-heavy deployment) one disk per node carries most of the
  /// traffic, so a disk's only comparable peers are the *other nodes'*
  /// equivalently-loaded disks, not its mostly-idle siblings.
  /// Schedule-neutral by construction — no events are added either way
  /// (tests/determinism_test.cc pins it).
  bool health = false;
  obs::HealthOptions health_opts;
};

/// Per-node health telemetry: the windowed time-series store, fed by passive
/// observers and sampled at the node's heartbeat cadence. (Scoring state
/// lives in the cluster-wide HealthScorer owned by the Cluster.)
struct NodeHealth {
  obs::TimeSeries series;
  explicit NodeHealth(const obs::TimeSeriesOptions& ts) : series(ts) {}
};

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& opts = {});

  sim::Scheduler& sched() { return sched_; }
  sim::Network& net() { return net_; }
  const ClusterOptions& options() const { return opts_; }

  /// Bring the cluster up: elect the master leader, register every node,
  /// start heartbeats.
  sim::Task<Status> Start();

  /// Create a volume and wait until every partition has a raft leader.
  /// `qos` carries the per-volume limits and fair-share weight (defaults =
  /// unlimited, weight 1 — schedule-identical to the pre-QoS encoding).
  sim::Task<Status> CreateVolume(std::string name, uint32_t meta_partitions,
                                 uint32_t data_partitions,
                                 master::VolumeQos qos = {});

  /// Allocate a new client machine mounted on `volume`.
  sim::Task<Result<client::Client*>> MountClient(std::string volume);

  /// Multi-tenant client machine: one client host with one MountContext per
  /// named volume (the first becomes the default mount).
  sim::Task<Result<client::Client*>> MountClient(std::vector<std::string> volumes);

  /// Unmount every volume of `c`: its refresh loops stop at their next
  /// wakeup and further ops fail Unavailable. The client object stays owned
  /// by the cluster (detached coroutines may still land on the retired
  /// contexts) and keeps contributing its accumulated metrics.
  void UnmountClient(client::Client* c) { c->UnmountAll(); }

  // Accessors.
  master::MasterNode* master(int i) { return masters_[i].get(); }
  master::MasterNode* master_leader();
  meta::MetaNode* meta_node(int i) { return meta_nodes_[i].get(); }
  data::DataNode* data_node(int i) { return data_nodes_[i].get(); }
  sim::Host* node_host(int i) { return node_hosts_[i]; }
  sim::Host* master_host(int i) { return master_hosts_[i]; }
  raft::RaftHost* raft_host_of(int i) { return raft_hosts_[i].get(); }
  int num_nodes() const { return static_cast<int>(node_hosts_.size()); }
  std::vector<sim::NodeId> master_ids() const { return master_ids_; }

  /// Crash/restart storage node i (with full recovery: raft groups, extent
  /// alignment, CRC cache rebuild).
  void CrashNode(int i);
  sim::Task<void> RestartNode(int i);

  /// Direct (harness-level) lookup used by the purge wiring and tests.
  std::vector<sim::NodeId> DataPartitionReplicas(data::PartitionId pid);
  bool AllPartitionsHaveLeaders();
  /// Leader check scoped to one volume's partitions (CreateVolume's wait).
  bool VolumePartitionsHaveLeaders(master::VolumeId volume);

  /// The scheduler-owned span tracer (enabled iff ClusterOptions.trace).
  obs::Tracer& tracer() { return sched_.tracer(); }

  // Health telemetry (enabled iff ClusterOptions.health).
  bool health_enabled() const { return health_scorer_ != nullptr; }
  obs::TimeSeries* node_series(int i) {
    return health_enabled() ? &node_health_[i]->series : nullptr;
  }
  /// The cluster-wide gray-failure scorer (targets "n<i>.disk<d>" in cohort
  /// "disk", "n<i>.peer<id>" in cohort "peer").
  obs::HealthScorer* health_scorer() { return health_scorer_.get(); }
  /// Force a collection + scoring pass on every node at the current virtual
  /// time (tests/benches flush pending windows before dumping).
  void CollectAllNow();
  /// Cluster-wide health dump: {"nodes":{"<i>":{"series":…}},"scorer":…,
  /// "master":<leader HealthViewJson or null>} — byte-stable.
  std::string HealthJson();
  /// The scorer's health-event log, one JSON object per line (log order;
  /// targets carry the node prefix, so lines are self-describing).
  std::string HealthEventsJsonl() const;

  /// Cluster-wide metrics (DESIGN.md "Unified metric registry"): the merge
  /// of every host's registry ("rpc.*" legs, "raft.*", "client.*",
  /// "router.*", "qos.*", "tenant.*") plus device and wire accounting read
  /// from the simulator ("disk.*" over master and storage hosts, "net.*",
  /// "obs.spans"). Counters sum, gauges merge as high-watermarks,
  /// histograms merge bucket-wise.
  obs::Registry Metrics();
  std::string MetricsJson() { return Metrics().DumpJson(); }

  /// Deep check of every machine-checkable invariant in the cluster (see
  /// common/check.h and DESIGN.md "Invariant catalog"): per-group raft
  /// invariants across replicas, per-partition local checks (extent store,
  /// chain bookkeeping, meta trees), cross-replica data agreement (every
  /// replica holds at least the chain leader's committed prefix; byte-level
  /// CRC agreement when two replicas are equally applied), and volume-wide
  /// dentry->inode referential integrity with nlink accounting. Replicas on
  /// crashed hosts are skipped — their in-memory state is stale by design
  /// and is rebuilt on restart. Call between scheduler events at scenario
  /// checkpoints and at the end of every integration/fault test.
  InvariantReport CheckInvariants();

  // Convenience for tests: run the scheduler until `pred` is true or the
  // step budget runs out. Returns pred().
  template <typename Pred>
  bool RunUntil(Pred pred, SimDuration step = 10 * kMsec, int max_steps = 3000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) return true;
      sched_.RunFor(step);
    }
    return pred();
  }

 private:
  sim::Task<void> HeartbeatLoop(int node_index);
  meta::MetaNode::ExtentPurger MakePurger(int node_index);
  sim::Task<Status> PurgeInodeContent(int node_index, meta::Inode inode);
  void WireHealth();
  void CollectNode(int node_index);

  ClusterOptions opts_;
  sim::Scheduler sched_;
  sim::Network net_;
  // Harness-side rpc service layer: one Router shared by the admin/GC paths
  // (master leader cache + purge-path partition views) and one DataService
  // per storage node (the purger sends from that node's host).
  std::unique_ptr<rpc::Router> router_;
  std::unique_ptr<rpc::Channel> channel_;
  std::vector<std::unique_ptr<rpc::DataService>> purge_svcs_;
  std::vector<sim::Host*> master_hosts_;
  std::vector<sim::Host*> node_hosts_;
  std::vector<sim::NodeId> master_ids_;
  std::vector<std::unique_ptr<raft::RaftHost>> raft_hosts_;        // one per host
  std::vector<std::unique_ptr<master::MasterNode>> masters_;
  std::vector<std::unique_ptr<meta::MetaNode>> meta_nodes_;
  std::vector<std::unique_ptr<data::DataNode>> data_nodes_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::vector<std::string> volumes_;
  std::vector<std::unique_ptr<NodeHealth>> node_health_;  // empty unless opts.health
  std::unique_ptr<obs::HealthScorer> health_scorer_;      // null unless opts.health
};

/// Determinism-auditor harness mode: run `scenario` twice against freshly
/// constructed clusters with identical options (hence identical seeds) and
/// return both trace hashes. The scenario owns the whole run — boot, client
/// traffic, crashes — and the caller fails the test when the hashes diverge,
/// which pins down iteration-order or wall-clock nondeterminism the moment a
/// change introduces it. Hashes are only comparable within one process (see
/// sim/scheduler.h), which holds here because both runs share it.
template <typename Scenario>
std::pair<uint64_t, uint64_t> AuditDeterminism(const ClusterOptions& opts,
                                               Scenario scenario) {
  auto once = [&]() {
    Cluster cluster(opts);
    scenario(cluster);
    return cluster.sched().trace_hash();
  };
  uint64_t first = once();
  uint64_t second = once();
  return {first, second};
}

/// Run a coroutine to completion on the scheduler (test helper). The
/// scheduler may have periodic background events; we bound the event count.
template <typename T>
std::optional<T> RunTask(sim::Scheduler& sched, sim::Task<T> task,
                         uint64_t max_events = 50'000'000) {
  std::optional<T> out;
  sim::Spawn([](sim::Task<T> t, std::optional<T>& out) -> sim::Task<void> {
    out = co_await std::move(t);
  }(std::move(task), out));
  for (uint64_t i = 0; i < max_events && !out.has_value(); i++) {
    if (!sched.RunOne()) break;
  }
  return out;
}

/// Void-task variant of RunTask; returns true if the task completed.
inline bool RunTaskVoid(sim::Scheduler& sched, sim::Task<void> task,
                        uint64_t max_events = 50'000'000) {
  bool done = false;
  sim::Spawn([](sim::Task<void> t, bool& done) -> sim::Task<void> {
    co_await std::move(t);
    done = true;
  }(std::move(task), done));
  for (uint64_t i = 0; i < max_events && !done; i++) {
    if (!sched.RunOne()) break;
  }
  return done;
}

}  // namespace cfs::harness
