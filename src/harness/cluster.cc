#include "harness/cluster.h"

#include <sstream>

#include "common/logging.h"
#include "raft/invariants.h"

namespace cfs::harness {

using sim::Spawn;
using sim::Task;

Cluster::Cluster(const ClusterOptions& opts) : opts_(opts), sched_(opts.seed), net_(&sched_, opts.network) {
  sched_.tracer().set_enabled(opts.trace);
  // Master hosts first, then storage nodes (ids are assigned in order).
  for (int i = 0; i < opts_.num_masters; i++) {
    sim::Host* h = net_.AddHost(opts_.host);
    master_hosts_.push_back(h);
    master_ids_.push_back(h->id());
    raft_hosts_.push_back(std::make_unique<raft::RaftHost>(&net_, h, opts_.raft));
  }
  for (int i = 0; i < opts_.num_nodes; i++) {
    sim::HostOptions ho = opts_.host;
    ho.disk.capacity_bytes = opts_.host.disk.capacity_bytes;
    sim::Host* h = net_.AddHost(ho);
    node_hosts_.push_back(h);
    raft_hosts_.push_back(std::make_unique<raft::RaftHost>(&net_, h, opts_.raft));
  }
  for (int i = 0; i < opts_.num_masters; i++) {
    masters_.push_back(std::make_unique<master::MasterNode>(
        &net_, master_hosts_[i], raft_hosts_[i].get(), master_ids_, opts_.master));
  }
  for (int i = 0; i < opts_.num_nodes; i++) {
    raft::RaftHost* rh = raft_hosts_[opts_.num_masters + i].get();
    meta_nodes_.push_back(
        std::make_unique<meta::MetaNode>(&net_, node_hosts_[i], rh, opts_.meta));
    data::DataNodeOptions dopts = opts_.data;
    dopts.track_contents = opts_.track_contents;
    data_nodes_.push_back(
        std::make_unique<data::DataNode>(&net_, node_hosts_[i], rh, dopts));
    meta_nodes_.back()->set_extent_purger(MakePurger(i));
  }
  // The shared admin/GC router counts on the first master host, where
  // volume administration is issued from.
  router_ = std::make_unique<rpc::Router>(&sched_, master_ids_, master_hosts_[0]->metrics());
  channel_ = std::make_unique<rpc::Channel>(&net_);
  for (int i = 0; i < opts_.num_nodes; i++) {
    purge_svcs_.push_back(
        std::make_unique<rpc::DataService>(&net_, node_hosts_[i]->id(), router_.get()));
  }
  if (opts_.health) WireHealth();
}

void Cluster::WireHealth() {
  // All hooks below are plain std::function observers invoked synchronously
  // from the instrumented code — they never create scheduler events, so the
  // schedule with health on is byte-identical to health off.
  obs::TimeSeriesOptions ts;
  ts.window_usec = opts_.health_opts.window_usec;
  ts.num_windows = opts_.health_opts.num_windows;
  health_scorer_ = std::make_unique<obs::HealthScorer>(opts_.health_opts);
  obs::HealthScorer* scorer = health_scorer_.get();
  for (int i = 0; i < opts_.num_nodes; i++) {
    node_health_.push_back(std::make_unique<NodeHealth>(ts));
    NodeHealth* nh = node_health_.back().get();
    sim::Host* h = node_hosts_[i];
    // Disks: one scorer target per device, cohort "disk". The cohort spans
    // the whole cluster on purpose: raft pins its WAL to disk 0 of every
    // host, so within one node only a single disk carries steady traffic
    // and a node-local cohort would never reach min_cohort scorable
    // members. Across nodes the equivalently-loaded disks form a real
    // population, and a gray disk detaches from their median.
    for (int d = 0; d < h->num_disks(); d++) {
      std::string target = "n" + std::to_string(i) + ".disk" + std::to_string(d);
      h->disk(d)->set_op_observer(
          [this, nh, scorer, target = std::move(target)](
              bool is_read, SimDuration lat, uint64_t trace) {
            const SimTime now = sched_.Now();
            nh->series.Hist(is_read ? "disk.read_usec" : "disk.write_usec")
                .Observe(now, lat, trace);
            scorer->Observe("disk", target, now, lat, trace);
          });
    }
    // Chain-forward RPC legs: one target per destination peer, cohort
    // "peer". Timeouts feed the error-rate outlier.
    std::string peer_prefix = "n" + std::to_string(i) + ".peer";
    data_nodes_[i]->chain_channel().set_peer_observer(
        [this, nh, scorer, peer_prefix = std::move(peer_prefix)](
            sim::NodeId to, bool ok, SimDuration lat, uint64_t trace) {
          const SimTime now = sched_.Now();
          const std::string target = peer_prefix + std::to_string(to);
          if (ok) {
            nh->series.Hist("peer.rpc_usec").Observe(now, lat, trace);
            scorer->Observe("peer", target, now, lat, trace);
          } else {
            nh->series.Hist("peer.rpc_usec").CountError(now);
            scorer->ObserveError("peer", target, now);
          }
        });
    // Meta raft-backed writes: per-node latency series (singleton — no
    // cohort to compare against locally, so time-series only).
    meta_nodes_[i]->set_exec_observer([this, nh](SimDuration lat, uint64_t trace) {
      nh->series.Hist("meta.exec_usec").Observe(sched_.Now(), lat, trace);
    });
  }
}

void Cluster::CollectNode(int node_index) {
  NodeHealth* nh = node_health_[node_index].get();
  const SimTime now = sched_.Now();
  sim::Host* h = node_hosts_[node_index];
  uint64_t reads = 0, writes = 0;
  for (int d = 0; d < h->num_disks(); d++) {
    reads += h->disk(d)->reads();
    writes += h->disk(d)->writes();
  }
  nh->series.SampleCounter("disk.reads", now, reads);
  nh->series.SampleCounter("disk.writes", now, writes);
  nh->series.SampleCounter("meta.ops", now, meta_nodes_[node_index]->ops_served());
  nh->series.SampleCounter("data.ops", now, data_nodes_[node_index]->ops_served());
  // The shared scorer advances at most once per window: the first node to
  // collect in a given second scores it, the rest no-op (idempotent).
  health_scorer_->Advance(now);
}

void Cluster::CollectAllNow() {
  for (size_t i = 0; i < node_health_.size(); i++) CollectNode(static_cast<int>(i));
}

std::string Cluster::HealthJson() {
  std::string out = "{\"nodes\":{";
  for (size_t i = 0; i < node_health_.size(); i++) {
    if (i) out += ",";
    out += "\"" + std::to_string(i) + "\":{\"series\":" +
           node_health_[i]->series.DumpJson() + "}";
  }
  out += "},\"scorer\":";
  out += health_scorer_ ? health_scorer_->DumpJson() : "null";
  out += ",\"master\":";
  master::MasterNode* leader = master_leader();
  out += leader ? leader->HealthViewJson() : "null";
  out += "}";
  return out;
}

std::string Cluster::HealthEventsJsonl() const {
  return health_scorer_ ? health_scorer_->DumpEventsJsonl() : std::string();
}

master::MasterNode* Cluster::master_leader() {
  for (auto& m : masters_) {
    if (m->IsLeader()) return m.get();
  }
  return nullptr;
}

Task<Status> Cluster::Start() {
  // Wait for the resource-manager raft group to elect a leader.
  for (int i = 0; i < 1000 && !master_leader(); i++) {
    co_await sim::SleepFor{sched_, 10 * kMsec};
  }
  master::MasterNode* leader = master_leader();
  if (!leader) co_return Status::Unavailable("no master leader");

  // Register every storage node (meta + data roles on the same machine).
  // The MasterService handles leader probing, NotLeader redirects and
  // backoff; each node registers from its own host id.
  for (int i = 0; i < opts_.num_nodes; i++) {
    rpc::MasterService svc(&net_, node_hosts_[i]->id(), router_.get());
    auto r = co_await svc.Call<master::RegisterNodeReq, master::RegisterNodeResp>(
        master::RegisterNodeReq{node_hosts_[i]->id(), true, true});
    CFS_CO_RETURN_IF_ERROR(r.ok() ? r->status : r.status());
    Spawn(HeartbeatLoop(i));
  }
  co_return Status::OK();
}

Task<void> Cluster::HeartbeatLoop(int node_index) {
  while (true) {
    co_await sim::SleepFor{sched_, opts_.heartbeat_interval};
    sim::Host* host = node_hosts_[node_index];
    if (!host->up()) continue;
    // This loop doubles as the node's telemetry collector: sampling and
    // window scoring ride the heartbeat wakeups that exist anyway, so
    // health telemetry adds zero scheduler events (schedule-neutrality is
    // pinned by tests/determinism_test.cc).
    if (!node_health_.empty()) CollectNode(node_index);
    master::MasterNode* leader = master_leader();
    if (!leader) continue;
    master::NodeHeartbeatReq req;
    req.node = host->id();
    req.memory_utilization = host->MemoryUtilization();
    req.disk_utilization = host->DiskUtilization();
    req.meta_reports = meta_nodes_[node_index]->Reports();
    req.data_reports = data_nodes_[node_index]->Reports();
    if (health_scorer_) {
      // Each node piggybacks its own slice of the cluster-wide scorer
      // (targets are "n<i>.…"), the compact summary the master folds into
      // its health view.
      req.health =
          health_scorer_->SummaryFor("n" + std::to_string(node_index) + ".");
    }
    (void)co_await channel_->Unary<master::NodeHeartbeatReq, master::NodeHeartbeatResp>(
        host->id(), leader->host()->id(), std::move(req), 1 * kSec);
  }
}

Task<Status> Cluster::CreateVolume(std::string name, uint32_t meta_partitions,
                                   uint32_t data_partitions, master::VolumeQos qos) {
  master::CreateVolumeReq req;
  req.name = name;
  req.meta_partitions = meta_partitions;
  req.data_partitions = data_partitions;
  req.replica_factor = 3;
  req.qos = qos;
  // Issued from the first master host on behalf of an administrator. Volume
  // creation proposes through raft and installs every partition, so the
  // admin call rides a long per-leg timeout.
  rpc::RetryPolicy admin_policy = rpc::RetryPolicy::Control();
  admin_policy.rpc_timeout = 10 * kSec;
  rpc::MasterService svc(&net_, master_hosts_[0]->id(), router_.get());
  auto r = co_await svc.Call<master::CreateVolumeReq, master::CreateVolumeResp>(
      std::move(req), rpc::CallOptions{{}, &admin_policy});
  if (!r.ok()) co_return r.status();
  CFS_CO_RETURN_IF_ERROR(r->status);
  volumes_.push_back(name);
  // Wait until every partition of THIS volume has a raft leader so the
  // first client operations don't eat election latency. Scoping the wait to
  // the new volume keeps volume creation O(own partitions) — a bench that
  // boots thousands of volumes would otherwise rescan the whole cluster map
  // once per 10 msec per volume.
  for (int i = 0; i < 2000 && !VolumePartitionsHaveLeaders(r->volume); i++) {
    co_await sim::SleepFor{sched_, 10 * kMsec};
  }
  co_return Status::OK();
}

bool Cluster::VolumePartitionsHaveLeaders(master::VolumeId volume) {
  master::MasterNode* leader = master_leader();
  if (!leader) return false;
  auto it = leader->state().volumes().find(volume);
  if (it == leader->state().volumes().end()) return false;
  for (master::PartitionId pid : it->second.meta_partitions) {
    bool has = false;
    for (int i = 0; i < num_nodes(); i++) {
      raft::RaftNode* rn = meta_nodes_[i]->GetRaft(pid);
      if (rn && rn->IsLeader()) has = true;
    }
    if (!has) return false;
  }
  for (master::PartitionId pid : it->second.data_partitions) {
    bool has = false;
    for (int i = 0; i < num_nodes(); i++) {
      data::DataPartition* dp = data_nodes_[i]->GetPartition(pid);
      if (dp && dp->raft_node()->IsLeader()) has = true;
    }
    if (!has) return false;
  }
  return true;
}

bool Cluster::AllPartitionsHaveLeaders() {
  master::MasterNode* leader = master_leader();
  if (!leader) return false;
  for (const auto& [pid, rec] : leader->state().meta_partitions()) {
    bool has = false;
    for (int i = 0; i < num_nodes(); i++) {
      raft::RaftNode* rn = meta_nodes_[i]->GetRaft(pid);
      if (rn && rn->IsLeader()) has = true;
    }
    if (!has) return false;
  }
  for (const auto& [pid, rec] : leader->state().data_partitions()) {
    bool has = false;
    for (int i = 0; i < num_nodes(); i++) {
      data::DataPartition* dp = data_nodes_[i]->GetPartition(pid);
      if (dp && dp->raft_node()->IsLeader()) has = true;
    }
    if (!has) return false;
  }
  return true;
}

Task<Result<client::Client*>> Cluster::MountClient(std::string volume) {
  return MountClient(std::vector<std::string>{std::move(volume)});
}

Task<Result<client::Client*>> Cluster::MountClient(std::vector<std::string> volumes) {
  sim::HostOptions ho;
  ho.cpu_cores = 16;
  ho.num_disks = 1;
  sim::Host* ch = net_.AddHost(ho);
  auto c = std::make_unique<client::Client>(&net_, ch, master_ids_, opts_.client);
  client::Client* ptr = c.get();
  clients_.push_back(std::move(c));
  // Index loop over the frame-local list: the mounts suspend on master RPCs.
  for (size_t i = 0; i < volumes.size(); i++) {
    CFS_CO_RETURN_IF_ERROR(co_await ptr->Mount(volumes[i]));
  }
  co_return ptr;
}

void Cluster::CrashNode(int i) { node_hosts_[i]->Crash(); }

Task<void> Cluster::RestartNode(int i) {
  node_hosts_[i]->Restart();
  // §2.2.5 ordering: extent alignment first, then raft recovery; meta
  // partitions recover from raft snapshots + logs.
  co_await data_nodes_[i]->RecoverAll();
  co_await meta_nodes_[i]->RecoverAll();
}

std::vector<sim::NodeId> Cluster::DataPartitionReplicas(data::PartitionId pid) {
  // Harness-level route lookup (in production the purge path queries the
  // resource manager; here we read the replicated state directly to avoid
  // hand-rolling one more admin RPC).
  for (auto& m : masters_) {
    auto it = m->state().data_partitions().find(pid);
    if (it != m->state().data_partitions().end()) return it->second.replicas;
  }
  return {};
}

InvariantReport Cluster::CheckInvariants() {
  InvariantReport report;

  // 1. Raft protocol invariants, per group, across all up replicas (master
  // group included). Down hosts are skipped: their in-memory raft state is
  // stale by design and is rebuilt from stable storage on restart.
  std::map<raft::GroupId, std::vector<raft::ReplicaSnapshot>> groups;
  for (auto& rh : raft_hosts_) {
    if (!rh->host()->up()) continue;
    for (raft::GroupId gid : rh->GroupIds()) {
      groups[gid].push_back(raft::SnapshotReplica(*rh->Get(gid)));
    }
  }
  for (const auto& [gid, replicas] : groups) {
    std::ostringstream os;
    os << "group 0x" << std::hex << gid;
    raft::CheckRaftGroup(replicas, &report, os.str());
  }

  // 2. Per-partition local checks, collecting replicas by partition id.
  std::map<data::PartitionId, std::vector<data::DataPartition*>> dparts;
  std::map<meta::PartitionId, std::vector<std::pair<int, meta::MetaPartition*>>> mparts;
  for (int i = 0; i < num_nodes(); i++) {
    if (!node_hosts_[i]->up()) continue;
    for (data::PartitionId pid : data_nodes_[i]->PartitionIds()) {
      data::DataPartition* p = data_nodes_[i]->GetPartition(pid);
      p->CheckInvariants(&report, "node " + std::to_string(i) + " data partition " +
                                      std::to_string(pid));
      dparts[pid].push_back(p);
    }
    for (meta::PartitionId pid : meta_nodes_[i]->PartitionIds()) {
      meta::MetaPartition* p = meta_nodes_[i]->GetPartition(pid);
      p->CheckInvariants(&report, "node " + std::to_string(i) + " meta partition " +
                                      std::to_string(pid));
      mparts[pid].emplace_back(i, p);
    }
  }

  // 3. Cross-replica data-partition agreement: "the leader returns the
  // largest offset that has been committed by all the replicas" (§2.2.5), so
  // every up replica must hold at least the chain leader's committed prefix
  // of every extent; and two replicas whose raft state machines are equally
  // applied must agree byte-for-byte (CRC) on equally-sized extents.
  for (const auto& [pid, replicas] : dparts) {
    const std::string where = "data partition " + std::to_string(pid);
    data::DataPartition* leader = nullptr;
    for (data::DataPartition* p : replicas) {
      if (p->IsChainLeader()) leader = p;
    }
    if (leader) {
      leader->store().ForEach([&](const storage::Extent& e) {
        uint64_t c = leader->committed(e.id);
        if (c == 0) return;
        for (data::DataPartition* p : replicas) {
          if (p == leader) continue;
          // Deletes and punches flow through raft and the chain leader need
          // not be the raft leader, so a replica ahead in raft apply may
          // already have dropped an extent the chain leader still holds.
          // The committed-prefix guarantee is only checkable when both
          // replicas have applied the same raft prefix.
          if (p->raft_node()->applied_index() !=
              leader->raft_node()->applied_index()) {
            continue;
          }
          if (!p->store().Has(e.id)) {
            report.Violation("cluster", where + " extent " + std::to_string(e.id) +
                                            ": replica missing an extent with " +
                                            std::to_string(c) + " committed bytes");
          } else if (p->store().ExtentSize(e.id) < c) {
            report.Violation("cluster", where + " extent " + std::to_string(e.id) +
                                            ": replica holds " +
                                            std::to_string(p->store().ExtentSize(e.id)) +
                                            " bytes, below the committed offset " +
                                            std::to_string(c));
          }
        }
      });
    }
    if (opts_.track_contents) {
      for (size_t a = 0; a < replicas.size(); a++) {
        for (size_t b = a + 1; b < replicas.size(); b++) {
          data::DataPartition* x = replicas[a];
          data::DataPartition* y = replicas[b];
          // Chain placements are deterministic and overwrites/punches flow
          // through raft, so equal applied indices + equal sizes => equal
          // bytes. Unequal sizes just mean in-flight chain traffic.
          if (x->raft_node()->applied_index() != y->raft_node()->applied_index()) {
            continue;
          }
          x->store().ForEach([&](const storage::Extent& ex) {
            const storage::Extent* ey = y->store().Find(ex.id);
            if (!ey || ey->size != ex.size || ey->punched_bytes != ex.punched_bytes) {
              return;
            }
            if (ex.crc != ey->crc) {
              report.Violation("cluster", where + " extent " + std::to_string(ex.id) +
                                              ": equally-applied replicas disagree on CRC");
            }
          });
        }
      }
    }
  }

  // 4. Volume-wide metadata referential integrity. A file's dentry and inode
  // may live on different partitions (§2.6), so dentries are resolved
  // through the raft-leader replica of the inode's owning id range. Client
  // workflows order mutations so a dentry always points at a live inode
  // (Fig. 3: inode before dentry on create, dentry removal before unlink),
  // and nlink is incremented before a link's dentry exists — hence
  // refs <= nlink for files, with refs == 0 marking an orphan that fsck
  // evicts later. A volume is only checked when every one of its partitions
  // has an up leader replica (otherwise the authoritative view is offline).
  std::map<meta::VolumeId, std::vector<meta::MetaPartition*>> volumes;
  std::map<meta::VolumeId, bool> volume_complete;
  for (const auto& [pid, replicas] : mparts) {
    meta::MetaPartition* leader = nullptr;
    for (const auto& [node_index, p] : replicas) {
      raft::RaftNode* rn = meta_nodes_[node_index]->GetRaft(pid);
      if (rn && rn->IsLeader()) leader = p;
    }
    meta::VolumeId vol = replicas.front().second->config().volume;
    if (leader) {
      volumes[vol].push_back(leader);
      volume_complete.try_emplace(vol, true);
    } else {
      volume_complete[vol] = false;
    }
  }
  for (const auto& [vol, parts] : volumes) {
    if (!volume_complete[vol]) continue;
    const std::string where = "volume " + std::to_string(vol);
    auto owner_of = [&](meta::InodeId id) -> meta::MetaPartition* {
      for (meta::MetaPartition* p : parts) {
        if (id >= p->config().start && id <= p->config().end) return p;
      }
      return nullptr;
    };
    std::map<meta::InodeId, uint32_t> refs;
    for (meta::MetaPartition* p : parts) {
      p->ForEachDentry([&](const meta::DentryKey& key, const meta::Dentry& d) {
        refs[d.inode]++;
        meta::MetaPartition* owner = owner_of(d.inode);
        if (!owner) return true;  // id range split mid-migration; unresolvable
        const meta::Inode* ino = owner->GetInode(d.inode);
        if (!ino) {
          report.Violation("cluster", where + ": dentry (" + std::to_string(key.parent) +
                                          ", " + key.name + ") dangles: inode " +
                                          std::to_string(d.inode) + " does not exist");
        } else if (ino->IsDeleted()) {
          report.Violation("cluster", where + ": dentry (" + std::to_string(key.parent) +
                                          ", " + key.name +
                                          ") references delete-marked inode " +
                                          std::to_string(d.inode));
        }
        return true;
      });
    }
    for (meta::MetaPartition* p : parts) {
      p->ForEachInode([&](const meta::InodeId& id, const meta::Inode& ino) {
        if (ino.IsDeleted()) return true;
        auto it = refs.find(id);
        uint32_t r = it == refs.end() ? 0 : it->second;
        if (ino.IsDir()) {
          if (r > 1) {
            report.Violation("cluster", where + ": directory inode " + std::to_string(id) +
                                            " referenced by " + std::to_string(r) +
                                            " dentries");
          }
        } else if (r > ino.nlink) {
          report.Violation("cluster", where + ": inode " + std::to_string(id) +
                                          " has nlink " + std::to_string(ino.nlink) +
                                          " but " + std::to_string(r) +
                                          " referencing dentries");
        }
        return true;
      });
    }
  }

  return report;
}

meta::MetaNode::ExtentPurger Cluster::MakePurger(int node_index) {
  return [this, node_index](meta::Inode inode) -> Task<Status> {
    return PurgeInodeContent(node_index, std::move(inode));
  };
}

Task<Status> Cluster::PurgeInodeContent(int node_index, meta::Inode inode) {
  // "A separate process to clear up this inode and communicate with the
  // data node to delete the file content" (§2.7.3): whole extents of large
  // files are deleted directly; small-file ranges are punch-holed (§2.2.3).
  // The per-node DataService does the leader probing; the shared Router is
  // primed with the replica set from the master's replicated state.
  rpc::DataService& svc = *purge_svcs_[node_index];
  Status last = Status::OK();
  for (const auto& key : inode.extents) {
    master::DataPartitionView view;
    view.pid = key.partition_id;
    view.replicas = DataPartitionReplicas(key.partition_id);
    router_->UpsertDataPartition(std::move(view));
    bool small = key.extent_offset != 0 ||
                 key.size <= opts_.client.small_file_threshold;
    Status st;
    if (small) {
      auto r = co_await svc.Call<data::PunchHoleReq, data::PunchHoleResp>(
          key.partition_id,
          data::PunchHoleReq{key.partition_id, key.extent_id, key.extent_offset, key.size});
      st = r.ok() ? r->status : r.status();
    } else {
      auto r = co_await svc.Call<data::DeleteExtentReq, data::DeleteExtentResp>(
          key.partition_id, data::DeleteExtentReq{key.partition_id, key.extent_id});
      st = r.ok() ? r->status : r.status();
    }
    if (!st.ok()) last = st;
  }
  co_return last;
}

obs::Registry Cluster::Metrics() {
  obs::Registry reg;
  for (sim::NodeId id = 1; id <= net_.num_hosts(); id++) reg.MergeFrom(net_.host(id)->metrics());

  // Device and wire accounting is read from the simulator itself.
  auto fold_disks = [&reg](sim::Host* h) {
    for (int i = 0; i < h->num_disks(); i++) {
      sim::Disk* d = h->disk(i);
      reg.Add("disk.reads", d->reads());
      reg.Add("disk.writes", d->writes());
      reg.Add("disk.read_bytes", d->read_bytes());
      reg.Add("disk.write_bytes", d->write_bytes());
      reg.Add("disk.punched_bytes", d->punched_bytes());
      reg.Add("disk.used_bytes", d->used_bytes());
    }
  };
  for (sim::Host* h : master_hosts_) fold_disks(h);
  for (sim::Host* h : node_hosts_) fold_disks(h);
  reg.Add("net.messages_sent", net_.messages_sent());
  reg.Add("net.bytes_sent", net_.bytes_sent());
  // Watchdog accounting: cancelled = replies beat their timeout (the healthy
  // case), fired = calls that actually timed out.
  reg.Add("net.rpc_timeout.cancelled", net_.rpc_timeouts_cancelled());
  reg.Add("net.rpc_timeout.fired", net_.rpc_timeouts_fired());
  reg.Set("obs.spans", static_cast<int64_t>(sched_.tracer().num_spans()));
  return reg;
}

}  // namespace cfs::harness
