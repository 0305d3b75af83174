#include "ceph/ceph.h"

#include <algorithm>

#include "common/logging.h"

namespace cfs::ceph {

using sim::Spawn;
using sim::Task;

namespace {
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}
}  // namespace

// --- Mds -----------------------------------------------------------------------

Mds::Mds(CephCluster* cluster, sim::Host* host, int index)
    : cluster_(cluster),
      host_(host),
      index_(index),
      journal_(cluster->sched(), cluster->options().journal_lanes),
      dispatch_(cluster->sched(), cluster->options().mds_dispatch_lanes) {}

bool Mds::TouchCache(InodeId ino) {
  auto it = resident_.find(ino);
  if (it != resident_.end()) {
    lru_.erase(it->second);
    lru_.push_front(ino);
    it->second = lru_.begin();
    cache_hits_++;
    return false;
  }
  cache_misses_++;
  lru_.push_front(ino);
  resident_[ino] = lru_.begin();
  while (resident_.size() > cluster_->options().mds_cache_capacity) {
    resident_.erase(lru_.back());
    lru_.pop_back();
  }
  return true;
}

Task<void> Mds::ChargeMiss() {
  // Metadata-pool read from the local disk (§4.3: cache misses cause
  // "frequent disk IOs").
  (void)co_await host_->disk(cluster_->options().metadata_pool_disk)->Read(4 * kKiB);
}

Task<void> Mds::Journal() {
  // Metadata update commit through the (mostly serial) MDS journal.
  co_await journal_.Use(cluster_->options().journal_service);
  (void)co_await host_->disk(cluster_->options().metadata_pool_disk)->Write(512);
}

void Mds::AdoptDirectory(InodeId dir, DirBundle bundle) {
  for (auto& [ino, rec] : bundle.inodes) inodes_[ino] = rec;
  dirs_[dir] = std::move(bundle.entries);
}

Mds::DirBundle Mds::YieldDirectory(InodeId dir) {
  DirBundle bundle;
  auto it = dirs_.find(dir);
  if (it == dirs_.end()) return bundle;
  bundle.entries = std::move(it->second);
  for (const auto& [name, ino] : bundle.entries) {
    auto iit = inodes_.find(ino);
    if (iit != inodes_.end()) {
      bundle.inodes[ino] = iit->second;
      inodes_.erase(iit);
    }
  }
  dirs_.erase(it);
  hot_dirs_.erase(dir);
  return bundle;
}

size_t Mds::DirectorySize(InodeId dir) const {
  auto it = dirs_.find(dir);
  return it == dirs_.end() ? 0 : it->second.size();
}

Task<MdsResp> Mds::Handle(MdsReq req) {
  MdsResp resp;
  ops_++;
  window_ops_++;
  hot_dirs_[req.dir]++;
  co_await dispatch_.Use(cluster_->options().mds_dispatch_service);
  co_await host_->cpu().Use(cluster_->options().mds_cpu_per_op);

  // Authority check: if this directory was rebalanced away, proxy the
  // request to the current authority (the "extra overheads" of §4.2).
  int authority = cluster_->AuthorityOf(req.dir);
  if (authority != index_ && !req.internal) {
    MdsReq fwd = req;
    fwd.internal = true;
    auto r = co_await cluster_->channel()->Unary<MdsReq, MdsResp>(
        host_->id(), cluster_->mds_host(authority)->id(), std::move(fwd), 2 * kSec);
    if (!r.ok()) {
      resp.status = r.status();
      co_return resp;
    }
    co_return std::move(*r);
  }

  switch (req.op) {
    case MetaOp::kMkdir:
    case MetaOp::kCreate: {
      auto& dir = dirs_[req.dir];
      if (dir.count(req.name)) {
        resp.status = Status::AlreadyExists(req.name);
        co_return resp;
      }
      CephInode ino;
      ino.id = cluster_->AllocInode();
      ino.is_dir = req.op == MetaOp::kMkdir;
      dir[req.name] = ino.id;
      inodes_[ino.id] = ino;
      if (TouchCache(ino.id)) {
        // Fresh inode is resident by construction; no miss IO.
      }
      // New directories take their hash authority (the paper's setup bonds
      // each directory to a specific MDS "to maximize the concurrency").
      // All metadata of one directory stays on that single MDS — the
      // directory-locality property the comparison hinges on.
      co_await Journal();
      resp.inode = ino;
      resp.status = Status::OK();
      co_return resp;
    }
    case MetaOp::kLookup: {
      auto dit = dirs_.find(req.dir);
      if (dit == dirs_.end() || !dit->second.count(req.name)) {
        resp.status = Status::NotFound(req.name);
        co_return resp;
      }
      InodeId ino = dit->second[req.name];
      if (TouchCache(ino)) co_await ChargeMiss();
      resp.inode = inodes_[ino];
      resp.status = Status::OK();
      co_return resp;
    }
    case MetaOp::kInodeGet: {
      auto it = inodes_.find(req.ino);
      if (it == inodes_.end()) {
        resp.status = Status::NotFound("inode");
        co_return resp;
      }
      // Copy before the cache-miss suspension: a concurrent remove can erase
      // the inode while this coroutine is parked, invalidating `it` (A1).
      resp.inode = it->second;
      if (TouchCache(req.ino)) co_await ChargeMiss();
      resp.status = Status::OK();
      co_return resp;
    }
    case MetaOp::kReaddir: {
      auto dit = dirs_.find(req.dir);
      if (dit == dirs_.end()) {
        resp.status = Status::OK();  // empty
        co_return resp;
      }
      for (const auto& [name, ino] : dit->second) {
        resp.entries.emplace_back(name, ino);
      }
      resp.status = Status::OK();
      co_return resp;
    }
    case MetaOp::kRemove:
    case MetaOp::kRmdir: {
      auto dit = dirs_.find(req.dir);
      if (dit == dirs_.end() || !dit->second.count(req.name)) {
        resp.status = Status::NotFound(req.name);
        co_return resp;
      }
      InodeId ino = dit->second[req.name];
      if (req.op == MetaOp::kRmdir) {
        // The victim directory's entries live at ITS authority MDS, which
        // may differ from the parent's; check emptiness there.
        int child_auth = cluster_->AuthorityOf(ino);
        size_t count = 0;
        if (child_auth == index_) {
          count = DirectorySize(ino);
        } else {
          MdsReq probe;
          probe.op = MetaOp::kReaddir;
          probe.dir = ino;
          probe.internal = true;
          auto r = co_await cluster_->channel()->Unary<MdsReq, MdsResp>(
              host_->id(), cluster_->mds_host(child_auth)->id(), std::move(probe), 2 * kSec);
          if (!r.ok()) {
            resp.status = r.status();
            co_return resp;
          }
          count = r->entries.size();
        }
        if (count > 0) {
          resp.status = Status::InvalidArgument("directory not empty");
          co_return resp;
        }
      }
      if (TouchCache(ino)) co_await ChargeMiss();
      // Re-look the parent up: dirs_ may have been mutated while this
      // coroutine was suspended in the readdir probe / cache-miss charge
      // above, invalidating the earlier iterator (A1).
      dit = dirs_.find(req.dir);
      if (dit != dirs_.end()) dit->second.erase(req.name);
      inodes_.erase(ino);
      if (req.op == MetaOp::kRmdir) dirs_.erase(ino);
      co_await Journal();
      resp.status = Status::OK();
      co_return resp;
    }
    case MetaOp::kSetSize: {
      auto it = inodes_.find(req.ino);
      if (it == inodes_.end()) {
        resp.status = Status::NotFound("inode");
        co_return resp;
      }
      it->second.size = std::max(it->second.size, req.size);
      co_await Journal();
      resp.status = Status::OK();
      co_return resp;
    }
  }
  resp.status = Status::InvalidArgument("bad op");
  co_return resp;
}

// --- CephCluster ------------------------------------------------------------------

CephCluster::CephCluster(sim::Scheduler* sched, sim::Network* net, const CephOptions& opts)
    : sched_(sched), net_(net), opts_(opts), channel_(net) {
  for (int i = 0; i < opts_.num_nodes; i++) {
    sim::HostOptions ho;
    ho.num_disks = opts_.osds_per_node;
    sim::Host* h = net_->AddHost(ho);
    hosts_.push_back(h);
    mds_.push_back(std::make_unique<Mds>(this, h, i));
    onode_caches_.emplace_back();
    osd_queues_.push_back(std::make_unique<sim::Resource>(
        sched_, opts_.osd_op_num_shards * opts_.osd_threads_per_shard));
    kv_lanes_.push_back(std::make_unique<sim::Resource>(sched_, opts_.kv_lanes));
    // Route MDS requests.
    Mds* m = mds_.back().get();
    h->Register<MdsReq, MdsResp>([m](MdsReq req, sim::NodeId) -> Task<MdsResp> {
      return m->Handle(std::move(req));
    });
    RegisterOsdHandlers(h, i);
  }
  // Root directory authority: MDS 0.
  SetAuthority(kCephRoot, 0);
  Spawn(RebalanceLoop());
}

int CephCluster::HashAuthority(InodeId dir) const {
  return static_cast<int>(Mix(dir) % mds_.size());
}

int CephCluster::AuthorityOf(InodeId dir) const {
  auto it = authority_override_.find(dir);
  if (it != authority_override_.end()) return it->second;
  return HashAuthority(dir);
}

void CephCluster::SetAuthority(InodeId dir, int mds) { authority_override_[dir] = mds; }

bool CephCluster::RecentlyMoved(InodeId dir) const {
  auto it = moved_at_.find(dir);
  if (it == moved_at_.end()) return false;
  return sched_->Now() - it->second < opts_.proxy_penalty_window;
}

std::vector<sim::NodeId> CephCluster::PlaceObject(ObjectId object) const {
  std::vector<sim::NodeId> out;
  uint64_t h = Mix(object);
  for (uint32_t i = 0; i < opts_.replica_factor; i++) {
    out.push_back(hosts_[(h + i * 0x9e3779b9u) % hosts_.size()]->id());
  }
  return out;
}

bool CephCluster::TouchOnode(int node_index, ObjectId object) {
  OnodeCache& c = onode_caches_[node_index];
  auto it = c.resident.find(object);
  if (it != c.resident.end()) {
    c.lru.erase(it->second);
    c.lru.push_front(object);
    it->second = c.lru.begin();
    return false;
  }
  c.lru.push_front(object);
  c.resident[object] = c.lru.begin();
  while (c.resident.size() > opts_.osd_onode_cache) {
    c.resident.erase(c.lru.back());
    c.lru.pop_back();
  }
  return true;
}

void CephCluster::RegisterOsdHandlers(sim::Host* host, int node_index) {
  sim::Resource* queue = osd_queues_[node_index].get();
  sim::Resource* kv = kv_lanes_[node_index].get();
  host->Register<OsdWriteReq, OsdWriteResp>(
      [this, host, queue, kv, node_index](OsdWriteReq req, sim::NodeId) -> Task<OsdWriteResp> {
        // Sharded op queue -> journal write -> data write -> kv commit ->
        // (overwrites: another queue walk + metadata sync) -> replicate.
        co_await queue->Use(opts_.osd_op_cost);
        co_await host->cpu().Use(opts_.osd_op_cost);
        int disk = static_cast<int>(req.object % host->num_disks());
        if (TouchOnode(node_index, req.object)) {
          // Cold onode: metadata walk through the kv store (§4.3).
          co_await kv->Use(opts_.kv_lookup_service);
          (void)co_await host->disk(disk)->Read(4 * kKiB);
          (void)co_await host->disk(disk)->Read(4 * kKiB);
        }
        (void)co_await host->disk(disk)->Write(req.len);  // journal (write amp)
        (void)co_await host->disk(disk)->Write(req.len);  // data apply
        co_await kv->Use(opts_.kv_commit_service);        // kv commit
        if (req.is_overwrite) {
          // "Only after the data and metadata have been persisted and
          // synchronized, the commit message can be returned" (§4.3).
          co_await queue->Use(opts_.osd_op_cost);
          (void)co_await host->disk(disk)->Write(4 * kKiB);
        }
        if (req.fanout_index == 0) {
          // Primary replicates to the remaining copies in parallel.
          auto placement = PlaceObject(req.object);
          sim::Join join(sched_, static_cast<int>(placement.size()) - 1);
          for (uint32_t i = 1; i < placement.size(); i++) {
            OsdWriteReq sub = req;
            sub.fanout_index = i;
            Spawn([](CephCluster* c, sim::NodeId from, sim::NodeId to, OsdWriteReq sub,
                     std::function<void()> done) -> Task<void> {
              (void)co_await c->channel()->Unary<OsdWriteReq, OsdWriteResp>(
                  from, to, std::move(sub), 5 * kSec);
              done();
            }(this, host->id(), placement[i], std::move(sub), join.Arrive()));
          }
          co_await join.Wait();
        }
        co_return OsdWriteResp{Status::OK()};
      });

  host->Register<OsdReadReq, OsdReadResp>(
      [this, host, queue, kv, node_index](OsdReadReq req, sim::NodeId) -> Task<OsdReadResp> {
        co_await queue->Use(opts_.osd_op_cost);
        co_await host->cpu().Use(opts_.osd_op_cost);
        int disk = static_cast<int>(req.object % host->num_disks());
        if (TouchOnode(node_index, req.object)) {
          // Cold onode: metadata walk through the kv store (§4.3).
          co_await kv->Use(opts_.kv_lookup_service);
          (void)co_await host->disk(disk)->Read(4 * kKiB);
          (void)co_await host->disk(disk)->Read(4 * kKiB);
        }
        (void)co_await host->disk(disk)->Read(req.len);
        OsdReadResp resp;
        resp.status = Status::OK();
        resp.len = req.len;
        co_return resp;
      });
}

Task<void> CephCluster::RebalanceLoop() {
  // Dynamic subtree rebalancing: move the hottest directories off the most
  // loaded MDS when imbalance exceeds the threshold (§4.2).
  while (true) {
    co_await sim::SleepFor{*sched_, opts_.rebalance_interval};
    std::vector<uint64_t> load;
    uint64_t total = 0;
    for (auto& m : mds_) {
      load.push_back(m->TakeLoad());
      total += load.back();
    }
    if (total == 0) continue;
    uint64_t avg = total / load.size();
    auto hottest = static_cast<int>(
        std::max_element(load.begin(), load.end()) - load.begin());
    if (avg == 0 || load[hottest] < avg * opts_.rebalance_imbalance_factor) continue;
    // Move the busiest directory from the hottest MDS to the least loaded.
    auto coldest = static_cast<int>(
        std::min_element(load.begin(), load.end()) - load.begin());
    Mds* src = mds_[hottest].get();
    InodeId victim = 0;
    uint64_t best = 0;
    for (auto& [dir, n] : src->hot_dirs()) {
      if (n > best && AuthorityOf(dir) == hottest) {
        best = n;
        victim = dir;
      }
    }
    src->hot_dirs().clear();
    if (victim == 0) continue;
    // Migration: ship the directory's entries to the new authority; charge
    // network + CPU proportional to the metadata moved.
    auto bundle = src->YieldDirectory(victim);
    size_t items = bundle.entries.size();
    mds_[coldest]->AdoptDirectory(victim, std::move(bundle));
    SetAuthority(victim, coldest);
    moved_at_[victim] = sched_->Now();
    rebalances_++;
    (void)co_await mds_host(hottest)->cpu().Use(static_cast<SimDuration>(items) * 2);
    LOG_DEBUG("ceph rebalance: dir ", victim, " mds ", hottest, " -> ", coldest, " (",
              items, " items)");
  }
}

// --- CephClient -----------------------------------------------------------------

CephClient::CephClient(CephCluster* cluster, sim::Host* host)
    : cluster_(cluster), host_(host) {}

Task<Result<MdsResp>> CephClient::CallMds(InodeId dir, MdsReq req) {
  meta_rpcs_++;
  co_await host_->cpu().Use(cluster_->options().client_cpu_per_op);
  // Clients route by the static hash placement; directories that the
  // balancer moved get forwarded by the hash MDS to the current authority —
  // the "proxy MDS" overhead of §4.2.
  int authority = cluster_->HashAuthority(dir);
  auto r = co_await cluster_->channel()->Unary<MdsReq, MdsResp>(
      host_->id(), cluster_->mds_host(authority)->id(), std::move(req), 5 * kSec);
  if (!r.ok()) co_return r.status();
  co_return std::move(*r);
}

Task<Result<InodeId>> CephClient::Mkdir(InodeId parent, std::string name) {
  MdsReq req;
  req.op = MetaOp::kMkdir;
  req.dir = parent;
  req.name = std::move(name);
  auto r = co_await CallMds(parent, std::move(req));
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  co_return r->inode.id;
}

Task<Result<InodeId>> CephClient::Create(InodeId parent, std::string name) {
  MdsReq req;
  req.op = MetaOp::kCreate;
  req.dir = parent;
  req.name = std::move(name);
  auto r = co_await CallMds(parent, std::move(req));
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  co_return r->inode.id;
}

Task<Result<CephInode>> CephClient::Lookup(InodeId parent, std::string name) {
  MdsReq req;
  req.op = MetaOp::kLookup;
  req.dir = parent;
  req.name = std::move(name);
  auto r = co_await CallMds(parent, std::move(req));
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  co_return r->inode;
}

Task<Result<CephInode>> CephClient::InodeGet(InodeId ino, InodeId authority_dir) {
  MdsReq req;
  req.op = MetaOp::kInodeGet;
  req.dir = authority_dir;
  req.ino = ino;
  auto r = co_await CallMds(authority_dir, std::move(req));
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  co_return r->inode;
}

Task<Result<std::vector<std::pair<std::string, CephInode>>>> CephClient::ReaddirPlus(
    InodeId dir) {
  MdsReq req;
  req.op = MetaOp::kReaddir;
  req.dir = dir;
  auto r = co_await CallMds(dir, std::move(req));
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  // "Each readdir request is followed by a set of inodeGet requests to fetch
  // all the inodes in the current directory" (§4.2).
  std::vector<std::pair<std::string, CephInode>> out;
  for (auto& [name, ino] : r->entries) {
    auto g = co_await InodeGet(ino, dir);
    if (!g.ok()) co_return g.status();
    out.emplace_back(name, *g);
  }
  co_return out;
}

Task<Status> CephClient::Remove(InodeId parent, std::string name) {
  MdsReq req;
  req.op = MetaOp::kRemove;
  req.dir = parent;
  req.name = std::move(name);
  auto r = co_await CallMds(parent, std::move(req));
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

Task<Status> CephClient::Rmdir(InodeId parent, std::string name) {
  MdsReq req;
  req.op = MetaOp::kRmdir;
  req.dir = parent;
  req.name = std::move(name);
  auto r = co_await CallMds(parent, std::move(req));
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

Task<Status> CephClient::Write(InodeId ino, InodeId parent_dir, uint64_t offset,
                               uint64_t len, bool is_overwrite) {
  data_rpcs_++;
  co_await host_->cpu().Use(cluster_->options().client_cpu_per_op);
  const uint64_t obj_size = cluster_->options().object_size;
  uint64_t end = offset + len;
  while (offset < end) {
    uint64_t idx = offset / obj_size;
    uint64_t in_obj = offset % obj_size;
    uint64_t piece = std::min(end - offset, obj_size - in_obj);
    ObjectId object = (ino << 20) | idx;
    auto placement = cluster_->PlaceObject(object);
    OsdWriteReq req;
    req.object = object;
    req.offset = in_obj;
    req.len = piece;
    req.is_overwrite = is_overwrite;
    auto r = co_await cluster_->channel()->Unary<OsdWriteReq, OsdWriteResp>(
        host_->id(), placement[0], std::move(req), 10 * kSec);
    if (!r.ok()) co_return r.status();
    if (!r->status.ok()) co_return r->status;
    offset += piece;
  }
  // Appends must also persist the new size at the MDS before the write is
  // durable ("data and metadata persisted and synchronized", §4.3).
  if (!is_overwrite && parent_dir != 0) {
    MdsReq req;
    req.op = MetaOp::kSetSize;
    req.dir = parent_dir;
    req.ino = ino;
    req.size = end;
    auto r = co_await CallMds(parent_dir, std::move(req));
    if (!r.ok()) co_return r.status();
    co_return r->status;
  }
  co_return Status::OK();
}

Task<Status> CephClient::Read(InodeId ino, uint64_t offset, uint64_t len) {
  data_rpcs_++;
  co_await host_->cpu().Use(cluster_->options().client_cpu_per_op);
  const uint64_t obj_size = cluster_->options().object_size;
  uint64_t end = offset + len;
  while (offset < end) {
    uint64_t idx = offset / obj_size;
    uint64_t in_obj = offset % obj_size;
    uint64_t piece = std::min(end - offset, obj_size - in_obj);
    ObjectId object = (ino << 20) | idx;
    auto placement = cluster_->PlaceObject(object);
    OsdReadReq req;
    req.object = object;
    req.offset = in_obj;
    req.len = piece;
    auto r = co_await cluster_->channel()->Unary<OsdReadReq, OsdReadResp>(
        host_->id(), placement[0], std::move(req), 10 * kSec);
    if (!r.ok()) co_return r.status();
    if (!r->status.ok()) co_return r->status;
    offset += piece;
  }
  co_return Status::OK();
}

}  // namespace cfs::ceph
