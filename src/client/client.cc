#include "client/client.h"

#include <algorithm>

#include "common/logging.h"

namespace cfs::client {

using sim::Spawn;
using sim::Task;

namespace {

rpc::RetryPolicy WithTimeout(rpc::RetryPolicy p, SimDuration timeout) {
  p.rpc_timeout = timeout;
  return p;
}

}  // namespace

// ============================================================================
// MountContext: all per-volume state and workflow logic.
// ============================================================================

MountContext::MountContext(sim::Network* net, sim::Host* host,
                           std::vector<sim::NodeId> masters, const ClientOptions* opts,
                           rpc::Channel* channel, std::string volume_name)
    : net_(net),
      host_(host),
      opts_(opts),
      channel_(channel),
      data_rpcs_(host->metrics().Counter("client.data_rpcs")),
      cache_hits_(host->metrics().Counter("client.cache_hits")),
      cache_misses_(host->metrics().Counter("client.cache_misses")),
      resends_(host->metrics().Counter("client.resends")),
      suffix_resend_bytes_(host->metrics().Counter("client.suffix_resend_bytes")),
      orphans_created_(host->metrics().Counter("client.orphans_created")),
      window_stalls_(host->metrics().Counter("client.window_stalls")),
      max_inflight_packets_(host->metrics().Gauge("client.max_inflight_packets")),
      parallel_read_fanouts_(host->metrics().Counter("client.parallel_read_fanouts")),
      router_(net->scheduler(), std::move(masters), host->metrics()),
      master_svc_(net, host->id(), &router_,
                  WithTimeout(opts->control_policy, opts->rpc_timeout), "client.master_rpcs"),
      meta_svc_(net, host->id(), &router_,
                WithTimeout(opts->control_policy, opts->rpc_timeout), "client.meta_rpcs"),
      data_svc_(net, host->id(), &router_, WithTimeout(opts->data_policy, opts->rpc_timeout),
                "client.data_rpcs"),
      volume_name_(std::move(volume_name)),
      inode_cache_(host->metrics().Counter("client.inode_cache_evictions")),
      readdir_cache_(host->metrics().Counter("client.readdir_cache_evictions")) {
  meta_svc_.set_refresh([this] { return RefreshVolume(); });
  data_svc_.set_refresh([this] { return RefreshVolume(); });
  meta_svc_.set_timeout_report(
      [this](PartitionId pid) { return ReportFailure(pid, /*is_meta=*/true); });
  data_svc_.set_timeout_report(
      [this](PartitionId pid) { return ReportFailure(pid, /*is_meta=*/false); });
  inode_cache_.set_capacity(opts_->metadata_cache_max_entries);
  readdir_cache_.set_capacity(opts_->metadata_cache_max_entries);
}

// --- Volume views (non-persistent master connections, §2.5.2) ----------------

sim::Task<Status> MountContext::Mount() {
  CFS_CO_RETURN_IF_ERROR(co_await RefreshVolume());
  mounted_ = true;
  refresh_gen_++;
  Spawn(RefreshLoop(refresh_gen_));
  co_return Status::OK();
}

void MountContext::Deactivate() {
  mounted_ = false;
  refresh_gen_++;
}

sim::Task<Status> MountContext::RefreshVolume() {
  master::GetVolumeReq req{volume_name_};
  auto r = co_await MasterCall<master::GetVolumeReq, master::GetVolumeResp>(std::move(req));
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  if (tenant_ == 0 && r->volume != 0) {
    // First view: the volume id doubles as the tenant label. Bind it onto
    // the stubs so every subsequent request carries who is calling.
    tenant_ = r->volume;
    master_svc_.set_tenant(tenant_);
    meta_svc_.set_tenant(tenant_);
    data_svc_.set_tenant(tenant_);
    obs::Registry& reg = host_->metrics();
    const std::string p = "tenant." + std::to_string(tenant_) + ".";
    tenant_ops_ = &reg.Counter(p + "ops");
    throttle_waits_ = &reg.Counter(p + "throttle_waits");
    throttle_wait_usec_ = &reg.Counter(p + "throttle_wait_usec");
    refresh_failures_ = &reg.Counter(p + "refresh_failures");
  }
  qos_ = r->qos;
  ApplyQos();
  router_.InstallViews(std::move(r->meta_partitions), std::move(r->data_partitions));
  co_return Status::OK();
}

void MountContext::ApplyQos() {
  // Reconfigure only on change so a steady refresh stream doesn't reset the
  // buckets' theoretical-arrival-time state (which would leak burst credit).
  if (qos_.iops_limit != iops_bucket_.rate()) {
    iops_bucket_.Configure(qos_.iops_limit, std::max<uint64_t>(1, qos_.iops_limit / 4));
  }
  if (qos_.bytes_per_sec != bytes_bucket_.rate()) {
    bytes_bucket_.Configure(qos_.bytes_per_sec,
                            std::max<uint64_t>(128 * kKiB, qos_.bytes_per_sec / 4));
  }
}

sim::Task<void> MountContext::Throttle(uint64_t bytes) {
  const SimTime now = sched().Now();
  SimDuration d = iops_bucket_.Reserve(1, now);
  if (bytes > 0) d = std::max(d, bytes_bucket_.Reserve(bytes, now));
  if (d > 0) {
    (*throttle_waits_)++;
    *throttle_wait_usec_ += static_cast<uint64_t>(d);
    co_await sim::SleepFor{sched(), d};
  }
}

Task<void> MountContext::RefreshLoop(uint64_t gen) {
  // Failed refreshes back off exponentially (seeded jitter, same schedule
  // class as the control stubs) instead of silently hammering the master
  // every interval; successes reset the streak so the steady-state schedule
  // is identical to the fixed-interval loop this replaces.
  rpc::RetryPolicy policy = opts_->control_policy;
  policy.max_attempts = 1 << 30;  // the loop itself decides when to stop
  rpc::Backoff backoff(&sched(), policy);
  while (mounted_ && refresh_gen_ == gen) {
    co_await sim::SleepFor{sched(), opts_->volume_refresh_interval};
    if (!mounted_ || refresh_gen_ != gen) break;
    Status st = co_await RefreshVolume();
    if (st.ok()) {
      backoff.Reset();
    } else {
      (*refresh_failures_)++;
      (void)backoff.NextAttempt();
      co_await backoff.Delay();
    }
  }
}

sim::Task<Status> MountContext::ReportFailure(PartitionId pid, bool is_meta) {
  auto r = co_await MasterCall<master::ReportPartitionFailureReq,
                               master::ReportPartitionFailureResp>(
      master::ReportPartitionFailureReq{pid, is_meta});
  co_return r.ok() ? r->status : r.status();
}

// --- Metadata cache ------------------------------------------------------------

void MountContext::CacheInode(const Inode& ino) {
  if (!opts_->enable_metadata_cache) return;
  inode_cache_.Put(ino.id, ino, sched().Now());
}

const Inode* MountContext::CachedInode(InodeId ino) {
  if (!opts_->enable_metadata_cache) return nullptr;
  return inode_cache_.Find(ino, sched().Now(), opts_->metadata_cache_ttl);
}

// --- Metadata workflows (Fig. 3) -----------------------------------------------

sim::Task<Result<Inode>> MountContext::Create(InodeId parent, std::string name,
                                              FileType type, std::string symlink_target) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(0);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  const rpc::Deadline dl = OpDeadline();
  obs::SpanScope op = BeginOp("op:create");
  // Step 1: create the inode on an available (randomly chosen) partition.
  // Placement retries ride the same backoff clock as the stubs.
  Inode inode;
  PartitionId ino_pid = 0;
  Status last = Status::Unavailable("no writable meta partition");
  rpc::Backoff backoff(&sched(), opts_->control_policy);
  while (backoff.NextAttempt()) {
    if (dl.Expired(sched().Now())) co_return Status::TimedOut("create deadline exceeded");
    MetaPartitionView* view = PickWritableMetaView();
    if (!view) {
      (void)co_await RefreshVolume();
      view = PickWritableMetaView();
      if (!view) {
        co_await backoff.Delay();
        continue;
      }
    }
    const PartitionId pid = view->pid;
    meta::MetaCreateInodeReq req{pid, type, symlink_target};
    auto r = co_await MetaCall<meta::MetaCreateInodeReq, meta::MetaCreateInodeResp>(
        pid, std::move(req), dl, op.ctx());
    if (!r.ok()) {
      last = r.status();
      continue;
    }
    if (r->status.IsNoSpace()) {
      // Range cut off by a split or the partition is full: skip it locally,
      // give the resource manager a beat to finish the split/expansion, then
      // re-fetch views.
      router_.MarkUnwritable(pid, sched().Now() + 2 * kSec);
      last = r->status;
      co_await backoff.Delay();
      (void)co_await RefreshVolume();
      continue;
    }
    if (!r->status.ok()) {
      last = r->status;
      continue;
    }
    inode = std::move(r->inode);
    ino_pid = pid;
    break;
  }
  if (ino_pid == 0) co_return last;

  // Step 2: only after the inode exists, create the dentry on the PARENT's
  // partition (the inode and dentry may live on different meta nodes, §2.6.1).
  MetaPartitionView* pview = MetaViewForInode(parent);
  Status dstatus = Status::NotFound("no partition for parent inode");
  if (pview) {
    Dentry d{parent, name, inode.id, type};
    meta::MetaCreateDentryReq req{pview->pid, std::move(d)};
    auto r = co_await MetaCall<meta::MetaCreateDentryReq, meta::MetaCreateDentryResp>(
        pview->pid, std::move(req), dl, op.ctx());
    dstatus = r.ok() ? r->status : r.status();
  }
  if (!dstatus.ok()) {
    // The dentry RPC is retried by the service layer, so a lost response
    // makes the retry observe its own first attempt as AlreadyExists (and a
    // timeout leaves the outcome unknown). Read the name back before undoing
    // the inode: if it already maps to our fresh inode, the create in fact
    // committed and unlinking here would leave a dangling dentry.
    pview = MetaViewForInode(parent);
    if (pview) {
      meta::MetaLookupReq lreq{pview->pid, parent, name};
      auto lr = co_await MetaCall<meta::MetaLookupReq, meta::MetaLookupResp>(
          pview->pid, std::move(lreq), dl, op.ctx());
      if (lr.ok() && lr->status.ok() && lr->dentry.inode == inode.id) {
        CacheInode(inode);
        readdir_cache_.Erase(parent);
        co_return inode;
      }
      if (!lr.ok() || (!lr->status.ok() && !lr->status.IsNotFound())) {
        // Still ambiguous: leave the inode alone. Unlinking (or parking it
        // for eviction) would dangle the dentry if it did land; leaking a
        // live inode is the safe side and fsck can reclaim it.
        co_return dstatus;
      }
    }
    // Fig. 3a failure path: unlink the fresh inode, park it on the local
    // orphan list, evict later.
    (void)co_await MetaCall<meta::MetaUnlinkInodeReq, meta::MetaUnlinkInodeResp>(
        ino_pid, meta::MetaUnlinkInodeReq{ino_pid, inode.id}, dl, op.ctx());
    orphans_.emplace_back(ino_pid, inode.id);
    orphans_created_++;
    co_return dstatus;
  }
  CacheInode(inode);
  readdir_cache_.Erase(parent);
  co_return inode;
}

sim::Task<Status> MountContext::Link(InodeId parent, std::string name, InodeId ino) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(0);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  const rpc::Deadline dl = OpDeadline();
  obs::SpanScope op = BeginOp("op:link");
  MetaPartitionView* iview = MetaViewForInode(ino);
  if (!iview) co_return Status::NotFound("inode partition");
  // Fig. 3b: nlink++ first...
  auto r = co_await MetaCall<meta::MetaLinkInodeReq, meta::MetaLinkInodeResp>(
      iview->pid, meta::MetaLinkInodeReq{iview->pid, ino}, dl, op.ctx());
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  // ...then the dentry on the target parent's partition.
  MetaPartitionView* pview = MetaViewForInode(parent);
  Status dstatus = Status::NotFound("parent partition");
  if (pview) {
    Dentry d{parent, name, ino, r->inode.type};
    meta::MetaCreateDentryReq req{pview->pid, std::move(d)};
    auto r2 = co_await MetaCall<meta::MetaCreateDentryReq, meta::MetaCreateDentryResp>(
        pview->pid, std::move(req), dl, op.ctx());
    dstatus = r2.ok() ? r2->status : r2.status();
  }
  if (!dstatus.ok()) {
    // Same read-back as Create: a retried dentry RPC can observe its own
    // first attempt as AlreadyExists. If the name maps to `ino`, the link
    // committed; undoing the nlink++ would leave more dentries than links.
    pview = MetaViewForInode(parent);
    if (pview) {
      meta::MetaLookupReq lreq{pview->pid, parent, name};
      auto lr = co_await MetaCall<meta::MetaLookupReq, meta::MetaLookupResp>(
          pview->pid, std::move(lreq), dl, op.ctx());
      if (lr.ok() && lr->status.ok() && lr->dentry.inode == ino) {
        readdir_cache_.Erase(parent);
        inode_cache_.Erase(ino);
        co_return Status::OK();
      }
      if (!lr.ok() || (!lr->status.ok() && !lr->status.IsNotFound())) {
        co_return dstatus;  // ambiguous: keep the extra link, never dangle
      }
    }
    // Failure path: undo the nlink increment.
    iview = MetaViewForInode(ino);
    if (iview) {
      (void)co_await MetaCall<meta::MetaUnlinkInodeReq, meta::MetaUnlinkInodeResp>(
          iview->pid, meta::MetaUnlinkInodeReq{iview->pid, ino}, dl, op.ctx());
    }
    co_return dstatus;
  }
  readdir_cache_.Erase(parent);
  inode_cache_.Erase(ino);
  co_return Status::OK();
}

sim::Task<Status> MountContext::Unlink(InodeId parent, std::string name) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(0);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  const rpc::Deadline dl = OpDeadline();
  obs::SpanScope op = BeginOp("op:unlink");
  MetaPartitionView* pview = MetaViewForInode(parent);
  if (!pview) co_return Status::NotFound("parent partition");
  // Fig. 3c: delete the dentry first; a dentry must always point at a live
  // inode, so the reverse order is never allowed.
  meta::MetaDeleteDentryReq req{pview->pid, parent, name};
  auto r = co_await MetaCall<meta::MetaDeleteDentryReq, meta::MetaDeleteDentryResp>(
      pview->pid, std::move(req), dl, op.ctx());
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  InodeId ino = r->dentry.inode;
  readdir_cache_.Erase(parent);
  inode_cache_.Erase(ino);

  // Then decrement nlink with retries; if every retry fails the inode
  // becomes an orphan for fsck/the administrator (§2.6.3). The decrement is
  // asynchronous by default (§2.7.3: deletes are async once the dentry is
  // gone, so the name disappears immediately and content reclamation
  // trails behind).
  MetaPartitionView* iview = MetaViewForInode(ino);
  if (!iview) co_return Status::OK();
  PartitionId ipid = iview->pid;
  auto decrement = [](MountContext* self, PartitionId pid, InodeId ino) -> sim::Task<void> {
    // Back-to-back retries would all land inside the same failure window;
    // space them out on the shared backoff clock instead.
    rpc::Backoff backoff(&self->sched(), self->opts_->control_policy);
    while (backoff.NextAttempt()) {
      meta::MetaUnlinkInodeReq req{pid, ino};
      auto r = co_await self->MetaCall<meta::MetaUnlinkInodeReq, meta::MetaUnlinkInodeResp>(
          pid, std::move(req));
      if (r.ok() && (r->status.ok() || r->status.IsNotFound())) co_return;
      if (!backoff.exhausted()) co_await backoff.Delay();
    }
    LOG_WARN("unlink of inode ", ino, " failed after retries; inode is now an orphan");
  };
  if (opts_->async_unlink) {
    Spawn(decrement(this, ipid, ino));
    co_return Status::OK();
  }
  co_await decrement(this, ipid, ino);
  co_return Status::OK();
}

sim::Task<Status> MountContext::Rename(InodeId old_parent, std::string old_name,
                                       InodeId new_parent, std::string new_name) {
  auto looked = co_await Lookup(old_parent, old_name);
  if (!looked.ok()) co_return looked.status();
  CFS_CO_RETURN_IF_ERROR(co_await Link(new_parent, new_name, looked->inode));
  co_return co_await Unlink(old_parent, old_name);
}

sim::Task<Result<Dentry>> MountContext::Lookup(InodeId parent, std::string name) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(0);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  // Serve from a fresh readdir cache when possible.
  if (opts_->enable_metadata_cache) {
    if (const std::vector<Dentry>* dents =
            readdir_cache_.Find(parent, sched().Now(), opts_->metadata_cache_ttl)) {
      for (const auto& d : *dents) {
        if (d.name == name) {
          cache_hits_++;
          co_return d;
        }
      }
    }
  }
  cache_misses_++;
  obs::SpanScope op = BeginOp("op:lookup");
  MetaPartitionView* pview = MetaViewForInode(parent);
  if (!pview) co_return Status::NotFound("parent partition");
  meta::MetaLookupReq req{pview->pid, parent, name};
  auto r = co_await MetaCall<meta::MetaLookupReq, meta::MetaLookupResp>(
      pview->pid, std::move(req), OpDeadline(), op.ctx());
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  co_return r->dentry;
}

sim::Task<Result<Inode>> MountContext::GetInode(InodeId ino) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(0);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  if (const Inode* cached = CachedInode(ino)) {
    cache_hits_++;
    co_return *cached;
  }
  cache_misses_++;
  obs::SpanScope op = BeginOp("op:getinode");
  MetaPartitionView* view = MetaViewForInode(ino);
  if (!view) co_return Status::NotFound("inode partition");
  auto r = co_await MetaCall<meta::MetaGetInodeReq, meta::MetaGetInodeResp>(
      view->pid, meta::MetaGetInodeReq{view->pid, ino}, OpDeadline(), op.ctx());
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  CacheInode(r->inode);
  co_return r->inode;
}

sim::Task<Result<std::vector<Dentry>>> MountContext::ReadDir(InodeId parent) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(0);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  if (opts_->enable_metadata_cache) {
    if (const std::vector<Dentry>* dents =
            readdir_cache_.Find(parent, sched().Now(), opts_->metadata_cache_ttl)) {
      cache_hits_++;
      co_return *dents;
    }
  }
  cache_misses_++;
  obs::SpanScope op = BeginOp("op:readdir");
  MetaPartitionView* pview = MetaViewForInode(parent);
  if (!pview) co_return Status::NotFound("parent partition");
  auto r = co_await MetaCall<meta::MetaReadDirReq, meta::MetaReadDirResp>(
      pview->pid, meta::MetaReadDirReq{pview->pid, parent}, OpDeadline(), op.ctx());
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  if (opts_->enable_metadata_cache) {
    readdir_cache_.Put(parent, r->dentries, sched().Now());
  }
  co_return std::move(r->dentries);
}

sim::Task<Result<std::vector<std::pair<Dentry, Inode>>>> MountContext::ReadDirPlus(
    InodeId parent) {
  // The DirStat path (§4.2): readdir, then ONE batchInodeGet per meta
  // partition instead of per-inode fetches, with client-side caching.
  const rpc::Deadline dl = OpDeadline();
  obs::SpanScope op = BeginOp("op:readdirplus");
  auto dentries = co_await ReadDir(parent);
  if (!dentries.ok()) co_return dentries.status();

  std::vector<std::pair<Dentry, Inode>> out;
  std::map<PartitionId, std::vector<InodeId>> missing;
  std::map<InodeId, const Dentry*> by_ino;
  for (const auto& d : *dentries) {
    by_ino[d.inode] = &d;
    if (const Inode* cached = CachedInode(d.inode)) {
      cache_hits_++;
      out.emplace_back(d, *cached);
      continue;
    }
    MetaPartitionView* view = MetaViewForInode(d.inode);
    if (view) missing[view->pid].push_back(d.inode);
  }
  for (auto& [pid, inos] : missing) {
    cache_misses_++;
    meta::MetaBatchInodeGetReq req{pid, inos};
    auto r = co_await MetaCall<meta::MetaBatchInodeGetReq, meta::MetaBatchInodeGetResp>(
        pid, std::move(req), dl, op.ctx());
    if (!r.ok()) co_return r.status();
    if (!r->status.ok()) co_return r->status;
    for (auto& ino : r->inodes) {
      CacheInode(ino);
      auto dit = by_ino.find(ino.id);
      if (dit != by_ino.end()) out.emplace_back(*dit->second, std::move(ino));
    }
  }
  co_return out;
}

sim::Task<void> MountContext::EvictOrphans() {
  auto orphans = std::move(orphans_);
  orphans_.clear();
  for (auto& [pid, ino] : orphans) {
    auto r = co_await MetaCall<meta::MetaEvictInodeReq, meta::MetaEvictInodeResp>(
        pid, meta::MetaEvictInodeReq{pid, ino});
    if (!r.ok() || !r->status.ok()) orphans_.emplace_back(pid, ino);  // retry later
  }
}

// --- File I/O (§2.7) -----------------------------------------------------------

sim::Task<Status> MountContext::Open(InodeId ino) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(0);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  // "When a file is opened for read/write, the client will force the cached
  // metadata to be synchronous with the meta node" (§2.4).
  inode_cache_.Erase(ino);
  auto r = co_await GetInode(ino);
  if (!r.ok()) co_return r.status();
  OpenFile of;
  of.inode = std::move(*r);
  // Resume appending into the file's last extent when it is private to this
  // file (extent_offset == 0) — small-file slots are immutable.
  if (!of.inode.extents.empty()) {
    const ExtentKey& last = of.inode.extents.back();
    if (last.extent_offset == 0) {
      of.append_pid = last.partition_id;
      of.append_extent = last.extent_id;
      of.append_extent_size = last.size;
    }
  }
  of.pending_size = of.inode.size;
  open_files_[ino] = std::move(of);
  co_return Status::OK();
}

sim::Task<Status> MountContext::Close(InodeId ino) {
  Status st = co_await Fsync(ino);
  open_files_.erase(ino);
  co_return st;
}

sim::Task<Status> MountContext::Fsync(InodeId ino) {
  auto it = open_files_.find(ino);
  if (it == open_files_.end()) co_return Status::OK();
  if (!it->second.dirty) co_return Status::OK();
  const rpc::Deadline dl = OpDeadline();
  obs::SpanScope op = BeginOp("op:fsync");
  MetaPartitionView* view = MetaViewForInode(ino);
  if (!view) co_return Status::NotFound("inode partition");
  const PartitionId pid = view->pid;
  // Snapshot the pending extents: open_files_ can be mutated by concurrent
  // ops while this coroutine is suspended in MetaCall, invalidating any
  // reference into the map (A1).
  const std::vector<ExtentKey> pending = it->second.pending_keys;
  const uint64_t pending_size = it->second.pending_size;
  for (const ExtentKey& key : pending) {
    auto r = co_await MetaCall<meta::MetaAppendExtentReq, meta::MetaAppendExtentResp>(
        pid, meta::MetaAppendExtentReq{pid, ino, key, pending_size}, dl, op.ctx());
    if (!r.ok()) co_return r.status();
    if (!r->status.ok()) co_return r->status;
  }
  // Keep the local inode view current (§2.7.1: update cache immediately,
  // sync with meta node on fsync).  Re-look the entry up: the map may have
  // rehomed it while we were suspended above.
  it = open_files_.find(ino);
  if (it == open_files_.end()) co_return Status::OK();
  OpenFile& of = it->second;
  for (const ExtentKey& key : pending) {
    bool merged = false;
    for (auto& e : of.inode.extents) {
      if (e.partition_id == key.partition_id && e.extent_id == key.extent_id &&
          e.extent_offset == key.extent_offset && e.file_offset == key.file_offset) {
        e.size = std::max(e.size, key.size);
        merged = true;
        break;
      }
    }
    if (!merged) of.inode.extents.push_back(key);
  }
  of.inode.size = std::max(of.inode.size, pending_size);
  of.pending_keys.clear();
  of.dirty = false;
  CacheInode(of.inode);
  co_return Status::OK();
}

sim::Task<Status> MountContext::WriteSmallFile(OpenFile& of, Buffer data,
                                               rpc::Deadline dl, obs::TraceContext trace) {
  // §4.4: "the CFS client does not need to ask the resource manager for new
  // extents; instead, it sends the write request to the data node directly."
  Status last = Status::Unavailable("no writable data partition");
  rpc::Backoff backoff(&sched(), opts_->control_policy);
  while (backoff.NextAttempt()) {
    if (dl.Expired(sched().Now())) co_return Status::TimedOut("write deadline exceeded");
    DataPartitionView* view = PickWritableDataView();
    if (!view) {
      (void)co_await RefreshVolume();
      view = PickWritableDataView();
      if (!view) {
        co_await backoff.Delay();
        continue;
      }
    }
    const PartitionId pid = view->pid;
    data::WriteSmallReq req{pid, data};  // refcount share; retries re-send the same buffer
    auto r = co_await data_svc_.ChainCall<data::WriteSmallReq, data::WriteSmallResp>(
        pid, std::move(req), rpc::CallOptions{dl, nullptr, trace});
    if (!r.ok()) {
      last = r.status();
      co_await backoff.Delay();
      continue;
    }
    if (!r->status.ok()) {
      if (r->status.IsNoSpace()) {
        router_.MarkUnwritable(pid, sched().Now() + 2 * kSec);
      }
      last = r->status;
      continue;
    }
    ExtentKey key{0, pid, r->extent_id, r->extent_offset, data.size()};
    of.pending_keys.push_back(key);
    of.pending_size = std::max(of.pending_size, static_cast<uint64_t>(data.size()));
    of.dirty = true;
    co_return Status::OK();
  }
  co_return last;
}

namespace {

// Shared state of one window "session": all the packets streamed to a single
// extent between two drain points of the sliding-window append pipeline.
struct WindowCtl {
  sim::Semaphore sem;     // in-flight packet slots
  sim::Notifier drained;  // fires when inflight drops to zero
  int inflight = 0;
  bool failed = false;    // some packet was rejected or its RPC was lost
  bool rpc_lost = false;  // at least one failure carried no leader response
  // Largest committed offset the leader reported across all delivered
  // responses (recovers commits whose own acks were lost in flight).
  uint64_t leader_committed = 0;
  // Contiguous prefix of OK-acked bytes, plus out-of-order acked ranges
  // (begin -> end) ahead of it.
  uint64_t acked_prefix = 0;
  std::map<uint64_t, uint64_t> acked;

  WindowCtl(sim::Scheduler* sched, int permits, uint64_t base)
      : sem(sched, permits), drained(sched), acked_prefix(base) {}
};

// Detached per-packet sender: occupies one window slot until its ack (or
// timeout) comes back, then releases the slot to the writer. Goes through
// the client's metered channel so window packets show up in the per-RPC
// metrics like every other leg.
Task<void> SendWindowPacket(rpc::Channel* channel, sim::NodeId self, sim::NodeId target,
                            SimDuration timeout, std::shared_ptr<WindowCtl> ctl,
                            data::WritePacketReq pkt, obs::TraceContext trace) {
  const uint64_t begin = pkt.offset;
  const uint64_t end = begin + pkt.data.size();
  auto r = co_await channel->Unary<data::WritePacketReq, data::WritePacketResp>(
      self, target, std::move(pkt), timeout, trace);
  if (r.ok()) {
    ctl->leader_committed = std::max(ctl->leader_committed, r->committed_offset);
  }
  if (r.ok() && r->status.ok()) {
    // A success ack means [begin, end) is durable on every replica even if a
    // predecessor is still in flight; fold it into the acked ranges.
    auto [it, inserted] = ctl->acked.emplace(begin, end);
    if (!inserted) it->second = std::max(it->second, end);
    while (!ctl->acked.empty() && ctl->acked.begin()->first <= ctl->acked_prefix) {
      ctl->acked_prefix = std::max(ctl->acked_prefix, ctl->acked.begin()->second);
      ctl->acked.erase(ctl->acked.begin());
    }
  } else {
    ctl->failed = true;
    if (!r.ok()) ctl->rpc_lost = true;
  }
  ctl->inflight--;
  ctl->sem.Release();
  if (ctl->inflight == 0) ctl->drained.NotifyAll();
}

}  // namespace

sim::Task<Status> MountContext::AppendData(OpenFile& of, uint64_t file_offset,
                                           Buffer data, rpc::Deadline dl,
                                           obs::TraceContext trace) {
  // Sliding-window pipeline: up to write_window_packets WritePacketReqs in
  // flight against the active extent; the committed prefix (and with it
  // pending_keys / append_extent_size) only advances over bytes the leader
  // confirmed contiguously. window=1 degenerates to the paper's stop-and-wait
  // packet train.
  uint64_t remaining = data.size();
  uint64_t pos = 0;  // bytes of `data` committed so far
  const uint64_t extent_limit = 128 * kMiB;
  const int window = std::max(1, opts_->write_window_packets);
  PartitionId avoid_pid = 0;  // partition the previous session failed on
  while (remaining > 0) {
    if (dl.Expired(sched().Now())) co_return Status::TimedOut("write deadline exceeded");
    // Ensure an active extent with room.
    if (of.append_pid == 0 || of.append_extent_size >= extent_limit) {
      Status alloc = Status::Unavailable("no writable data partition");
      bool allocated = false;
      rpc::Backoff backoff(&sched(), opts_->control_policy);
      while (backoff.NextAttempt()) {
        if (dl.Expired(sched().Now())) co_return Status::TimedOut("write deadline exceeded");
        DataPartitionView* view = PickWritableDataView(avoid_pid);
        if (!view) {
          (void)co_await RefreshVolume();
          view = PickWritableDataView(avoid_pid);
          if (!view) {
            co_await backoff.Delay();
            continue;
          }
        }
        const PartitionId pid = view->pid;
        auto r = co_await data_svc_.ChainCall<data::CreateExtentReq, data::CreateExtentResp>(
            pid, data::CreateExtentReq{pid}, rpc::CallOptions{dl, nullptr, trace});
        if (!r.ok()) {
          alloc = r.status();
          co_await backoff.Delay();
          continue;
        }
        if (!r->status.ok()) {
          if (r->status.IsNoSpace()) {
            router_.MarkUnwritable(pid, sched().Now() + 2 * kSec);
          }
          alloc = r->status;
          continue;
        }
        of.append_pid = pid;
        of.append_extent = r->extent_id;
        of.append_extent_size = 0;
        allocated = true;
        break;
      }
      if (!allocated) co_return alloc;
    }

    DataPartitionView* view = DataView(of.append_pid);
    if (!view) co_return Status::NotFound("data partition vanished");
    const sim::NodeId target = view->replicas[0];

    // --- One window session against the active extent ---
    const uint64_t base = of.append_extent_size;
    auto ctl = std::make_shared<WindowCtl>(&sched(), window, base);
    // All packets of the session group under one "client:window" span so the
    // trace shows the pipeline depth, not a flat run of rpc legs.
    obs::SpanScope session;
    if (sched().tracer().enabled() && trace.valid()) {
      obs::Tracer& tracer = sched().tracer();
      session = obs::SpanScope(
          &tracer, tracer.BeginSpan("client:window", trace, host_->id()));
      session.Note("window", window);
    }
    const obs::TraceContext pkt_parent = session.ctx().valid() ? session.ctx() : trace;
    uint64_t next_off = base;   // extent offset of the next packet
    uint64_t send_pos = pos;    // data position of the next packet
    int64_t packets = 0, session_stalls = 0, max_occupancy = 0;
    while (send_pos < data.size() && next_off < extent_limit && !ctl->failed) {
      if (co_await ctl->sem.Acquire()) {
        window_stalls_++;
        session_stalls++;
      }
      if (ctl->failed) {
        ctl->sem.Release();
        break;
      }
      uint64_t chunk = std::min({data.size() - send_pos, opts_->packet_size,
                                 extent_limit - next_off});
      data::WritePacketReq pkt;
      pkt.pid = of.append_pid;
      pkt.extent_id = of.append_extent;
      pkt.offset = next_off;
      pkt.data = data.Slice(send_pos, chunk);  // view of the caller's buffer, no copy
      // The raw channel is shared across mounts, so the tenant label is
      // stamped per-packet rather than bound on the channel.
      pkt.tenant = tenant_;
      ctl->inflight++;
      packets++;
      max_occupancy = std::max<int64_t>(max_occupancy, ctl->inflight);
      max_inflight_packets_ =
          std::max<int64_t>(max_inflight_packets_, static_cast<int64_t>(ctl->inflight));
      data_rpcs_++;
      Spawn(SendWindowPacket(channel_, host_->id(), target,
                             dl.ClampTimeout(sched().Now(), opts_->rpc_timeout), ctl,
                             std::move(pkt), pkt_parent));
      next_off += chunk;
      send_pos += chunk;
    }
    // Drain the window before touching the commit bookkeeping.
    while (ctl->inflight > 0) co_await ctl->drained.Wait();
    session.Note("packets", packets);
    session.Note("stalls", session_stalls);
    session.Note("max_occupancy", max_occupancy);

    uint64_t committed_end =
        std::clamp(std::max(ctl->acked_prefix, ctl->leader_committed), base, next_off);
    uint64_t advanced = committed_end - base;
    if (advanced > 0) {
      // Record/extend the pending extent key for the committed prefix.
      bool merged = false;
      for (auto& key : of.pending_keys) {
        if (key.partition_id == of.append_pid && key.extent_id == of.append_extent &&
            key.file_offset + key.size == file_offset + pos) {
          key.size += advanced;
          merged = true;
          break;
        }
      }
      if (!merged) {
        ExtentKey key;
        key.file_offset = file_offset + pos - base;  // where this extent begins
        key.partition_id = of.append_pid;
        key.extent_id = of.append_extent;
        key.extent_offset = 0;
        key.size = base + advanced;
        of.pending_keys.push_back(key);
      }
      of.append_extent_size = committed_end;
      pos += advanced;
      remaining -= advanced;
      of.pending_size = std::max(of.pending_size, file_offset + pos);
      of.dirty = true;
    }
    if (ctl->failed) {
      // §2.2.5: "the client will resend a write request for the remaining
      // k−p MB data to the extents in different data partitions/nodes."
      resends_++;
      suffix_resend_bytes_ += next_off - committed_end;
      avoid_pid = of.append_pid;
      of.append_pid = 0;
      of.append_extent = 0;
      of.append_extent_size = 0;
      if (ctl->rpc_lost) (void)co_await RefreshVolume();
    } else {
      avoid_pid = 0;
    }
  }
  co_return Status::OK();
}

sim::Task<Status> MountContext::OverwriteData(OpenFile& of, uint64_t offset,
                                              Buffer data, rpc::Deadline dl,
                                              obs::TraceContext trace) {
  // In-place (§2.7.2): locate the covering extent keys; offsets don't move;
  // NO metadata update is needed — the paper's key overwrite advantage.
  uint64_t end = offset + data.size();
  // Consider both synced and pending keys.  Snapshot them by value: the
  // OpenFile's extent vectors can grow (and reallocate) while this coroutine
  // is suspended in DataLeaderCall, so interior pointers would dangle (A1).
  std::vector<ExtentKey> keys;
  for (const auto& k : of.inode.extents) keys.push_back(k);
  for (const auto& k : of.pending_keys) keys.push_back(k);
  for (const ExtentKey& k : keys) {
    uint64_t k_end = k.file_offset + k.size;
    if (k_end <= offset || k.file_offset >= end) continue;
    uint64_t piece_begin = std::max(offset, k.file_offset);
    uint64_t piece_end = std::min(end, k_end);
    Buffer piece = data.Slice(piece_begin - offset, piece_end - piece_begin);
    uint64_t extent_off = k.extent_offset + (piece_begin - k.file_offset);
    data::OverwriteReq req{k.partition_id, k.extent_id, extent_off, std::move(piece)};
    auto r = co_await DataLeaderCall<data::OverwriteReq, data::OverwriteResp>(
        k.partition_id, std::move(req), dl, trace);
    if (!r.ok()) co_return r.status();
    if (!r->status.ok()) co_return r->status;
  }
  co_return Status::OK();
}

sim::Task<Status> MountContext::Write(InodeId ino, uint64_t offset, Buffer buf) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(buf.size());
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  const rpc::Deadline dl = OpDeadline();
  auto it = open_files_.find(ino);
  if (it == open_files_.end()) {
    CFS_CO_RETURN_IF_ERROR(co_await Open(ino));
    it = open_files_.find(ino);
  }
  obs::SpanScope op = BeginOp("op:write");
  op.Note("bytes", static_cast<int64_t>(buf.size()));
  uint64_t size = it->second.pending_size;
  if (offset > size) co_return Status::InvalidArgument("write beyond EOF (no holes)");

  // Small-file fast path (§2.2.3): whole file fits under the threshold.
  if (offset == 0 && size == 0 && buf.size() <= opts_->small_file_threshold &&
      it->second.inode.extents.empty() && it->second.pending_keys.empty()) {
    co_return co_await WriteSmallFile(it->second, std::move(buf), dl, op.ctx());
  }

  // §2.7.2: split into the overwritten portion and the appended portion.
  uint64_t overwrite_end = std::min<uint64_t>(offset + buf.size(), size);
  if (offset < overwrite_end) {
    CFS_CO_RETURN_IF_ERROR(co_await OverwriteData(
        it->second, offset, buf.Slice(0, overwrite_end - offset), dl, op.ctx()));
  }
  if (overwrite_end < offset + buf.size()) {
    // Re-look the entry up after the overwrite suspension: open_files_ may
    // have been mutated while this coroutine was parked (A1).
    it = open_files_.find(ino);
    if (it == open_files_.end()) co_return Status::NotFound("file closed during write");
    CFS_CO_RETURN_IF_ERROR(co_await AppendData(
        it->second, overwrite_end, buf.Slice(overwrite_end - offset, buf.size()), dl,
        op.ctx()));
  }
  co_return Status::OK();
}

sim::Task<Result<Buffer>> MountContext::Read(InodeId ino, uint64_t offset, uint64_t len) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(len);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  const rpc::Deadline dl = OpDeadline();
  obs::SpanScope op = BeginOp("op:read");
  op.Note("bytes", static_cast<int64_t>(len));
  // Use open-file state if present (read-your-own-writes), else the cached
  // or fetched inode.
  const Inode* inode = nullptr;
  std::vector<const ExtentKey*> keys;
  uint64_t size = 0;
  auto oit = open_files_.find(ino);
  if (oit != open_files_.end()) {
    inode = &oit->second.inode;
    size = oit->second.pending_size;
    for (const auto& k : oit->second.pending_keys) keys.push_back(&k);
  } else {
    auto r = co_await GetInode(ino);
    if (!r.ok()) co_return r.status();
    CacheInode(*r);
    inode = CachedInode(ino);
    if (!inode) co_return Status::NotFound("inode");
    size = inode->size;
  }
  for (const auto& k : inode->extents) keys.push_back(&k);

  if (offset >= size) co_return Buffer();
  len = std::min(len, size - offset);
  uint64_t end = offset + len;

  // Collect the covering pieces up front. Keys are copied by value: the
  // fan-out below suspends, and pending_keys can reallocate under a
  // concurrent writer on the same file.
  struct Piece {
    ExtentKey key;
    uint64_t begin;
    uint64_t end;
  };
  std::vector<Piece> pieces;
  for (const ExtentKey* k : keys) {
    uint64_t k_end = k->file_offset + k->size;
    if (k_end <= offset || k->file_offset >= end) continue;
    Piece pc{*k, std::max(offset, k->file_offset), std::min(end, k_end)};
    pieces.push_back(std::move(pc));
  }

  if (pieces.size() == 1 && pieces[0].begin == offset && pieces[0].end == end) {
    // Single extent covering the whole range (the common random-read case):
    // stay inline and hand the data node's payload back without a copy.
    const Piece& pc = pieces[0];
    uint64_t extent_off = pc.key.extent_offset + (pc.begin - pc.key.file_offset);
    data::ReadExtentReq req{pc.key.partition_id, pc.key.extent_id, extent_off,
                            pc.end - pc.begin};
    auto r = co_await DataLeaderCall<data::ReadExtentReq, data::ReadExtentResp>(
        pc.key.partition_id, std::move(req), dl, op.ctx());
    if (!r.ok()) co_return r.status();
    if (!r->status.ok()) co_return r->status;
    co_return std::move(r->data);
  }

  std::string out(len, '\0');

  // Multi-extent read: fan the per-extent ReadExtentReqs out concurrently and
  // stitch the pieces into `out` (alive across the join — this frame owns it).
  if (!pieces.empty()) {
    parallel_read_fanouts_++;
    op.Note("fanout", static_cast<int64_t>(pieces.size()));
    std::vector<Status> piece_status(pieces.size(), Status::OK());
    sim::Join join(&sched(), static_cast<int>(pieces.size()));
    for (size_t i = 0; i < pieces.size(); i++) {
      Piece pc = pieces[i];
      Spawn([](MountContext* self, Piece pc, uint64_t offset, rpc::Deadline dl,
               obs::TraceContext trace, std::string* out, Status* st,
               std::function<void()> done) -> Task<void> {
        uint64_t extent_off = pc.key.extent_offset + (pc.begin - pc.key.file_offset);
        data::ReadExtentReq req{pc.key.partition_id, pc.key.extent_id, extent_off,
                                pc.end - pc.begin};
        auto r = co_await self->DataLeaderCall<data::ReadExtentReq, data::ReadExtentResp>(
            pc.key.partition_id, std::move(req), dl, trace);
        if (!r.ok()) {
          *st = r.status();
        } else if (!r->status.ok()) {
          *st = r->status;
        } else {
          out->replace(pc.begin - offset, r->data.size(), r->data.data(), r->data.size());
        }
        done();
      }(this, std::move(pc), offset, dl, op.ctx(), &out, &piece_status[i], join.Arrive()));
    }
    co_await join.Wait();
    for (const Status& st : piece_status) {
      if (!st.ok()) co_return st;  // fail the read on the first piece error
    }
  }
  co_return Buffer::FromString(std::move(out));
}

void MountContext::InjectPreparedFile(InodeId ino, std::vector<ExtentKey> keys,
                                      uint64_t size) {
  OpenFile of;
  of.inode.id = ino;
  of.inode.type = FileType::kFile;
  of.inode.nlink = 1;
  of.inode.size = size;
  of.inode.extents = std::move(keys);
  of.pending_size = size;
  of.dirty = false;
  open_files_[ino] = std::move(of);
}

sim::Task<Status> MountContext::Truncate(InodeId ino, uint64_t new_size) {
  if (!mounted_) co_return Status::Unavailable("volume unmounted");
  (*tenant_ops_)++;
  if (ThrottleEnabled()) co_await Throttle(0);
  co_await host_->cpu().Use(opts_->client_cpu_per_op);
  obs::SpanScope op = BeginOp("op:truncate");
  MetaPartitionView* view = MetaViewForInode(ino);
  if (!view) co_return Status::NotFound("inode partition");
  auto r = co_await MetaCall<meta::MetaTruncateReq, meta::MetaTruncateResp>(
      view->pid, meta::MetaTruncateReq{view->pid, ino, new_size}, OpDeadline(), op.ctx());
  if (!r.ok()) co_return r.status();
  inode_cache_.Erase(ino);
  auto oit = open_files_.find(ino);
  if (oit != open_files_.end()) {
    oit->second.pending_size = std::min(oit->second.pending_size, new_size);
    oit->second.inode.size = std::min(oit->second.inode.size, new_size);
  }
  co_return r->status;
}

// ============================================================================
// Client: the multi-mount shell.
// ============================================================================

Client::Client(sim::Network* net, sim::Host* host, std::vector<sim::NodeId> masters,
               const ClientOptions& opts)
    : net_(net),
      host_(host),
      masters_(std::move(masters)),
      opts_(opts),
      channel_(net) {}

sim::Task<Status> Client::Mount(std::string volume) {
  return MountImpl(std::move(volume));
}

sim::Task<Status> Client::MountImpl(std::string volume) {
  auto r = co_await MountVolumeImpl(std::move(volume));
  co_return r.ok() ? Status::OK() : r.status();
}

sim::Task<Result<MountContext*>> Client::MountVolume(std::string volume) {
  return MountVolumeImpl(std::move(volume));
}

sim::Task<Result<MountContext*>> Client::MountVolumeImpl(std::string volume) {
  auto it = mounts_.find(volume);
  if (it != mounts_.end()) {
    // Idempotent: mounting a volume twice hands back the live context.
    MountContext* existing = it->second.get();
    if (default_mount_ == nullptr) default_mount_ = existing;
    co_return existing;
  }
  auto ctx = std::make_unique<MountContext>(net_, host_, masters_, &opts_, &channel_, volume);
  MountContext* raw = ctx.get();
  Status st = co_await raw->Mount();
  if (!st.ok()) co_return st;
  mounts_.emplace(std::move(volume), std::move(ctx));
  if (default_mount_ == nullptr) default_mount_ = raw;
  co_return raw;
}

Status Client::Unmount(const std::string& volume) {
  auto it = mounts_.find(volume);
  if (it == mounts_.end()) return Status::NotFound("volume not mounted");
  MountContext* ctx = it->second.get();
  ctx->Deactivate();
  // Retire, don't destroy: detached coroutines started under this mount
  // (refresh sleep, async unlink decrements, window packets) may still hold
  // the context pointer and must land on live memory.
  retired_mounts_.push_back(std::move(it->second));
  mounts_.erase(it);
  if (default_mount_ == ctx) {
    default_mount_ = mounts_.empty() ? nullptr : mounts_.begin()->second.get();
  }
  return Status::OK();
}

void Client::UnmountAll() {
  while (!mounts_.empty()) {
    (void)Unmount(mounts_.begin()->first);
  }
}

MountContext* Client::mount(const std::string& volume) {
  auto it = mounts_.find(volume);
  return it == mounts_.end() ? nullptr : it->second.get();
}

// --- Default-mount delegation ---------------------------------------------------

sim::Task<Result<Inode>> Client::Create(InodeId parent, std::string name, FileType type,
                                        std::string symlink_target) {
  if (!default_mount_) return FailWith<Result<Inode>>(Status::Unavailable("no mounted volume"));
  return default_mount_->Create(parent, std::move(name), type, std::move(symlink_target));
}

sim::Task<Status> Client::Link(InodeId parent, std::string name, InodeId ino) {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->Link(parent, std::move(name), ino);
}

sim::Task<Status> Client::Unlink(InodeId parent, std::string name) {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->Unlink(parent, std::move(name));
}

sim::Task<Status> Client::Rename(InodeId old_parent, std::string old_name,
                                 InodeId new_parent, std::string new_name) {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->Rename(old_parent, std::move(old_name), new_parent,
                                std::move(new_name));
}

sim::Task<Result<Dentry>> Client::Lookup(InodeId parent, std::string name) {
  if (!default_mount_) return FailWith<Result<Dentry>>(Status::Unavailable("no mounted volume"));
  return default_mount_->Lookup(parent, std::move(name));
}

sim::Task<Result<Inode>> Client::GetInode(InodeId ino) {
  if (!default_mount_) return FailWith<Result<Inode>>(Status::Unavailable("no mounted volume"));
  return default_mount_->GetInode(ino);
}

sim::Task<Result<std::vector<Dentry>>> Client::ReadDir(InodeId parent) {
  if (!default_mount_) {
    return FailWith<Result<std::vector<Dentry>>>(Status::Unavailable("no mounted volume"));
  }
  return default_mount_->ReadDir(parent);
}

sim::Task<Result<std::vector<std::pair<Dentry, Inode>>>> Client::ReadDirPlus(InodeId parent) {
  if (!default_mount_) {
    return FailWith<Result<std::vector<std::pair<Dentry, Inode>>>>(
        Status::Unavailable("no mounted volume"));
  }
  return default_mount_->ReadDirPlus(parent);
}

sim::Task<Status> Client::Open(InodeId ino) {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->Open(ino);
}

sim::Task<Status> Client::Close(InodeId ino) {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->Close(ino);
}

sim::Task<Status> Client::Write(InodeId ino, uint64_t offset, Buffer data) {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->Write(ino, offset, std::move(data));
}

sim::Task<Result<Buffer>> Client::Read(InodeId ino, uint64_t offset, uint64_t len) {
  if (!default_mount_) return FailWith<Result<Buffer>>(Status::Unavailable("no mounted volume"));
  return default_mount_->Read(ino, offset, len);
}

sim::Task<Status> Client::Fsync(InodeId ino) {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->Fsync(ino);
}

sim::Task<Status> Client::Truncate(InodeId ino, uint64_t new_size) {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->Truncate(ino, new_size);
}

sim::Task<void> Client::EvictOrphans() {
  return EvictOrphansImpl();
}

sim::Task<void> Client::EvictOrphansImpl() {
  // Snapshot the context pointers: mounts_ can gain/lose entries while this
  // coroutine is suspended, and retirement keeps every pointer alive for the
  // Client's lifetime, so the frame-local copy stays safe to walk.
  std::vector<MountContext*> targets;
  for (const auto& [name, ctx] : mounts_) targets.push_back(ctx.get());
  for (MountContext* m : targets) {
    co_await m->EvictOrphans();
  }
}

size_t Client::orphan_count() const {
  size_t n = 0;
  for (const auto& [name, ctx] : mounts_) n += ctx->orphan_count();
  return n;
}

sim::Task<Status> Client::RefreshVolume() {
  if (!default_mount_) return FailWith<Status>(Status::Unavailable("no mounted volume"));
  return default_mount_->RefreshVolume();
}

void Client::InjectPreparedFile(InodeId ino, std::vector<ExtentKey> keys, uint64_t size) {
  if (default_mount_) default_mount_->InjectPreparedFile(ino, std::move(keys), size);
}

}  // namespace cfs::client
