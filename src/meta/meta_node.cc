#include "meta/meta_node.h"

#include <algorithm>

#include "common/logging.h"

namespace cfs::meta {

using sim::Spawn;
using sim::Task;

namespace {
/// Most inode ids one purge evict entry carries: a bound on the raft entry's
/// size should unlinks ever outpace 8,192/s per partition (4,096 per scan).
constexpr size_t kMaxEvictBatch = 4096;
}  // namespace

MetaNode::MetaNode(sim::Network* net, sim::Host* host, raft::RaftHost* raft,
                   const MetaNodeOptions& opts)
    : net_(net), host_(host), raft_(raft), opts_(opts), admission_(net->scheduler(), host->metrics(), "qos.meta") {
  admission_.Configure(opts_.admission_slots);
  RegisterHandlers();
  Spawn(PurgeLoop());
}

Status MetaNode::CreatePartition(const MetaPartitionConfig& config,
                                 const std::vector<sim::NodeId>& peers, bool recover) {
  if (partitions_.count(config.id)) return Status::AlreadyExists("partition");
  // The volume's WFQ share rides along with every partition install, so the
  // admission queue learns tenant weights without a separate control RPC.
  admission_.SetWeight(config.volume, config.qos_weight);
  auto mp = std::make_unique<MetaPartition>(config, host_);
  MetaPartition* ptr = mp.get();
  partitions_[config.id] = std::move(mp);
  raft::RaftNode* node =
      raft_->CreateGroup(RaftGid(config.id), peers, ptr, host_->disk(opts_.raft_disk));
  if (recover) {
    Spawn([](raft::RaftNode* n) -> Task<void> { (void)co_await n->Recover(); }(node));
  } else {
    node->Start();
  }
  return Status::OK();
}

MetaPartition* MetaNode::GetPartition(PartitionId pid) {
  auto it = partitions_.find(pid);
  return it == partitions_.end() ? nullptr : it->second.get();
}

Status MetaNode::CheckLeader(PartitionId pid) const {
  auto it = partitions_.find(pid);
  if (it == partitions_.end()) return Status::NotFound("meta partition");
  raft::RaftNode* node = raft_->Get(RaftGid(pid));
  if (!node) return Status::NotFound("raft group");
  if (!node->IsLeader()) return Status::NotLeader(std::to_string(node->leader_hint()));
  return Status::OK();
}

Task<ApplyResult> MetaNode::Execute(PartitionId pid, std::string cmd,
                                    obs::TraceContext trace) {
  const SimTime exec_start = net_->scheduler()->Now();
  ApplyResult res;
  MetaPartition* mp = GetPartition(pid);
  if (!mp) {
    res.status = Status::NotFound("meta partition " + std::to_string(pid));
    co_return res;
  }
  raft::RaftNode* node = raft_->Get(RaftGid(pid));
  if (!node || !node->IsLeader()) {
    res.status = Status::NotLeader(node ? std::to_string(node->leader_hint()) : "0");
    co_return res;
  }
  if (mp->read_only()) {
    res.status = Status::Unavailable("partition is read-only");
    co_return res;
  }
  Status st = co_await node->Propose(std::move(cmd), {}, trace, &res);
  if (!st.ok()) {
    res.status = st;
    co_return res;
  }
  if (exec_observer_) {
    exec_observer_(net_->scheduler()->Now() - exec_start, trace.trace_id);
  }
  co_return res;
}

std::vector<MetaPartitionReport> MetaNode::Reports() const {
  std::vector<MetaPartitionReport> out;
  for (const auto& [pid, mp] : partitions_) {
    MetaPartitionReport r;
    r.pid = pid;
    r.volume = mp->config().volume;
    r.start = mp->config().start;
    r.end = mp->config().end;
    r.max_inode_id = mp->max_inode_id();
    r.item_count = mp->item_count();
    raft::RaftNode* node = raft_->Get(RaftGid(pid));
    r.is_leader = node && node->IsLeader();
    r.full = mp->IsFull();
    out.push_back(r);
  }
  return out;
}

sim::Task<void> MetaNode::RecoverAll() {
  co_await raft_->RecoverAll();
}

sim::Task<void> MetaNode::PurgeLoop() {
  // "There will be a separate process to clear up this inode and communicate
  // with the data node to delete the file content" (§2.7.3). Runs on the
  // raft leader of each partition.
  while (true) {
    co_await sim::SleepFor{*net_->scheduler(), opts_.purge_interval};
    if (!host_->up()) continue;
    // Snapshot the partition ids: Execute suspends on raft, and partitions_
    // can gain entries (partition split/create) while this coroutine is
    // parked, invalidating a live iterator into the map (A1).
    std::vector<PartitionId> pids;
    for (const auto& [pid, mp] : partitions_) pids.push_back(pid);
    for (PartitionId pid : pids) {
      auto pit = partitions_.find(pid);
      if (pit == partitions_.end()) continue;
      MetaPartition* mp = pit->second.get();
      raft::RaftNode* node = raft_->Get(RaftGid(pid));
      if (!node || !node->IsLeader()) continue;
      // One raft entry evicts the free list as it stands, up to the cap.
      const std::deque<InodeId>& free_list = mp->free_list();
      if (free_list.empty()) continue;
      const std::vector<InodeId> batch(
          free_list.begin(),
          free_list.begin() + static_cast<ptrdiff_t>(std::min(free_list.size(), kMaxEvictBatch)));
      ApplyResult res = co_await Execute(pid, MetaPartition::EncodeEvictInode(batch));
      if (!res.status.ok() || !purger_) continue;
      // Content purge runs asynchronously. Losing it only leaks disk space
      // until fsck, never corrupts metadata, but a whole batch is lost at
      // once: a crash here, or an Execute that fails after its entry
      // committed (propose timeout, lost leadership), leaks the content of
      // every inode the entry evicted.
      for (Inode& ino : res.evicted) {
        Spawn([](ExtentPurger purger, Inode ino) -> Task<void> {
          (void)co_await purger(std::move(ino));
        }(purger_, std::move(ino)));
      }
    }
  }
}

void MetaNode::RegisterHandlers() {
  host_->Register<MetaCreateInodeReq, MetaCreateInodeResp>(
      [this](MetaCreateInodeReq req, sim::NodeId) -> Task<MetaCreateInodeResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(
            req.pid,
            MetaPartition::EncodeCreateInode(req.type, req.link_target,
                                             net_->scheduler()->Now()),
            req.trace);
        co_return MetaCreateInodeResp{res.status, std::move(res.inode)};
      });

  host_->Register<MetaUnlinkInodeReq, MetaUnlinkInodeResp>(
      [this](MetaUnlinkInodeReq req, sim::NodeId) -> Task<MetaUnlinkInodeResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(req.pid, MetaPartition::EncodeUnlinkInode(req.ino),
                                           req.trace);
        co_return MetaUnlinkInodeResp{res.status, res.value, std::move(res.inode)};
      });

  host_->Register<MetaLinkInodeReq, MetaLinkInodeResp>(
      [this](MetaLinkInodeReq req, sim::NodeId) -> Task<MetaLinkInodeResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(req.pid, MetaPartition::EncodeLinkInode(req.ino),
                                           req.trace);
        co_return MetaLinkInodeResp{res.status, std::move(res.inode)};
      });

  host_->Register<MetaEvictInodeReq, MetaEvictInodeResp>(
      [this](MetaEvictInodeReq req, sim::NodeId) -> Task<MetaEvictInodeResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(req.pid, MetaPartition::EncodeEvictInode(req.inos),
                                           req.trace);
        co_return MetaEvictInodeResp{res.status};
      });

  host_->Register<MetaCreateDentryReq, MetaCreateDentryResp>(
      [this](MetaCreateDentryReq req, sim::NodeId) -> Task<MetaCreateDentryResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeCreateDentry(req.dentry), req.trace);
        co_return MetaCreateDentryResp{res.status};
      });

  host_->Register<MetaDeleteDentryReq, MetaDeleteDentryResp>(
      [this](MetaDeleteDentryReq req, sim::NodeId) -> Task<MetaDeleteDentryResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeDeleteDentry(req.parent, req.name), req.trace);
        co_return MetaDeleteDentryResp{res.status, std::move(res.dentry)};
      });

  host_->Register<MetaAppendExtentReq, MetaAppendExtentResp>(
      [this](MetaAppendExtentReq req, sim::NodeId) -> Task<MetaAppendExtentResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeAppendExtent(req.ino, req.key, req.new_size),
            req.trace);
        co_return MetaAppendExtentResp{res.status, std::move(res.inode)};
      });

  host_->Register<MetaSetAttrReq, MetaSetAttrResp>(
      [this](MetaSetAttrReq req, sim::NodeId) -> Task<MetaSetAttrResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeSetAttr(req.ino, req.size, req.mtime), req.trace);
        co_return MetaSetAttrResp{res.status};
      });

  host_->Register<MetaTruncateReq, MetaTruncateResp>(
      [this](MetaTruncateReq req, sim::NodeId) -> Task<MetaTruncateResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeTruncate(req.ino, req.new_size), req.trace);
        co_return MetaTruncateResp{res.status, std::move(res.inode)};
      });

  // --- Reads: served from leader memory, no consensus round (§2.7.4) ---

  host_->Register<MetaGetInodeReq, MetaGetInodeResp>(
      [this](MetaGetInodeReq req, sim::NodeId) -> Task<MetaGetInodeResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        MetaGetInodeResp resp;
        resp.status = CheckLeader(req.pid);
        if (!resp.status.ok()) co_return resp;
        const Inode* ino = GetPartition(req.pid)->GetInode(req.ino);
        if (!ino) {
          resp.status = Status::NotFound("inode " + std::to_string(req.ino));
          co_return resp;
        }
        resp.inode = *ino;
        co_return resp;
      });

  host_->Register<MetaBatchInodeGetReq, MetaBatchInodeGetResp>(
      [this](MetaBatchInodeGetReq req, sim::NodeId) -> Task<MetaBatchInodeGetResp> {
        // One request amortizes the per-op cost across the batch.
        const SimDuration batch_cost =
            opts_.cpu_per_op + static_cast<SimDuration>(req.inos.size()) / 4;
        auto admit = co_await admission_.Serve(req.tenant, batch_cost, &host_->cpu());
        MetaBatchInodeGetResp resp;
        resp.status = CheckLeader(req.pid);
        if (!resp.status.ok()) co_return resp;
        resp.inodes = GetPartition(req.pid)->BatchInodeGet(req.inos);
        co_return resp;
      });

  host_->Register<MetaLookupReq, MetaLookupResp>(
      [this](MetaLookupReq req, sim::NodeId) -> Task<MetaLookupResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        MetaLookupResp resp;
        resp.status = CheckLeader(req.pid);
        if (!resp.status.ok()) co_return resp;
        const Dentry* d = GetPartition(req.pid)->Lookup(req.parent, req.name);
        if (!d) {
          resp.status = Status::NotFound(req.name);
          co_return resp;
        }
        resp.dentry = *d;
        co_return resp;
      });

  host_->Register<MetaReadDirReq, MetaReadDirResp>(
      [this](MetaReadDirReq req, sim::NodeId) -> Task<MetaReadDirResp> {
        auto admit = co_await admission_.Serve(req.tenant, opts_.cpu_per_op, &host_->cpu());
        MetaReadDirResp resp;
        resp.status = CheckLeader(req.pid);
        if (!resp.status.ok()) co_return resp;
        resp.dentries = GetPartition(req.pid)->ReadDir(req.parent);
        co_return resp;
      });

  // --- Admin ---

  host_->Register<CreateMetaPartitionReq, CreateMetaPartitionResp>(
      [this](CreateMetaPartitionReq req, sim::NodeId) -> Task<CreateMetaPartitionResp> {
        co_await host_->cpu().Use(opts_.cpu_per_op);
        co_return CreateMetaPartitionResp{CreatePartition(req.config, req.peers)};
      });

  host_->Register<SplitMetaPartitionReq, SplitMetaPartitionResp>(
      [this](SplitMetaPartitionReq req, sim::NodeId) -> Task<SplitMetaPartitionResp> {
        co_await host_->cpu().Use(opts_.cpu_per_op);
        SplitMetaPartitionResp resp;
        ApplyResult res = co_await Execute(req.pid, MetaPartition::EncodeSetEnd(req.end));
        resp.status = res.status;
        MetaPartition* mp = GetPartition(req.pid);
        if (mp) resp.max_inode_id = mp->max_inode_id();
        co_return resp;
      });
}

}  // namespace cfs::meta
