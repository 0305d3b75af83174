#include "meta/meta_node.h"

#include "common/logging.h"

namespace cfs::meta {

using sim::Spawn;
using sim::Task;

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
  auto idx = co_await node->ProposeIndexed(std::move(cmd), {}, trace);
  if (!idx.ok()) {
    res.status = idx.status();
    co_return res;
  }
  auto taken = mp->TakeResult(*idx);
  if (!taken) {
    res.status = Status::Retry("apply result pruned");
    co_return res;
  }
  if (exec_observer_) {
    exec_observer_(net_->scheduler()->Now() - exec_start, trace.trace_id);
  }
  co_return std::move(*taken);
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
      // Drain a bounded batch per scan so one partition cannot starve others.
      for (int n = 0; n < 64 && !mp->free_list().empty(); n++) {
        InodeId ino_id = mp->free_list().front();
        ApplyResult res = co_await Execute(pid, MetaPartition::EncodeEvictInode(ino_id));
        if (!res.status.ok()) break;
        if (purger_ && !res.inode.extents.empty()) {
          // Content purge runs asynchronously; losing the race with a crash
          // only leaks disk space until fsck, never corrupts metadata.
          Spawn([](ExtentPurger purger, Inode ino) -> Task<void> {
            (void)co_await purger(std::move(ino));
          }(purger_, std::move(res.inode)));
        }
      }
    }
  }
}

void MetaNode::RegisterHandlers() {
  host_->Register<MetaCreateInodeReq, MetaCreateInodeResp>(
      [this](MetaCreateInodeReq req, sim::NodeId) -> Task<MetaCreateInodeResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(
            req.pid,
            MetaPartition::EncodeCreateInode(req.type, req.link_target,
                                             net_->scheduler()->Now()),
            req.trace);
        co_return MetaCreateInodeResp{res.status, std::move(res.inode)};
      });

  host_->Register<MetaUnlinkInodeReq, MetaUnlinkInodeResp>(
      [this](MetaUnlinkInodeReq req, sim::NodeId) -> Task<MetaUnlinkInodeResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(req.pid, MetaPartition::EncodeUnlinkInode(req.ino),
                                           req.trace);
        co_return MetaUnlinkInodeResp{res.status, res.value, std::move(res.inode)};
      });

  host_->Register<MetaLinkInodeReq, MetaLinkInodeResp>(
      [this](MetaLinkInodeReq req, sim::NodeId) -> Task<MetaLinkInodeResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(req.pid, MetaPartition::EncodeLinkInode(req.ino),
                                           req.trace);
        co_return MetaLinkInodeResp{res.status, std::move(res.inode)};
      });

  host_->Register<MetaEvictInodeReq, MetaEvictInodeResp>(
      [this](MetaEvictInodeReq req, sim::NodeId) -> Task<MetaEvictInodeResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(req.pid, MetaPartition::EncodeEvictInode(req.ino),
                                           req.trace);
        co_return MetaEvictInodeResp{res.status, std::move(res.inode)};
      });

  host_->Register<MetaCreateDentryReq, MetaCreateDentryResp>(
      [this](MetaCreateDentryReq req, sim::NodeId) -> Task<MetaCreateDentryResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeCreateDentry(req.dentry), req.trace);
        co_return MetaCreateDentryResp{res.status};
      });

  host_->Register<MetaDeleteDentryReq, MetaDeleteDentryResp>(
      [this](MetaDeleteDentryReq req, sim::NodeId) -> Task<MetaDeleteDentryResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeDeleteDentry(req.parent, req.name), req.trace);
        co_return MetaDeleteDentryResp{res.status, std::move(res.dentry)};
      });

  host_->Register<MetaAppendExtentReq, MetaAppendExtentResp>(
      [this](MetaAppendExtentReq req, sim::NodeId) -> Task<MetaAppendExtentResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeAppendExtent(req.ino, req.key, req.new_size),
            req.trace);
        co_return MetaAppendExtentResp{res.status, std::move(res.inode)};
      });

  host_->Register<MetaSetAttrReq, MetaSetAttrResp>(
      [this](MetaSetAttrReq req, sim::NodeId) -> Task<MetaSetAttrResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeSetAttr(req.ino, req.size, req.mtime), req.trace);
        co_return MetaSetAttrResp{res.status};
      });

  host_->Register<MetaTruncateReq, MetaTruncateResp>(
      [this](MetaTruncateReq req, sim::NodeId) -> Task<MetaTruncateResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
        ApplyResult res = co_await Execute(
            req.pid, MetaPartition::EncodeTruncate(req.ino, req.new_size), req.trace);
        co_return MetaTruncateResp{res.status, std::move(res.inode)};
      });

  // --- Reads: served from leader memory, no consensus round (§2.7.4) ---

  host_->Register<MetaGetInodeReq, MetaGetInodeResp>(
      [this](MetaGetInodeReq req, sim::NodeId) -> Task<MetaGetInodeResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
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
        ops_++;
        // One request amortizes the per-op cost across the batch.
        const SimDuration batch_cost =
            opts_.cpu_per_op + static_cast<SimDuration>(req.inos.size()) / 4;
        auto admit = co_await admission_.Enter(req.tenant, batch_cost);
        co_await host_->cpu().Use(batch_cost);
        MetaBatchInodeGetResp resp;
        resp.status = CheckLeader(req.pid);
        if (!resp.status.ok()) co_return resp;
        resp.inodes = GetPartition(req.pid)->BatchInodeGet(req.inos);
        co_return resp;
      });

  host_->Register<MetaLookupReq, MetaLookupResp>(
      [this](MetaLookupReq req, sim::NodeId) -> Task<MetaLookupResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
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
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, opts_.cpu_per_op);
        co_await host_->cpu().Use(opts_.cpu_per_op);
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
