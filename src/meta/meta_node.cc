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
    : net_(net), host_(host), raft_(raft),
      admission_(net->scheduler(), host->metrics(), "qos.meta") {
  admission_.Configure(opts.admission_slots);
  RegisterHandlers();
  Spawn(PurgeLoop());
}

Status MetaNode::CreatePartition(const MetaPartitionConfig& config,
                                 const std::vector<sim::NodeId>& peers) {
  if (partitions_.Find(config.id)) return Status::AlreadyExists("partition");
  // The volume's WFQ share rides along with every partition install, so the
  // admission queue learns tenant weights without a separate control RPC.
  admission_.SetWeight(config.volume, config.qos_weight);
  MetaPartition* mp = partitions_.Add(std::make_unique<MetaPartition>(config, host_));
  mp->set_raft_node(
      raft_->CreateGroup(RaftGid(config.id), peers, mp, host_->disk(kMetaRaftDisk)));
  mp->raft_node()->Start();
  return Status::OK();
}

Task<ApplyResult> MetaNode::Execute(PartitionId pid, std::string cmd,
                                    obs::TraceContext trace) {
  const SimTime exec_start = net_->scheduler()->Now();
  ApplyResult res;
  Result<MetaPartition*> mp = partitions_.RaftLeader(pid);
  if (!mp.ok()) {
    res.status = mp.status();
    co_return res;
  }
  if ((*mp)->read_only()) {
    res.status = Status::Unavailable("partition is read-only");
    co_return res;
  }
  Status st = co_await (*mp)->raft_node()->Propose(std::move(cmd), {}, trace, &res);
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
    r.is_leader = mp->raft_node()->IsLeader();
    r.full = mp->IsFull();
    out.push_back(r);
  }
  return out;
}

sim::Task<void> MetaNode::RecoverAll() {
  // Iterate a snapshot of the ids: Recover() suspends, and partitions_ can
  // gain entries while this coroutine is parked (A1).
  for (PartitionId pid : partitions_.Ids()) {
    MetaPartition* mp = partitions_.Find(pid);
    if (mp) (void)co_await mp->raft_node()->Recover();
  }
}

sim::Task<void> MetaNode::PurgeLoop() {
  // "There will be a separate process to clear up this inode and communicate
  // with the data node to delete the file content" (§2.7.3). Runs on the
  // raft leader of each partition.
  while (true) {
    co_await sim::SleepFor{*net_->scheduler(), kPurgeInterval};
    if (!host_->up()) continue;
    // Snapshot the partition ids: Execute suspends on raft, and partitions_
    // can gain entries (partition split/create) while this coroutine is
    // parked, invalidating a live iterator into the map (A1).
    for (PartitionId pid : partitions_.Ids()) {
      MetaPartition* mp = partitions_.Find(pid);
      if (!mp || !mp->raft_node()->IsLeader()) continue;
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

template <typename Req, typename Resp, typename Cmd, typename Reply>
void MetaNode::RegisterWrite(Cmd cmd, Reply reply) {
  host_->Register<Req, Resp>([this, cmd, reply](Req req, sim::NodeId) -> Task<Resp> {
    auto admit = co_await admission_.Serve(req.tenant, kMetaCpuPerOp, &host_->cpu());
    ApplyResult res = co_await Execute(req.pid, cmd(req), req.trace);
    co_return reply(res);
  });
}

void MetaNode::RegisterHandlers() {
  RegisterWrite<MetaCreateInodeReq, MetaCreateInodeResp>(
      [this](const auto& req) {
        return MetaPartition::EncodeCreateInode(req.type, req.link_target,
                                                net_->scheduler()->Now());
      },
      [](ApplyResult& res) { return MetaCreateInodeResp{res.status, std::move(res.inode)}; });
  RegisterWrite<MetaUnlinkInodeReq, MetaUnlinkInodeResp>(
      [](const auto& req) { return MetaPartition::EncodeUnlinkInode(req.ino); },
      [](ApplyResult& res) {
        return MetaUnlinkInodeResp{res.status, res.value, std::move(res.inode)};
      });
  RegisterWrite<MetaLinkInodeReq, MetaLinkInodeResp>(
      [](const auto& req) { return MetaPartition::EncodeLinkInode(req.ino); },
      [](ApplyResult& res) { return MetaLinkInodeResp{res.status, std::move(res.inode)}; });
  RegisterWrite<MetaEvictInodeReq, MetaEvictInodeResp>(
      [](const auto& req) { return MetaPartition::EncodeEvictInode(req.inos); },
      [](ApplyResult& res) { return MetaEvictInodeResp{res.status}; });
  RegisterWrite<MetaCreateDentryReq, MetaCreateDentryResp>(
      [](const auto& req) { return MetaPartition::EncodeCreateDentry(req.dentry); },
      [](ApplyResult& res) { return MetaCreateDentryResp{res.status}; });
  RegisterWrite<MetaDeleteDentryReq, MetaDeleteDentryResp>(
      [](const auto& req) { return MetaPartition::EncodeDeleteDentry(req.parent, req.name); },
      [](ApplyResult& res) { return MetaDeleteDentryResp{res.status, std::move(res.dentry)}; });
  RegisterWrite<MetaAppendExtentReq, MetaAppendExtentResp>(
      [](const auto& req) {
        return MetaPartition::EncodeAppendExtent(req.ino, req.key, req.new_size);
      },
      [](ApplyResult& res) { return MetaAppendExtentResp{res.status, std::move(res.inode)}; });
  RegisterWrite<MetaSetAttrReq, MetaSetAttrResp>(
      [](const auto& req) { return MetaPartition::EncodeSetAttr(req.ino, req.size, req.mtime); },
      [](ApplyResult& res) { return MetaSetAttrResp{res.status}; });
  RegisterWrite<MetaTruncateReq, MetaTruncateResp>(
      [](const auto& req) { return MetaPartition::EncodeTruncate(req.ino, req.new_size); },
      [](ApplyResult& res) { return MetaTruncateResp{res.status, std::move(res.inode)}; });

  // --- Reads: served from leader memory, no consensus round (§2.7.4) ---

  host_->Register<MetaGetInodeReq, MetaGetInodeResp>(
      [this](MetaGetInodeReq req, sim::NodeId) -> Task<MetaGetInodeResp> {
        auto admit = co_await admission_.Serve(req.tenant, kMetaCpuPerOp, &host_->cpu());
        Result<MetaPartition*> mp = partitions_.RaftLeader(req.pid);
        if (!mp.ok()) co_return MetaGetInodeResp{mp.status()};
        const Inode* ino = (*mp)->GetInode(req.ino);
        if (!ino) co_return MetaGetInodeResp{Status::NotFound("inode " + std::to_string(req.ino))};
        co_return MetaGetInodeResp{Status::OK(), *ino};
      });

  host_->Register<MetaBatchInodeGetReq, MetaBatchInodeGetResp>(
      [this](MetaBatchInodeGetReq req, sim::NodeId) -> Task<MetaBatchInodeGetResp> {
        // One request amortizes the per-op cost across the batch.
        const SimDuration batch_cost =
            kMetaCpuPerOp + static_cast<SimDuration>(req.inos.size()) / 4;
        auto admit = co_await admission_.Serve(req.tenant, batch_cost, &host_->cpu());
        Result<MetaPartition*> mp = partitions_.RaftLeader(req.pid);
        if (!mp.ok()) co_return MetaBatchInodeGetResp{mp.status()};
        co_return MetaBatchInodeGetResp{Status::OK(), (*mp)->BatchInodeGet(req.inos)};
      });

  host_->Register<MetaLookupReq, MetaLookupResp>(
      [this](MetaLookupReq req, sim::NodeId) -> Task<MetaLookupResp> {
        auto admit = co_await admission_.Serve(req.tenant, kMetaCpuPerOp, &host_->cpu());
        Result<MetaPartition*> mp = partitions_.RaftLeader(req.pid);
        if (!mp.ok()) co_return MetaLookupResp{mp.status()};
        std::optional<Dentry> d = (*mp)->Lookup(req.parent, req.name);
        if (!d) co_return MetaLookupResp{Status::NotFound(req.name)};
        co_return MetaLookupResp{Status::OK(), std::move(*d)};
      });

  host_->Register<MetaReadDirReq, MetaReadDirResp>(
      [this](MetaReadDirReq req, sim::NodeId) -> Task<MetaReadDirResp> {
        auto admit = co_await admission_.Serve(req.tenant, kMetaCpuPerOp, &host_->cpu());
        Result<MetaPartition*> mp = partitions_.RaftLeader(req.pid);
        if (!mp.ok()) co_return MetaReadDirResp{mp.status()};
        co_return MetaReadDirResp{Status::OK(), (*mp)->ReadDir(req.parent)};
      });

  // --- Admin ---

  host_->Register<CreateMetaPartitionReq, CreateMetaPartitionResp>(
      [this](CreateMetaPartitionReq req, sim::NodeId) -> Task<CreateMetaPartitionResp> {
        co_await host_->cpu().Use(kMetaCpuPerOp);
        co_return CreateMetaPartitionResp{CreatePartition(req.config, req.peers)};
      });

  host_->Register<SplitMetaPartitionReq, SplitMetaPartitionResp>(
      [this](SplitMetaPartitionReq req, sim::NodeId) -> Task<SplitMetaPartitionResp> {
        co_await host_->cpu().Use(kMetaCpuPerOp);
        ApplyResult res = co_await Execute(req.pid, MetaPartition::EncodeSetEnd(req.end));
        MetaPartition* mp = GetPartition(req.pid);
        co_return SplitMetaPartitionResp{res.status, mp ? mp->max_inode_id() : 0};
      });
}

}  // namespace cfs::meta
