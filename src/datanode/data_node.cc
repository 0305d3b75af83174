#include "datanode/data_node.h"

#include "common/logging.h"

namespace cfs::data {

using sim::Spawn;
using sim::Task;

DataNode::DataNode(sim::Network* net, sim::Host* host, raft::RaftHost* raft,
                   const DataNodeOptions& opts)
    : net_(net), host_(host), raft_(raft), opts_(opts), channel_(net),
      admission_(net->scheduler(), host->metrics(), "qos.data") {
  admission_.Configure(opts_.admission_slots);
  RegisterHandlers();
}

Status DataNode::CreatePartition(const DataPartitionConfig& config, bool recover) {
  if (partitions_.count(config.id)) return Status::AlreadyExists("partition");
  // Admission weights ride along with partition installs.
  admission_.SetWeight(config.volume, config.qos_weight);
  DataPartitionConfig cfg = config;
  cfg.store.track_contents = opts_.track_contents;
  if (cfg.disk_index < 0) {
    // The resource manager leaves the disk choice to the node: pick the
    // least-utilized local disk (utilization-based placement, §2.3.1),
    // breaking fresh-disk ties round-robin so partition load spreads.
    int best = static_cast<int>(next_disk_++ % host_->num_disks());
    uint64_t best_used = host_->disk(best)->used_bytes();
    for (int i = 0; i < host_->num_disks(); i++) {
      if (host_->disk(i)->used_bytes() < best_used) {
        best = i;
        best_used = host_->disk(i)->used_bytes();
      }
    }
    cfg.disk_index = best;
  }
  auto dp = std::make_unique<DataPartition>(cfg, net_, host_, raft_);
  DataPartition* ptr = dp.get();
  partitions_[config.id] = std::move(dp);
  if (recover) {
    Spawn([](raft::RaftNode* n) -> Task<void> { (void)co_await n->Recover(); }(
        ptr->raft_node()));
  } else {
    ptr->raft_node()->Start();
  }
  return Status::OK();
}

DataPartition* DataNode::GetPartition(PartitionId pid) {
  auto it = partitions_.find(pid);
  return it == partitions_.end() ? nullptr : it->second.get();
}

std::vector<DataPartitionReport> DataNode::Reports() const {
  std::vector<DataPartitionReport> out;
  for (const auto& [pid, dp] : partitions_) {
    DataPartitionReport r;
    r.pid = pid;
    r.volume = dp->config().volume;
    r.extents = dp->store().num_extents();
    r.used_bytes = dp->store().physical_bytes();
    r.is_chain_leader = dp->IsChainLeader();
    r.is_raft_leader = dp->raft_node()->IsLeader();
    r.full = dp->IsFull();
    r.read_only = dp->read_only();
    out.push_back(r);
  }
  return out;
}

sim::Task<void> DataNode::RecoverAll() {
  // Snapshot the partition ids: recovery suspends on peer RPCs, and
  // partitions_ can gain entries (CreateDataPartition) while this coroutine
  // is parked, invalidating live iterators into the map (A1).
  std::vector<PartitionId> pids;
  for (const auto& [pid, dp] : partitions_) pids.push_back(pid);
  // Phase 1 (§2.2.5): primary-backup recovery — check and align all extents.
  for (PartitionId pid : pids) {
    auto it = partitions_.find(pid);
    if (it == partitions_.end()) continue;
    it->second->ReinitAfterRecovery();
    co_await AlignPartition(it->second.get());
  }
  // Phase 2: raft recovery of the overwrite groups.
  for (PartitionId pid : pids) {
    auto it = partitions_.find(pid);
    if (it == partitions_.end()) continue;
    (void)co_await it->second->raft_node()->Recover();
  }
}

sim::Task<void> DataNode::AlignPartition(DataPartition* p) {
  // Copy the replica list: the partition's config lives outside this frame
  // and the loop body suspends on peer RPCs (A1).
  const std::vector<sim::NodeId> replicas = p->config().replicas;
  for (sim::NodeId peer : replicas) {
    if (peer == host_->id()) continue;
    auto info = co_await channel_.Unary<ExtentInfoReq, ExtentInfoResp>(
        host_->id(), peer, ExtentInfoReq{p->id()}, opts_.chain_rpc_timeout);
    if (!info.ok() || !info->status.ok()) continue;
    for (const ExtentInfo& e : info->extents) {
      if (!p->store().Has(e.id)) {
        (void)p->store().CreateExtentWithId(e.id, e.tiny);
      }
      uint64_t local = p->store().ExtentSize(e.id);
      if (e.size <= local) continue;
      // Fetch the missing suffix from the longer peer.
      auto fetched = co_await channel_.Unary<FetchRangeReq, FetchRangeResp>(
          host_->id(), peer, FetchRangeReq{p->id(), e.id, local, e.size - local},
          opts_.chain_rpc_timeout);
      if (!fetched.ok() || !fetched->status.ok()) continue;
      (void)co_await p->store().PlaceAt(e.id, local, fetched->data);
      p->set_committed(e.id, p->store().ExtentSize(e.id));
    }
  }
}

Task<Status> DataNode::ForwardChainImpl(DataPartition* p, ChainAppendReq req) {
  uint32_t next = req.chain_index + 1;
  if (next >= p->config().replicas.size()) co_return Status::OK();
  req.chain_index = next;
  sim::NodeId target = p->config().replicas[next];
  // Each hop re-parents on the incoming context, so a traced write shows one
  // "rpc:ChainAppend" span per chain position.
  obs::TraceContext trace = req.trace;
  auto r = co_await channel_.Unary<ChainAppendReq, ChainAppendResp>(
      host_->id(), target, std::move(req), opts_.chain_rpc_timeout, trace);
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

Task<Status> DataNode::ForwardChainCreateImpl(DataPartition* p, ChainCreateExtentReq req) {
  uint32_t next = req.chain_index + 1;
  if (next >= p->config().replicas.size()) co_return Status::OK();
  req.chain_index = next;
  sim::NodeId target = p->config().replicas[next];
  auto r = co_await channel_.Unary<ChainCreateExtentReq, ChainCreateExtentResp>(
      host_->id(), target, req, opts_.chain_rpc_timeout, req.trace);
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

void DataNode::RegisterHandlers() {
  host_->Register<CreateDataPartitionReq, CreateDataPartitionResp>(
      [this](CreateDataPartitionReq req, sim::NodeId) -> Task<CreateDataPartitionResp> {
        co_await host_->cpu().Use(OpCost(0));
        co_return CreateDataPartitionResp{CreatePartition(req.config)};
      });

  host_->Register<CreateExtentReq, CreateExtentResp>(
      [this](CreateExtentReq req, sim::NodeId) -> Task<CreateExtentResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, OpCost(0));
        co_await host_->cpu().Use(OpCost(0));
        CreateExtentResp resp;
        DataPartition* p = GetPartition(req.pid);
        if (!p) {
          resp.status = Status::NotFound("data partition");
          co_return resp;
        }
        if (!p->IsChainLeader()) {
          resp.status = Status::NotLeader(std::to_string(p->config().replicas.empty()
                                                             ? 0
                                                             : p->config().replicas[0]));
          co_return resp;
        }
        if (p->read_only() || p->IsFull()) {
          resp.status = Status::NoSpace("partition full or read-only");
          co_return resp;
        }
        storage::ExtentId id = p->AllocExtentId();
        Status st = p->store().CreateExtentWithId(id, false);
        if (st.ok()) {
          st = co_await ForwardChainCreate(p, ChainCreateExtentReq{req.pid, id, 0, req.trace});
        }
        resp.status = st;
        resp.extent_id = id;
        co_return resp;
      });

  host_->Register<ChainCreateExtentReq, ChainCreateExtentResp>(
      [this](ChainCreateExtentReq req, sim::NodeId) -> Task<ChainCreateExtentResp> {
        co_await host_->cpu().Use(OpCost(0));
        DataPartition* p = GetPartition(req.pid);
        if (!p) co_return ChainCreateExtentResp{Status::NotFound("data partition")};
        Status st = p->store().CreateExtentWithId(req.extent_id, false);
        if (st.IsAlreadyExists()) st = Status::OK();  // retried chain
        if (st.ok()) st = co_await ForwardChainCreate(p, req);
        co_return ChainCreateExtentResp{st};
      });

  // Sequential write packet (Fig. 4): the primary overlaps its local append
  // with the chain forward — both must succeed before the committed offset
  // advances ("committed by all the replicas", §2.2.5) — then acks the
  // client with the contiguous committed offset. Pipelined clients keep
  // several packets in flight, so completions can arrive out of order; the
  // durable-range tracker in DataPartition keeps the commit contiguous.
  host_->Register<WritePacketReq, WritePacketResp>(
      [this](WritePacketReq req, sim::NodeId) -> Task<WritePacketResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, OpCost(req.data.size()));
        co_await host_->cpu().Use(OpCost(req.data.size()));
        WritePacketResp resp;
        DataPartition* p = GetPartition(req.pid);
        if (!p) {
          resp.status = Status::NotFound("data partition");
          co_return resp;
        }
        if (!p->IsChainLeader()) {
          resp.status = Status::NotLeader("");
          co_return resp;
        }
        if (p->read_only()) {
          resp.status = Status::Unavailable("read-only");
          resp.committed_offset = p->committed(req.extent_id);
          co_return resp;
        }
        uint64_t end_offset = req.offset + req.data.size();
        if (end_offset > p->store().options().extent_size_limit) {
          resp.status = Status::NoSpace("extent full");
          resp.committed_offset = p->committed(req.extent_id);
          co_return resp;
        }
        // A packet can (rarely) overtake its predecessor on the wire when the
        // trailing packet is much smaller than the jitter window. Wait
        // briefly for the gap to fill instead of failing the whole window;
        // the wakeup timer bounds the wait if the predecessor was lost.
        for (int spin = 0; spin < 3 && p->store().Has(req.extent_id) &&
                           p->store().ExtentSize(req.extent_id) < req.offset;
             spin++) {
          sim::Notifier* gate = &p->placement_gate();
          net_->scheduler()->After(opts_.chain_rpc_timeout, [gate] { gate->NotifyAll(); });
          co_await gate->Wait();
        }
        if (p->store().ExtentSize(req.extent_id) != req.offset) {
          // Missing extent, lost predecessor, or an overlapping retry: report
          // the committed offset so the client resends the suffix elsewhere.
          resp.status = Status::Unavailable("packet out of order");
          resp.committed_offset = p->committed(req.extent_id);
          co_return resp;
        }
        // Overlap the local placement with the chain replication; the
        // request frame outlives both (we join below), so the local path
        // reads the payload in place and only the forward hop copies it.
        Status local_st, fwd_st;
        sim::Join join(net_->scheduler(), 2);
        Spawn([](DataPartition* p, ExtentId extent, uint64_t offset, Buffer data,
                 obs::TraceContext trace, Status* out, std::function<void()> done) -> Task<void> {
          *out = co_await p->store().PlaceAt(extent, offset, data, trace);
          if (out->ok()) p->placement_gate().NotifyAll();
          done();
        }(p, req.extent_id, req.offset, req.data, req.trace, &local_st, join.Arrive()));
        ChainAppendReq fwd;
        fwd.pid = req.pid;
        fwd.extent_id = req.extent_id;
        fwd.offset = req.offset;
        fwd.tiny = false;
        fwd.data = req.data;
        fwd.chain_index = 0;
        fwd.trace = req.trace;
        Spawn([](DataNode* self, DataPartition* p, ChainAppendReq fwd, Status* out,
                 std::function<void()> done) -> Task<void> {
          *out = co_await self->ForwardChain(p, std::move(fwd));
          done();
        }(this, p, std::move(fwd), &fwd_st, join.Arrive()));
        co_await join.Wait();
        if (local_st.ok() && fwd_st.ok()) {
          p->MarkDurable(req.extent_id, req.offset, end_offset);
          resp.status = Status::OK();
        } else {
          resp.status = local_st.ok() ? std::move(fwd_st) : std::move(local_st);
        }
        resp.committed_offset = p->committed(req.extent_id);
        co_return resp;
      });

  host_->Register<ChainAppendReq, ChainAppendResp>(
      [this](ChainAppendReq req, sim::NodeId) -> Task<ChainAppendResp> {
        co_await host_->cpu().Use(OpCost(req.data.size()));
        DataPartition* p = GetPartition(req.pid);
        if (!p) co_return ChainAppendResp{Status::NotFound("data partition")};
        // Apply from a view of the request payload, then forward the same
        // buffer downstream: one buffer per hop (the apply only copies when
        // it has to park an out-of-order arrival).
        Status st = co_await p->ApplyChainAppend(req.extent_id, req.offset, req.data,
                                                 req.tiny, req.trace);
        if (st.ok()) st = co_await ForwardChain(p, std::move(req));
        co_return ChainAppendResp{st};
      });

  // Small-file write (§2.2.3): the primary assigns the slot in the active
  // tiny extent; the placement replicates down the chain.
  host_->Register<WriteSmallReq, WriteSmallResp>(
      [this](WriteSmallReq req, sim::NodeId) -> Task<WriteSmallResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, OpCost(req.data.size()));
        co_await host_->cpu().Use(OpCost(req.data.size()));
        WriteSmallResp resp;
        DataPartition* p = GetPartition(req.pid);
        if (!p) {
          resp.status = Status::NotFound("data partition");
          co_return resp;
        }
        if (!p->IsChainLeader()) {
          resp.status = Status::NotLeader("");
          co_return resp;
        }
        if (p->read_only() || p->IsFull()) {
          resp.status = Status::NoSpace("partition full or read-only");
          co_return resp;
        }
        auto placed = co_await p->store().WriteSmall(req.data, req.trace);
        if (!placed.ok()) {
          resp.status = placed.status();
          co_return resp;
        }
        auto [extent, offset] = *placed;
        uint64_t len = req.data.size();
        ChainAppendReq fwd{req.pid, extent, offset, true, std::move(req.data), 0, req.trace};
        Status st = co_await ForwardChain(p, std::move(fwd));
        // Durable-range commit (not a blind max): concurrent small writes
        // into the shared tiny extent can complete out of slot order.
        if (st.ok()) p->MarkDurable(extent, offset, offset + len);
        resp.status = st;
        resp.extent_id = extent;
        resp.extent_offset = offset;
        co_return resp;
      });

  // Overwrite (Fig. 5): raft-replicated, in-place, no metadata update.
  host_->Register<OverwriteReq, OverwriteResp>(
      [this](OverwriteReq req, sim::NodeId) -> Task<OverwriteResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, OpCost(req.data.size()));
        co_await host_->cpu().Use(OpCost(req.data.size()));
        DataPartition* p = GetPartition(req.pid);
        if (!p) co_return OverwriteResp{Status::NotFound("data partition")};
        raft::RaftNode* rn = p->raft_node();
        if (!rn->IsLeader()) {
          co_return OverwriteResp{Status::NotLeader(std::to_string(rn->leader_hint()))};
        }
        // Validate against local state before paying for consensus.
        const storage::Extent* e = p->store().Find(req.extent_id);
        if (!e) co_return OverwriteResp{Status::NotFound("extent")};
        if (req.offset + req.data.size() > e->size) {
          co_return OverwriteResp{Status::InvalidArgument("overwrite beyond extent end")};
        }
        auto idx = co_await rn->ProposeIndexed(
            DataPartition::EncodeOverwriteHead(req.extent_id, req.offset, req.data.size()),
            req.data, req.trace);
        if (!idx.ok()) co_return OverwriteResp{idx.status()};
        auto st = p->TakeResult(*idx);
        co_return OverwriteResp{st.value_or(Status::OK())};
      });

  // Read at the raft leader (§2.7.4), bounded by the committed offset.
  host_->Register<ReadExtentReq, ReadExtentResp>(
      [this](ReadExtentReq req, sim::NodeId) -> Task<ReadExtentResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, OpCost(req.len));
        co_await host_->cpu().Use(OpCost(req.len));
        ReadExtentResp resp;
        DataPartition* p = GetPartition(req.pid);
        if (!p) {
          resp.status = Status::NotFound("data partition");
          co_return resp;
        }
        if (!p->raft_node()->IsLeader()) {
          resp.status = Status::NotLeader(std::to_string(p->raft_node()->leader_hint()));
          co_return resp;
        }
        // Stale tails beyond the committed offset are never returned
        // (§2.2.5). The chain leader knows the committed offset; other
        // replicas bound by their local size (data at equal offsets is
        // identical by the chain invariant).
        uint64_t bound = p->IsChainLeader() ? p->committed(req.extent_id)
                                            : p->store().ExtentSize(req.extent_id);
        if (bound == 0) bound = p->store().ExtentSize(req.extent_id);
        if (req.offset + req.len > bound) {
          resp.status = Status::InvalidArgument("read beyond committed offset");
          co_return resp;
        }
        auto r = co_await p->store().Read(req.extent_id, req.offset, req.len, req.trace);
        if (!r.ok()) {
          resp.status = r.status();
          co_return resp;
        }
        resp.data = std::move(*r);
        resp.status = Status::OK();
        co_return resp;
      });

  host_->Register<DeleteExtentReq, DeleteExtentResp>(
      [this](DeleteExtentReq req, sim::NodeId) -> Task<DeleteExtentResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, OpCost(0));
        co_await host_->cpu().Use(OpCost(0));
        DataPartition* p = GetPartition(req.pid);
        if (!p) co_return DeleteExtentResp{Status::NotFound("data partition")};
        raft::RaftNode* rn = p->raft_node();
        if (!rn->IsLeader()) {
          co_return DeleteExtentResp{Status::NotLeader(std::to_string(rn->leader_hint()))};
        }
        auto idx = co_await rn->ProposeIndexed(DataPartition::EncodeDeleteExtent(req.extent_id),
                                               {}, req.trace);
        if (!idx.ok()) co_return DeleteExtentResp{idx.status()};
        co_return DeleteExtentResp{p->TakeResult(*idx).value_or(Status::OK())};
      });

  host_->Register<PunchHoleReq, PunchHoleResp>(
      [this](PunchHoleReq req, sim::NodeId) -> Task<PunchHoleResp> {
        ops_++;
        auto admit = co_await admission_.Enter(req.tenant, OpCost(0));
        co_await host_->cpu().Use(OpCost(0));
        DataPartition* p = GetPartition(req.pid);
        if (!p) co_return PunchHoleResp{Status::NotFound("data partition")};
        raft::RaftNode* rn = p->raft_node();
        if (!rn->IsLeader()) {
          co_return PunchHoleResp{Status::NotLeader(std::to_string(rn->leader_hint()))};
        }
        auto idx = co_await rn->ProposeIndexed(
            DataPartition::EncodePunchHole(req.extent_id, req.offset, req.len), {},
            req.trace);
        if (!idx.ok()) co_return PunchHoleResp{idx.status()};
        co_return PunchHoleResp{p->TakeResult(*idx).value_or(Status::OK())};
      });

  // --- Recovery helpers ---

  host_->Register<ExtentInfoReq, ExtentInfoResp>(
      [this](ExtentInfoReq req, sim::NodeId) -> Task<ExtentInfoResp> {
        co_await host_->cpu().Use(OpCost(0));
        ExtentInfoResp resp;
        DataPartition* p = GetPartition(req.pid);
        if (!p) {
          resp.status = Status::NotFound("data partition");
          co_return resp;
        }
        p->store().ForEach([&](const storage::Extent& e) {
          resp.extents.push_back(ExtentInfo{e.id, e.size, e.tiny});
        });
        resp.status = Status::OK();
        co_return resp;
      });

  host_->Register<FetchRangeReq, FetchRangeResp>(
      [this](FetchRangeReq req, sim::NodeId) -> Task<FetchRangeResp> {
        co_await host_->cpu().Use(OpCost(req.len));
        FetchRangeResp resp;
        DataPartition* p = GetPartition(req.pid);
        if (!p) {
          resp.status = Status::NotFound("data partition");
          co_return resp;
        }
        auto r = co_await p->store().Read(req.extent_id, req.offset, req.len);
        if (!r.ok()) {
          resp.status = r.status();
          co_return resp;
        }
        resp.data = std::move(*r);
        resp.status = Status::OK();
        co_return resp;
      });
}

}  // namespace cfs::data
