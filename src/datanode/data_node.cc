#include "datanode/data_node.h"

#include "common/logging.h"

namespace cfs::data {

using sim::Spawn;
using sim::Task;

namespace {
SimDuration OpCost(size_t payload) {
  return kDataCpuPerOp + kDataCpuPerKib * static_cast<SimDuration>(payload / kKiB);
}

/// The read step ReadExtent and FetchRange share: the bytes, or the store's
/// error.
template <typename Resp>
Resp ReadResp(Result<Buffer> r) {
  if (!r.ok()) return Resp{r.status()};
  return Resp{Status::OK(), std::move(*r)};
}
}  // namespace

DataNode::DataNode(sim::Network* net, sim::Host* host, raft::RaftHost* raft,
                   bool track_contents, const DataNodeOptions& opts)
    : net_(net), host_(host), raft_(raft), track_contents_(track_contents), channel_(net),
      admission_(net->scheduler(), host->metrics(), "qos.data") {
  admission_.Configure(opts.admission_slots);
  RegisterHandlers();
}

Status DataNode::CreatePartition(const DataPartitionConfig& config) {
  if (partitions_.Find(config.id)) return Status::AlreadyExists("partition");
  // Admission weights ride along with partition installs.
  admission_.SetWeight(config.volume, config.qos_weight);
  DataPartitionConfig cfg = config;
  cfg.store.track_contents = track_contents_;
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
  partitions_.Add(std::make_unique<DataPartition>(cfg, net_, host_, raft_))->raft_node()->Start();
  return Status::OK();
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
  const std::vector<PartitionId> pids = partitions_.Ids();
  // Phase 1 (§2.2.5): primary-backup recovery — check and align all extents.
  for (PartitionId pid : pids) {
    DataPartition* p = partitions_.Find(pid);
    if (!p) continue;
    p->ReinitAfterRecovery();
    co_await AlignPartition(p);
  }
  // Phase 2: raft recovery of the overwrite groups.
  for (PartitionId pid : pids) {
    DataPartition* p = partitions_.Find(pid);
    if (p) (void)co_await p->raft_node()->Recover();
  }
}

sim::Task<void> DataNode::AlignPartition(DataPartition* p) {
  // Copy the replica list: the partition's config lives outside this frame
  // and the loop body suspends on peer RPCs (A1).
  const std::vector<sim::NodeId> replicas = p->config().replicas;
  for (sim::NodeId peer : replicas) {
    if (peer == host_->id()) continue;
    auto info = co_await channel_.Unary<ExtentInfoReq, ExtentInfoResp>(
        host_->id(), peer, ExtentInfoReq{p->id()}, kChainRpcTimeout);
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
          kChainRpcTimeout);
      if (!fetched.ok() || !fetched->status.ok()) continue;
      (void)co_await p->store().PlaceAt(e.id, local, fetched->data);
      p->set_committed(e.id, p->store().ExtentSize(e.id));
    }
  }
}

template <typename Resp, typename Req>
Task<Status> DataNode::ForwardChainImpl(DataPartition* p, Req req) {
  uint32_t next = req.chain_index + 1;
  if (next >= p->config().replicas.size()) co_return Status::OK();
  req.chain_index = next;
  sim::NodeId target = p->config().replicas[next];
  // Each hop re-parents on the incoming context, so a traced write shows one
  // "rpc:<chain op>" span per chain position.
  obs::TraceContext trace = req.trace;
  auto r = co_await channel_.Unary<Req, Resp>(host_->id(), target, std::move(req),
                                              kChainRpcTimeout, trace);
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

Task<Status> DataNode::ProposeMutation(PartitionId pid, std::string head, Buffer payload,
                                       obs::TraceContext trace, const OverwriteReq* overwrite) {
  Result<DataPartition*> guard = partitions_.RaftLeader(pid);
  if (!guard.ok()) co_return guard.status();
  DataPartition* p = *guard;
  if (overwrite) {
    // Validate against local state before paying for consensus.
    const storage::Extent* e = p->store().Find(overwrite->extent_id);
    if (!e) co_return Status::NotFound("extent");
    if (!storage::RangeFits(overwrite->offset, payload.size(), e->size)) {
      co_return Status::InvalidArgument("overwrite beyond extent end");
    }
  }
  raft::ApplyOutcome out;
  Status st = co_await p->raft_node()->Propose(std::move(head), std::move(payload), trace, &out);
  co_return st.ok() ? out.status : st;
}

void DataNode::RegisterHandlers() {
  host_->Register<CreateDataPartitionReq, CreateDataPartitionResp>(
      [this](CreateDataPartitionReq req, sim::NodeId) -> Task<CreateDataPartitionResp> {
        co_await host_->cpu().Use(OpCost(0));
        co_return CreateDataPartitionResp{CreatePartition(req.config)};
      });

  host_->Register<CreateExtentReq, CreateExtentResp>(
      [this](CreateExtentReq req, sim::NodeId) -> Task<CreateExtentResp> {
        auto admit = co_await admission_.Serve(req.tenant, OpCost(0), &host_->cpu());
        Result<DataPartition*> guard = partitions_.ChainLeader(req.pid);
        if (!guard.ok()) co_return CreateExtentResp{guard.status()};
        DataPartition* p = *guard;
        if (p->read_only() || p->IsFull()) {
          co_return CreateExtentResp{Status::NoSpace("partition full or read-only")};
        }
        storage::ExtentId id = p->AllocExtentId();
        Status st = p->store().CreateExtentWithId(id, false);
        if (st.ok()) {
          st = co_await ForwardChain<ChainCreateExtentResp>(
              p, ChainCreateExtentReq{req.pid, id, 0, req.trace});
        }
        co_return CreateExtentResp{st, id};
      });

  host_->Register<ChainCreateExtentReq, ChainCreateExtentResp>(
      [this](ChainCreateExtentReq req, sim::NodeId) -> Task<ChainCreateExtentResp> {
        co_await host_->cpu().Use(OpCost(0));
        Result<DataPartition*> guard = partitions_.Found(req.pid);
        if (!guard.ok()) co_return ChainCreateExtentResp{guard.status()};
        DataPartition* p = *guard;
        Status st = p->store().CreateExtentWithId(req.extent_id, false);
        if (st.IsAlreadyExists()) st = Status::OK();  // retried chain
        if (st.ok()) st = co_await ForwardChain<ChainCreateExtentResp>(p, std::move(req));
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
        auto admit =
            co_await admission_.Serve(req.tenant, OpCost(req.data.size()), &host_->cpu());
        Result<DataPartition*> guard = partitions_.ChainLeader(req.pid);
        if (!guard.ok()) co_return WritePacketResp{guard.status()};
        DataPartition* p = *guard;
        if (p->read_only()) {
          co_return WritePacketResp{Status::Unavailable("read-only"), p->committed(req.extent_id)};
        }
        if (!storage::RangeFits(req.offset, req.data.size(),
                                p->store().options().extent_size_limit)) {
          co_return WritePacketResp{Status::NoSpace("extent full"), p->committed(req.extent_id)};
        }
        const uint64_t end_offset = req.offset + req.data.size();
        // A packet can (rarely) overtake its predecessor on the wire when the
        // trailing packet is much smaller than the jitter window. Wait
        // briefly for the gap to fill instead of failing the whole window;
        // the wakeup timer bounds the wait if the predecessor was lost.
        for (int spin = 0; spin < 3 && p->store().Has(req.extent_id) &&
                           p->store().ExtentSize(req.extent_id) < req.offset;
             spin++) {
          sim::Notifier* gate = &p->placement_gate();
          net_->scheduler()->After(kChainRpcTimeout, [gate] { gate->NotifyAll(); });
          co_await gate->Wait();
        }
        if (p->store().ExtentSize(req.extent_id) != req.offset) {
          // Missing extent, lost predecessor, or an overlapping retry: report
          // the committed offset so the client resends the suffix elsewhere.
          co_return WritePacketResp{Status::Unavailable("packet out of order"),
                                    p->committed(req.extent_id)};
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
          *out = co_await self->ForwardChain<ChainAppendResp>(p, std::move(fwd));
          done();
        }(this, p, std::move(fwd), &fwd_st, join.Arrive()));
        co_await join.Wait();
        Status st = local_st.ok() ? std::move(fwd_st) : std::move(local_st);
        if (st.ok()) p->MarkDurable(req.extent_id, req.offset, end_offset);
        co_return WritePacketResp{st, p->committed(req.extent_id)};
      });

  host_->Register<ChainAppendReq, ChainAppendResp>(
      [this](ChainAppendReq req, sim::NodeId) -> Task<ChainAppendResp> {
        co_await host_->cpu().Use(OpCost(req.data.size()));
        Result<DataPartition*> guard = partitions_.Found(req.pid);
        if (!guard.ok()) co_return ChainAppendResp{guard.status()};
        DataPartition* p = *guard;
        // Apply from a view of the request payload, then forward the same
        // buffer downstream: one buffer per hop (the apply only copies when
        // it has to park an out-of-order arrival).
        Status st = co_await p->ApplyChainAppend(req.extent_id, req.offset, req.data,
                                                 req.tiny, req.trace);
        if (st.ok()) st = co_await ForwardChain<ChainAppendResp>(p, std::move(req));
        co_return ChainAppendResp{st};
      });

  // Small-file write (§2.2.3): the primary assigns the slot in the active
  // tiny extent; the placement replicates down the chain.
  host_->Register<WriteSmallReq, WriteSmallResp>(
      [this](WriteSmallReq req, sim::NodeId) -> Task<WriteSmallResp> {
        auto admit =
            co_await admission_.Serve(req.tenant, OpCost(req.data.size()), &host_->cpu());
        Result<DataPartition*> guard = partitions_.ChainLeader(req.pid);
        if (!guard.ok()) co_return WriteSmallResp{guard.status()};
        DataPartition* p = *guard;
        if (p->read_only() || p->IsFull()) {
          co_return WriteSmallResp{Status::NoSpace("partition full or read-only")};
        }
        auto placed = co_await p->store().WriteSmall(req.data, req.trace);
        if (!placed.ok()) co_return WriteSmallResp{placed.status()};
        auto [extent, offset] = *placed;
        uint64_t len = req.data.size();
        ChainAppendReq fwd{req.pid, extent, offset, true, std::move(req.data), 0, req.trace};
        Status st = co_await ForwardChain<ChainAppendResp>(p, std::move(fwd));
        // Durable-range commit (not a blind max): concurrent small writes
        // into the shared tiny extent can complete out of slot order.
        if (st.ok()) p->MarkDurable(extent, offset, offset + len);
        co_return WriteSmallResp{st, extent, offset};
      });

  // Overwrite (Fig. 5): raft-replicated, in-place, no metadata update.
  host_->Register<OverwriteReq, OverwriteResp>(
      [this](OverwriteReq req, sim::NodeId) -> Task<OverwriteResp> {
        auto admit =
            co_await admission_.Serve(req.tenant, OpCost(req.data.size()), &host_->cpu());
        std::string head =
            DataPartition::EncodeOverwriteHead(req.extent_id, req.offset, req.data.size());
        Buffer payload = std::move(req.data);
        Status st = co_await ProposeMutation(req.pid, std::move(head), std::move(payload),
                                             req.trace, &req);
        co_return OverwriteResp{st};
      });

  // Read at the raft leader (§2.7.4), bounded by the committed offset.
  host_->Register<ReadExtentReq, ReadExtentResp>(
      [this](ReadExtentReq req, sim::NodeId) -> Task<ReadExtentResp> {
        auto admit = co_await admission_.Serve(req.tenant, OpCost(req.len), &host_->cpu());
        Result<DataPartition*> guard = partitions_.RaftLeader(req.pid);
        if (!guard.ok()) co_return ReadExtentResp{guard.status()};
        DataPartition* p = *guard;
        // Stale tails beyond the committed offset are never returned
        // (§2.2.5). The chain leader knows the committed offset; other
        // replicas bound by their local size (data at equal offsets is
        // identical by the chain invariant).
        uint64_t bound = p->IsChainLeader() ? p->committed(req.extent_id)
                                            : p->store().ExtentSize(req.extent_id);
        if (bound == 0) bound = p->store().ExtentSize(req.extent_id);
        if (!storage::RangeFits(req.offset, req.len, bound)) {
          co_return ReadExtentResp{Status::InvalidArgument("read beyond committed offset")};
        }
        auto r = co_await p->store().Read(req.extent_id, req.offset, req.len, req.trace);
        co_return ReadResp<ReadExtentResp>(std::move(r));
      });

  host_->Register<DeleteExtentReq, DeleteExtentResp>(
      [this](DeleteExtentReq req, sim::NodeId) -> Task<DeleteExtentResp> {
        auto admit = co_await admission_.Serve(req.tenant, OpCost(0), &host_->cpu());
        Status st = co_await ProposeMutation(
            req.pid, DataPartition::EncodeDeleteExtent(req.extent_id), {}, req.trace);
        co_return DeleteExtentResp{st};
      });

  host_->Register<PunchHoleReq, PunchHoleResp>(
      [this](PunchHoleReq req, sim::NodeId) -> Task<PunchHoleResp> {
        auto admit = co_await admission_.Serve(req.tenant, OpCost(0), &host_->cpu());
        Status st = co_await ProposeMutation(
            req.pid, DataPartition::EncodePunchHole(req.extent_id, req.offset, req.len), {},
            req.trace);
        co_return PunchHoleResp{st};
      });

  // --- Recovery helpers ---

  host_->Register<ExtentInfoReq, ExtentInfoResp>(
      [this](ExtentInfoReq req, sim::NodeId) -> Task<ExtentInfoResp> {
        co_await host_->cpu().Use(OpCost(0));
        Result<DataPartition*> guard = partitions_.Found(req.pid);
        if (!guard.ok()) co_return ExtentInfoResp{guard.status()};
        ExtentInfoResp resp;
        (*guard)->store().ForEach([&](const storage::Extent& e) {
          resp.extents.push_back(ExtentInfo{e.id, e.size, e.tiny});
        });
        co_return resp;
      });

  host_->Register<FetchRangeReq, FetchRangeResp>(
      [this](FetchRangeReq req, sim::NodeId) -> Task<FetchRangeResp> {
        co_await host_->cpu().Use(OpCost(req.len));
        Result<DataPartition*> guard = partitions_.Found(req.pid);
        if (!guard.ok()) co_return FetchRangeResp{guard.status()};
        auto r = co_await (*guard)->store().Read(req.extent_id, req.offset, req.len);
        co_return ReadResp<FetchRangeResp>(std::move(r));
      });
}

}  // namespace cfs::data
