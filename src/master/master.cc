#include "master/master.h"

#include <algorithm>

#include "common/logging.h"

namespace cfs::master {

using sim::Spawn;
using sim::Task;

namespace {

// The pieces commands and snapshots share, each with one Put and one Get.
// The command encoders, Apply, TakeSnapshot and Restore all go through
// them; a Get leaves any underflow latched in the Decoder.

void PutNode(Encoder* enc, const NodeRecord& rec) {
  enc->PutU32(rec.node);
  enc->PutBool(rec.is_meta);
  enc->PutBool(rec.is_data);
  enc->PutU32(rec.raft_set);
}

NodeRecord GetNode(Decoder* dec) {
  NodeRecord rec;
  dec->GetU32(&rec.node);
  dec->GetBool(&rec.is_meta);
  dec->GetBool(&rec.is_data);
  dec->GetU32(&rec.raft_set);
  return rec;
}

// QoS fields ride behind a flag bit folded into replica_factor so volumes
// with default QoS encode byte-identically to the pre-QoS format: raft entry
// and snapshot sizes feed simulated transfer timing, which the golden
// schedule hashes (and the pinned bench event counts) hold fixed.
constexpr uint32_t kQosEncodedFlag = 0x80000000u;

void PutVolumeSpec(Encoder* enc, std::string_view name, uint32_t replica_factor,
                   const VolumeQos& qos) {
  enc->PutString(name);
  const bool has_qos = qos.iops_limit != 0 || qos.bytes_per_sec != 0 || qos.weight != 1;
  enc->PutU32(replica_factor | (has_qos ? kQosEncodedFlag : 0));
  if (!has_qos) return;
  enc->PutVarint(qos.iops_limit);
  enc->PutVarint(qos.bytes_per_sec);
  enc->PutU32(qos.weight);
}

/// Fills the name, replica factor and QoS of `vol`.
void GetVolumeSpec(Decoder* dec, VolumeRecord* vol) {
  dec->GetString(&vol->name);
  dec->GetU32(&vol->replica_factor);
  if (!(vol->replica_factor & kQosEncodedFlag)) return;
  vol->replica_factor &= ~kQosEncodedFlag;
  dec->GetVarint(&vol->qos.iops_limit);
  dec->GetVarint(&vol->qos.bytes_per_sec);
  dec->GetU32(&vol->qos.weight);
}

void PutReplicas(Encoder* enc, const std::vector<sim::NodeId>& replicas) {
  enc->PutVarint(replicas.size());
  for (sim::NodeId r : replicas) enc->PutU32(r);
}

void GetReplicas(Decoder* dec, std::vector<sim::NodeId>* replicas) {
  uint64_t n = 0;
  dec->GetCount(&n);
  replicas->resize(n);
  for (uint64_t i = 0; i < n && dec->ok(); i++) dec->GetU32(&(*replicas)[i]);
}

// A volume's partition-id lists (snapshot only).
void PutIds(Encoder* enc, const std::vector<PartitionId>& ids) {
  enc->PutVarint(ids.size());
  for (PartitionId id : ids) enc->PutVarint(id);
}

void GetIds(Decoder* dec, std::vector<PartitionId>* ids) {
  uint64_t n = 0;
  dec->GetCount(&n);
  ids->resize(n);
  for (uint64_t i = 0; i < n && dec->ok(); i++) dec->GetVarint(&(*ids)[i]);
}

}  // namespace

// --- MasterState: command encoding -----------------------------------------

std::string MasterState::EncodeRegisterNode(sim::NodeId node, bool is_meta, bool is_data,
                                            uint32_t raft_set) {
  Encoder enc = Encoder::Command(Op::kRegisterNode);
  PutNode(&enc, {node, is_meta, is_data, raft_set});
  return enc.Take();
}

std::string MasterState::EncodeCreateVolume(std::string_view name, uint32_t replica_factor,
                                            const VolumeQos& qos) {
  Encoder enc = Encoder::Command(Op::kCreateVolume);
  PutVolumeSpec(&enc, name, replica_factor, qos);
  return enc.Take();
}

std::string MasterState::EncodeAddMetaPartition(VolumeId vol, uint64_t start, uint64_t end,
                                                const std::vector<sim::NodeId>& replicas) {
  Encoder enc = Encoder::Command(Op::kAddMetaPartition);
  enc.PutVarint(vol);
  enc.PutVarint(start);
  enc.PutVarint(end);
  PutReplicas(&enc, replicas);
  return enc.Take();
}

std::string MasterState::EncodeAddDataPartition(VolumeId vol,
                                                const std::vector<sim::NodeId>& replicas) {
  Encoder enc = Encoder::Command(Op::kAddDataPartition);
  enc.PutVarint(vol);
  PutReplicas(&enc, replicas);
  return enc.Take();
}

std::string MasterState::EncodeSetMetaPartitionEnd(PartitionId pid, uint64_t end) {
  Encoder enc = Encoder::Command(Op::kSetMetaPartitionEnd);
  enc.PutVarint(pid);
  enc.PutVarint(end);
  return enc.Take();
}

std::string MasterState::EncodeSetPartitionReadOnly(PartitionId pid, bool is_meta,
                                                    bool read_only) {
  Encoder enc = Encoder::Command(Op::kSetPartitionReadOnly);
  enc.PutVarint(pid);
  enc.PutBool(is_meta);
  enc.PutBool(read_only);
  return enc.Take();
}

// --- MasterState: apply ------------------------------------------------------

void MasterState::Persist(const char* kind, uint64_t id, std::string value) {
  // Write-through backup to the local KV store ("persisted to a key-value
  // store such as RocksDB", §2). Recovery authority is the raft log; the KV
  // store allows offline inspection/repair.
  if (!kv_) return;
  std::string key = std::string(kind) + "/" + std::to_string(id);
  Spawn([](kv::KvStore* kv, std::string key, std::string value) -> Task<void> {
    (void)co_await kv->Put(std::move(key), std::move(value));
  }(kv_, std::move(key), std::move(value)));
}

void MasterState::Apply(raft::Index /*index*/, const Buffer& cmd, const Buffer& /*payload*/,
                        raft::ApplyOutcome* slot) {
  raft::ApplyOutcome scratch;  // nobody waits: the outcome goes nowhere
  raft::ApplyOutcome& out = slot ? *slot : scratch;
  out.status = Status::OK();
  Decoder dec(cmd.view());
  uint8_t op = 0;
  dec.GetU8(&op);
  // Each case decodes its whole command before it touches any state.
  switch (static_cast<Op>(op)) {
    case Op::kRegisterNode: {
      const NodeRecord rec = GetNode(&dec);
      if (!dec.ok()) break;
      nodes_[rec.node] = rec;
      Persist("node", rec.node, std::to_string(rec.raft_set));
      out.value = rec.raft_set;
      break;
    }
    case Op::kCreateVolume: {
      VolumeRecord vol;
      GetVolumeSpec(&dec, &vol);
      if (!dec.ok()) break;
      if (auto it = volume_by_name_.find(vol.name); it != volume_by_name_.end()) {
        out.status = Status::AlreadyExists("volume " + vol.name);
        out.value = it->second;
        break;
      }
      vol.id = next_volume_++;
      volume_by_name_[vol.name] = vol.id;
      out.value = vol.id;
      Persist("volume", vol.id, vol.name);
      volumes_[vol.id] = std::move(vol);
      break;
    }
    case Op::kAddMetaPartition: {
      MetaPartitionRecord rec;
      dec.GetVarint(&rec.volume);
      dec.GetVarint(&rec.start);
      dec.GetVarint(&rec.end);
      GetReplicas(&dec, &rec.replicas);
      if (!dec.ok()) break;
      auto vit = volumes_.find(rec.volume);
      if (vit == volumes_.end()) {
        out.status = Status::NotFound("volume");
        break;
      }
      rec.pid = next_partition_++;
      vit->second.meta_partitions.push_back(rec.pid);
      out.value = rec.pid;
      Persist("mp", rec.pid, std::to_string(rec.start));
      meta_partitions_[rec.pid] = std::move(rec);
      break;
    }
    case Op::kAddDataPartition: {
      DataPartitionRecord rec;
      dec.GetVarint(&rec.volume);
      GetReplicas(&dec, &rec.replicas);
      if (!dec.ok()) break;
      auto vit = volumes_.find(rec.volume);
      if (vit == volumes_.end()) {
        out.status = Status::NotFound("volume");
        break;
      }
      rec.pid = next_partition_++;
      vit->second.data_partitions.push_back(rec.pid);
      out.value = rec.pid;
      Persist("dp", rec.pid, std::to_string(rec.replicas.size()));
      data_partitions_[rec.pid] = std::move(rec);
      break;
    }
    case Op::kSetMetaPartitionEnd: {
      uint64_t pid = 0, end = 0;
      dec.GetVarint(&pid);
      dec.GetVarint(&end);
      if (!dec.ok()) break;
      auto it = meta_partitions_.find(pid);
      if (it == meta_partitions_.end()) {
        out.status = Status::NotFound("meta partition");
        break;
      }
      it->second.end = end;
      Persist("mp_end", pid, std::to_string(end));
      out.value = end;
      break;
    }
    case Op::kSetPartitionReadOnly: {
      uint64_t pid = 0;
      bool is_meta = false, read_only = false;
      dec.GetVarint(&pid);
      dec.GetBool(&is_meta);
      dec.GetBool(&read_only);
      if (!dec.ok()) break;
      auto mark = [&](auto& records) {
        if (auto it = records.find(pid); it != records.end()) it->second.read_only = read_only;
      };
      if (is_meta) {
        mark(meta_partitions_);
      } else {
        mark(data_partitions_);
      }
      Persist("ro", pid, std::to_string(read_only));
      break;
    }
    default:
      out.status = Status::Corruption("unknown master op");
  }
  if (!dec.ok()) out.status = dec.status();
}

const VolumeRecord* MasterState::FindVolume(const std::string& name) const {
  auto it = volume_by_name_.find(name);
  if (it == volume_by_name_.end()) return nullptr;
  auto vit = volumes_.find(it->second);
  return vit == volumes_.end() ? nullptr : &vit->second;
}

uint32_t MasterState::next_raft_set(uint32_t set_size) const {
  // Fill sets round-robin: set k is full once it holds set_size nodes.
  std::map<uint32_t, uint32_t> counts;
  for (const auto& [id, rec] : nodes_) counts[rec.raft_set]++;
  uint32_t set = 0;
  while (counts[set] >= set_size) set++;
  return set;
}

Buffer MasterState::TakeSnapshot() {
  Encoder enc;
  enc.PutVarint(next_volume_);
  enc.PutVarint(next_partition_);
  enc.PutVarint(nodes_.size());
  for (const auto& [id, rec] : nodes_) PutNode(&enc, rec);
  enc.PutVarint(volumes_.size());
  for (const auto& [id, vol] : volumes_) {
    enc.PutVarint(vol.id);
    PutVolumeSpec(&enc, vol.name, vol.replica_factor, vol.qos);
    PutIds(&enc, vol.meta_partitions);
    PutIds(&enc, vol.data_partitions);
  }
  enc.PutVarint(meta_partitions_.size());
  for (const auto& [id, mp] : meta_partitions_) {
    enc.PutVarint(mp.pid);
    enc.PutVarint(mp.volume);
    enc.PutVarint(mp.start);
    enc.PutVarint(mp.end);
    enc.PutBool(mp.read_only);
    PutReplicas(&enc, mp.replicas);
  }
  enc.PutVarint(data_partitions_.size());
  for (const auto& [id, dp] : data_partitions_) {
    enc.PutVarint(dp.pid);
    enc.PutVarint(dp.volume);
    enc.PutBool(dp.read_only);
    PutReplicas(&enc, dp.replicas);
  }
  return Buffer::FromString(enc.Take());
}

Status MasterState::Restore(std::string_view snapshot) {
  // Decode into a fresh state and keep it only if every record decoded.
  MasterState next(kv_);
  if (!snapshot.empty()) {
    Decoder dec(snapshot);
    uint64_t n = 0;
    dec.GetVarint(&next.next_volume_);
    dec.GetVarint(&next.next_partition_);
    dec.GetCount(&n);
    for (uint64_t i = 0; i < n && dec.ok(); i++) {
      const NodeRecord rec = GetNode(&dec);
      next.nodes_[rec.node] = rec;
    }
    dec.GetCount(&n);
    for (uint64_t i = 0; i < n && dec.ok(); i++) {
      VolumeRecord vol;
      dec.GetVarint(&vol.id);
      GetVolumeSpec(&dec, &vol);
      GetIds(&dec, &vol.meta_partitions);
      GetIds(&dec, &vol.data_partitions);
      next.volume_by_name_[vol.name] = vol.id;
      next.volumes_[vol.id] = std::move(vol);
    }
    dec.GetCount(&n);
    for (uint64_t i = 0; i < n && dec.ok(); i++) {
      MetaPartitionRecord mp;
      dec.GetVarint(&mp.pid);
      dec.GetVarint(&mp.volume);
      dec.GetVarint(&mp.start);
      dec.GetVarint(&mp.end);
      dec.GetBool(&mp.read_only);
      GetReplicas(&dec, &mp.replicas);
      next.meta_partitions_[mp.pid] = std::move(mp);
    }
    dec.GetCount(&n);
    for (uint64_t i = 0; i < n && dec.ok(); i++) {
      DataPartitionRecord dp;
      dec.GetVarint(&dp.pid);
      dec.GetVarint(&dp.volume);
      dec.GetBool(&dp.read_only);
      GetReplicas(&dec, &dp.replicas);
      next.data_partitions_[dp.pid] = std::move(dp);
    }
    if (!dec.ok()) return dec.status();
  }
  *this = std::move(next);
  return Status::OK();
}

// --- MasterNode --------------------------------------------------------------

MasterNode::MasterNode(sim::Network* net, sim::Host* host, raft::RaftHost* raft,
                       std::vector<sim::NodeId> master_peers, const MasterOptions& opts)
    : net_(net),
      host_(host),
      raft_(raft),
      opts_(opts),
      admin_channel_(net),
      kv_(&host->storage(), host->disk(0), "master"),
      state_(&kv_) {
  Spawn([](kv::KvStore* kv) -> Task<void> { (void)co_await kv->Open(); }(&kv_));
  raft_node_ = raft_->CreateGroup(RaftGid(), std::move(master_peers), &state_,
                                  host_->disk(0));
  raft_node_->Start();
  RegisterHandlers();
  Spawn(AdminLoop());
}

Task<raft::ApplyOutcome> MasterNode::Propose(std::string cmd) {
  raft::ApplyOutcome out;
  Status st = co_await raft_node_->Propose(std::move(cmd), {}, {}, &out);
  if (!st.ok()) out.status = st;
  co_return out;
}

std::vector<sim::NodeId> MasterNode::PickReplicas(bool for_meta, uint32_t n, uint64_t salt) {
  // Candidates: registered nodes of the right role that are alive.
  struct Cand {
    sim::NodeId node;
    uint32_t raft_set;
    double util;
    uint64_t partitions;  // tie-break: spread fresh clusters evenly
  };
  // Per-node partition counts (utilization reports lag; counts break ties
  // so a freshly-provisioned cluster still spreads uniformly).
  std::map<sim::NodeId, uint64_t> counts;
  for (const auto& [pid, rec] : state_.meta_partitions()) {
    for (auto r : rec.replicas) counts[r]++;
  }
  for (const auto& [pid, rec] : state_.data_partitions()) {
    for (auto r : rec.replicas) counts[r]++;
  }
  std::vector<Cand> cands;
  SimTime now = net_->scheduler()->Now();
  for (const auto& [id, rec] : state_.nodes()) {
    if (for_meta && !rec.is_meta) continue;
    if (!for_meta && !rec.is_data) continue;
    auto rit = runtime_.find(id);
    // Nodes that have never reported are assumed fresh (zero utilization);
    // nodes that stopped reporting are excluded.
    double util = 0;
    if (rit != runtime_.end()) {
      if (now - rit->second.last_heartbeat > opts_.node_timeout) continue;
      util = for_meta ? rit->second.memory_utilization : rit->second.disk_utilization;
    }
    cands.push_back({id, rec.raft_set, util, counts[id]});
  }
  if (cands.size() < n) return {};

  switch (opts_.placement) {
    case PlacementPolicy::kHash: {
      // hash(pid, i) over the ring: the classic scheme that reshuffles on
      // membership change (ablation baseline).
      std::vector<sim::NodeId> out;
      std::sort(cands.begin(), cands.end(),
                [](const Cand& a, const Cand& b) { return a.node < b.node; });
      for (uint32_t i = 0; out.size() < n && i < 16 * n; i++) {
        uint64_t h = (salt * 0x9e3779b97f4a7c15ull + i * 0xbf58476d1ce4e5b9ull);
        h ^= h >> 29;
        const Cand& c = cands[h % cands.size()];
        if (std::find(out.begin(), out.end(), c.node) == out.end()) out.push_back(c.node);
      }
      return out.size() == n ? out : std::vector<sim::NodeId>{};
    }
    case PlacementPolicy::kRandom: {
      std::vector<sim::NodeId> out;
      auto& rng = net_->scheduler()->rng();
      while (out.size() < n && out.size() < cands.size()) {
        const Cand& c = cands[rng.Uniform(cands.size())];
        if (std::find(out.begin(), out.end(), c.node) == out.end()) out.push_back(c.node);
      }
      return out.size() == n ? out : std::vector<sim::NodeId>{};
    }
    case PlacementPolicy::kUtilization:
      break;
  }

  // Utilization-based placement (§2.3.1), optionally constrained to the
  // least-utilized Raft set with enough members (§2.5.1).
  std::stable_sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.util != b.util) return a.util < b.util;
    return a.partitions < b.partitions;
  });
  if (opts_.use_raft_sets) {
    std::map<uint32_t, std::vector<Cand>> by_set;
    for (const auto& c : cands) by_set[c.raft_set].push_back(c);
    uint32_t best_set = UINT32_MAX;
    // Accumulate utilization in fixed point (picounits): FP summation is
    // order-sensitive and rounds differently across FPUs, and the set chosen
    // here decides placement — it must be exact and platform-stable (A3).
    uint64_t best_util_sum = 0, best_parts_sum = 0, best_cnt = 0;
    for (const auto& [set, members] : by_set) {
      if (members.size() < n) continue;
      uint64_t util_sum = 0, parts_sum = 0;
      for (const auto& m : members) {
        util_sum += static_cast<uint64_t>(m.util * 1e12);
        parts_sum += m.partitions;
      }
      const uint64_t cnt = members.size();
      bool better = best_cnt == 0;
      if (!better) {
        // Compare averages without dividing: a/ca < b/cb  <=>  a*cb < b*ca.
        __int128 lhs = static_cast<__int128>(util_sum) * best_cnt;
        __int128 rhs = static_cast<__int128>(best_util_sum) * cnt;
        better = lhs < rhs ||
                 (lhs == rhs && static_cast<__int128>(parts_sum) * best_cnt <
                                    static_cast<__int128>(best_parts_sum) * cnt);
      }
      if (better) {
        best_util_sum = util_sum;
        best_parts_sum = parts_sum;
        best_cnt = cnt;
        best_set = set;
      }
    }
    if (best_set != UINT32_MAX) {
      std::vector<sim::NodeId> out;
      for (const auto& c : by_set[best_set]) {
        out.push_back(c.node);
        if (out.size() == n) break;
      }
      return out;
    }
    // No set has enough members: fall through to global pick.
  }
  std::vector<sim::NodeId> out;
  for (const auto& c : cands) {
    out.push_back(c.node);
    if (out.size() == n) break;
  }
  return out;
}

template <typename Resp, typename Req>
Task<Status> MasterNode::Install(std::vector<sim::NodeId> replicas, Req req) {
  Status last = Status::OK();
  for (sim::NodeId node : replicas) {
    auto r = co_await admin_channel_.Unary<Req, Resp>(host_->id(), node, req,
                                                      opts_.admin_rpc_timeout);
    if (!r.ok()) {
      last = r.status();
    } else if (!r->status.ok() && !r->status.IsAlreadyExists()) {
      last = r->status;
    }
  }
  co_return last;
}

Task<Status> MasterNode::AddPartition(bool is_meta, VolumeId vol, uint64_t start, uint64_t end,
                                      uint32_t rf, uint64_t salt, PartitionId* added) {
  std::vector<sim::NodeId> replicas = PickReplicas(is_meta, rf, salt);
  if (replicas.empty()) {
    co_return Status::Unavailable(is_meta ? "not enough meta nodes" : "not enough data nodes");
  }
  std::string cmd = is_meta ? MasterState::EncodeAddMetaPartition(vol, start, end, replicas)
                            : MasterState::EncodeAddDataPartition(vol, replicas);
  const raft::ApplyOutcome out = co_await Propose(std::move(cmd));
  CFS_CO_RETURN_IF_ERROR(out.status);
  if (added) *added = out.value;
  auto weight = state_.volumes().find(vol);
  const uint32_t qos_weight = weight == state_.volumes().end() ? 1 : weight->second.qos.weight;
  if (is_meta) {
    meta::CreateMetaPartitionReq req;
    req.config.id = out.value;
    req.config.volume = vol;
    req.config.start = start;
    req.config.end = end;
    req.config.create_root = start == meta::kRootInode;  // volume's first partition
    req.config.qos_weight = qos_weight;
    req.peers = replicas;
    co_return co_await Install<meta::CreateMetaPartitionResp>(std::move(replicas),
                                                              std::move(req));
  }
  data::CreateDataPartitionReq req;
  req.config.id = out.value;
  req.config.volume = vol;
  req.config.replicas = replicas;
  req.config.qos_weight = qos_weight;
  req.config.disk_index = -1;  // each node picks its least-utilized local disk
  co_return co_await Install<data::CreateDataPartitionResp>(std::move(replicas), std::move(req));
}

Task<Status> MasterNode::CreatePartitionsForVolume(VolumeId vol, uint32_t meta_count,
                                                   uint32_t data_count, uint32_t rf) {
  // Meta partitions: chunked inode ranges, last partition unbounded.
  for (uint32_t i = 0; i < meta_count; i++) {
    uint64_t start = i == 0 ? meta::kRootInode : 1 + static_cast<uint64_t>(i) * opts_.inode_chunk;
    uint64_t end = (i + 1 == meta_count) ? UINT64_MAX
                                         : static_cast<uint64_t>(i + 1) * opts_.inode_chunk;
    CFS_CO_RETURN_IF_ERROR(co_await AddPartition(true, vol, start, end, rf, vol * 131 + i));
  }
  for (uint32_t i = 0; i < data_count; i++) {
    CFS_CO_RETURN_IF_ERROR(co_await AddPartition(false, vol, 0, 0, rf, vol * 257 + i));
  }
  co_return Status::OK();
}

template <typename Report>
const Report* MasterNode::FindReport(std::map<PartitionId, Report> NodeRuntime::*reports,
                                     sim::NodeId node, PartitionId pid) const {
  auto rit = runtime_.find(node);
  if (rit == runtime_.end()) return nullptr;
  const auto& by_pid = rit->second.*reports;
  auto it = by_pid.find(pid);
  return it == by_pid.end() ? nullptr : &it->second;
}

GetVolumeResp MasterNode::BuildVolumeView(const VolumeRecord& vol) const {
  GetVolumeResp resp;
  resp.volume = vol.id;
  resp.qos = vol.qos;
  for (PartitionId pid : vol.meta_partitions) {
    auto it = state_.meta_partitions().find(pid);
    if (it == state_.meta_partitions().end()) continue;
    const auto& rec = it->second;
    MetaPartitionView view;
    view.pid = rec.pid;
    view.start = rec.start;
    view.end = rec.end;
    view.replicas = rec.replicas;
    view.writable = !rec.read_only;
    for (sim::NodeId node : rec.replicas) {
      if (const auto* r = FindReport(&NodeRuntime::meta_reports, node, pid)) {
        if (r->is_leader) view.leader_hint = node;
        if (r->full) view.writable = false;
      }
    }
    resp.meta_partitions.push_back(std::move(view));
  }
  for (PartitionId pid : vol.data_partitions) {
    auto it = state_.data_partitions().find(pid);
    if (it == state_.data_partitions().end()) continue;
    const auto& rec = it->second;
    DataPartitionView view;
    view.pid = rec.pid;
    view.replicas = rec.replicas;
    view.writable = !rec.read_only;
    for (sim::NodeId node : rec.replicas) {
      if (const auto* r = FindReport(&NodeRuntime::data_reports, node, pid)) {
        if (r->is_raft_leader) view.raft_leader_hint = node;
        if (r->full) view.writable = false;
      }
    }
    resp.data_partitions.push_back(std::move(view));
  }
  return resp;
}

void MasterNode::RegisterHandlers() {
  host_->Register<RegisterNodeReq, RegisterNodeResp>(
      [this](RegisterNodeReq req, sim::NodeId) -> Task<RegisterNodeResp> {
        co_await host_->cpu().Use(10);
        if (!IsLeader()) co_return RegisterNodeResp{NotLeaderStatus(), 0};
        uint32_t set = state_.next_raft_set(opts_.raft_set_size);
        auto out = co_await Propose(
            MasterState::EncodeRegisterNode(req.node, req.is_meta, req.is_data, set));
        if (out.status.ok()) {
          // Seed liveness at registration so a node that dies before its
          // first heartbeat is still detected (§2.3.3).
          runtime_[req.node].last_heartbeat = net_->scheduler()->Now();
        }
        co_return RegisterNodeResp{out.status, static_cast<uint32_t>(out.value)};
      });

  host_->Register<NodeHeartbeatReq, NodeHeartbeatResp>(
      [this](NodeHeartbeatReq req, sim::NodeId) -> Task<NodeHeartbeatResp> {
        co_await host_->cpu().Use(5);
        if (!IsLeader()) co_return NodeHeartbeatResp{NotLeaderStatus()};
        NodeRuntime& rt = runtime_[req.node];
        rt.last_heartbeat = net_->scheduler()->Now();
        rt.memory_utilization = req.memory_utilization;
        rt.disk_utilization = req.disk_utilization;
        for (auto& r : req.meta_reports) rt.meta_reports[r.pid] = r;
        for (auto& r : req.data_reports) rt.data_reports[r.pid] = r;
        rt.health = std::move(req.health);
        co_return NodeHeartbeatResp{Status::OK()};
      });

  host_->Register<CreateVolumeReq, CreateVolumeResp>(
      [this](CreateVolumeReq req, sim::NodeId) -> Task<CreateVolumeResp> {
        co_await host_->cpu().Use(20);
        if (!IsLeader()) co_return CreateVolumeResp{NotLeaderStatus(), 0};
        auto out = co_await Propose(
            MasterState::EncodeCreateVolume(req.name, req.replica_factor, req.qos));
        if (!out.status.ok()) co_return CreateVolumeResp{out.status, out.value};
        VolumeId vol = out.value;
        Status st = co_await CreatePartitionsForVolume(vol, req.meta_partitions,
                                                       req.data_partitions,
                                                       req.replica_factor);
        co_return CreateVolumeResp{st, vol};
      });

  host_->Register<GetVolumeReq, GetVolumeResp>(
      [this](GetVolumeReq req, sim::NodeId) -> Task<GetVolumeResp> {
        co_await host_->cpu().Use(8);
        if (!IsLeader()) co_return GetVolumeResp{NotLeaderStatus()};
        const VolumeRecord* vol = state_.FindVolume(req.name);
        if (!vol) co_return GetVolumeResp{Status::NotFound("volume " + req.name)};
        co_return BuildVolumeView(*vol);
      });

  host_->Register<ReportPartitionFailureReq, ReportPartitionFailureResp>(
      [this](ReportPartitionFailureReq req, sim::NodeId) -> Task<ReportPartitionFailureResp> {
        co_await host_->cpu().Use(8);
        if (!IsLeader()) co_return ReportPartitionFailureResp{NotLeaderStatus()};
        auto out = co_await Propose(
            MasterState::EncodeSetPartitionReadOnly(req.pid, req.is_meta, true));
        co_return ReportPartitionFailureResp{out.status};
      });
}

// --- Admin loop ---------------------------------------------------------------

Task<void> MasterNode::AdminLoop() {
  while (true) {
    co_await sim::SleepFor{*net_->scheduler(), opts_.admin_interval};
    if (!host_->up() || !IsLeader()) continue;
    co_await CheckLiveness();
    co_await MaybeSplitMetaPartitions();
    co_await MaybeExpandVolumes();
  }
}

Task<void> MasterNode::CheckLiveness() {
  // Partitions with a replica on a dead node become read-only until manual
  // migration (§2.3.3).
  SimTime now = net_->scheduler()->Now();
  std::set<sim::NodeId> dead;
  for (const auto& [node, rt] : runtime_) {
    if (now - rt.last_heartbeat > opts_.node_timeout) dead.insert(node);
  }
  if (dead.empty()) co_return;
  // Decide first, act second: marking goes through Raft (a suspension),
  // and the partition maps can be mutated — entries added by splits, the
  // state replaced on apply — while this coroutine is parked, which would
  // invalidate the live iterators of these range-fors (A1).
  std::vector<std::pair<PartitionId, bool>> targets;
  auto is_dead = [&](sim::NodeId r) { return dead.count(r) > 0; };
  auto collect = [&](const auto& records, bool is_meta) {
    for (const auto& [pid, rec] : records) {
      if (!rec.read_only && std::ranges::any_of(rec.replicas, is_dead)) {
        targets.emplace_back(pid, is_meta);
      }
    }
  };
  collect(state_.meta_partitions(), true);
  collect(state_.data_partitions(), false);
  for (const auto& [pid, is_meta] : targets) {
    (void)co_await Propose(MasterState::EncodeSetPartitionReadOnly(pid, is_meta, true));
  }
}

Task<void> MasterNode::MaybeSplitMetaPartitions() {
  // Algorithm 1: only the partition owning the unbounded tail of the inode
  // range splits; the cut happens at maxInodeID + delta.
  auto max_reported = [this](const MetaPartitionRecord& rec,
                             uint64_t meta::MetaPartitionReport::*field) {
    uint64_t max = 0;
    for (sim::NodeId node : rec.replicas) {
      if (const auto* r = FindReport(&NodeRuntime::meta_reports, node, rec.pid)) {
        max = std::max(max, r->*field);
      }
    }
    return max;
  };
  std::vector<MetaPartitionRecord> to_split;
  for (const auto& [pid, rec] : state_.meta_partitions()) {
    if (rec.end != UINT64_MAX || rec.read_only || splitting_.count(pid)) continue;
    if (max_reported(rec, &meta::MetaPartitionReport::item_count) >=
        opts_.meta_split_threshold) {
      to_split.push_back(rec);
    }
  }
  for (const auto& rec : to_split) {
    splitting_.insert(rec.pid);
    // The cutoff (Algorithm 1 line 8), read now: the reports may have moved
    // while an earlier split of this pass was suspended.
    const uint64_t end =
        max_reported(rec, &meta::MetaPartitionReport::max_inode_id) + opts_.split_delta;
    // (1) update the range in the replicated cluster map,
    auto out = co_await Propose(MasterState::EncodeSetMetaPartitionEnd(rec.pid, end));
    if (!out.status.ok()) {
      splitting_.erase(rec.pid);
      continue;
    }
    // (2) sync with the meta node (send the split task),
    for (sim::NodeId node : rec.replicas) {
      auto r = co_await admin_channel_.Unary<meta::SplitMetaPartitionReq,
                                             meta::SplitMetaPartitionResp>(
          host_->id(), node, meta::SplitMetaPartitionReq{rec.pid, end},
          opts_.admin_rpc_timeout);
      if (r.ok() && r->status.ok()) break;  // the leader applied it
    }
    // (3) create the new partition owning [end+1, ∞).
    PartitionId added = 0;
    (void)co_await AddPartition(true, rec.volume, end + 1, UINT64_MAX,
                                static_cast<uint32_t>(rec.replicas.size()), rec.pid * 977,
                                &added);
    if (added != 0) {
      splits_++;
      LOG_INFO("split meta partition ", rec.pid, " at ", end, ", new partition ", added);
    }
    splitting_.erase(rec.pid);
  }
}

Task<void> MasterNode::MaybeExpandVolumes() {
  // "When the resource manager finds that all the partitions in a volume
  // [are] about to be full, it automatically adds a set of new partitions"
  // (§2.3.1).
  std::vector<std::pair<VolumeId, uint32_t>> expand;
  for (const auto& [vid, vol] : state_.volumes()) {
    uint32_t writable = 0;
    for (PartitionId pid : vol.data_partitions) {
      auto it = state_.data_partitions().find(pid);
      if (it == state_.data_partitions().end() || it->second.read_only) continue;
      const bool full = std::ranges::any_of(it->second.replicas, [&](sim::NodeId node) {
        const auto* r = FindReport(&NodeRuntime::data_reports, node, pid);
        return r && r->full;
      });
      if (!full) writable++;
    }
    if (!vol.data_partitions.empty() && writable < opts_.min_writable_data_partitions) {
      expand.emplace_back(vid, vol.replica_factor);
    }
  }
  for (auto [vid, rf] : expand) {
    for (uint32_t i = 0; i < opts_.expand_batch; i++) {
      // Stop at the first partition that was not placed or not committed.
      PartitionId added = 0;
      (void)co_await AddPartition(false, vid, 0, 0, rf, vid * 31 + i + expansions_ * 7919,
                                  &added);
      if (added == 0) break;
    }
    expansions_++;
    LOG_INFO("expanded volume ", vid, " with ", opts_.expand_batch, " data partitions");
  }
}

std::string MasterNode::HealthViewJson() const {
  const SimTime now = net_->scheduler()->Now();
  std::string out = "{\"time\":" + std::to_string(now) + ",\"nodes\":{";
  bool first = true;
  for (const auto& [node, rt] : runtime_) {
    if (!first) out += ",";
    first = false;
    const bool alive = now - rt.last_heartbeat <= opts_.node_timeout;
    out += "\"";
    out += std::to_string(node) + "\":{\"alive\":";
    out += alive ? "true" : "false";
    out += ",\"last_heartbeat\":" + std::to_string(rt.last_heartbeat) +
           ",\"health\":" + rt.health.DumpJson() + "}";
  }
  out += "}}";
  return out;
}

}  // namespace cfs::master
