#include "master/master.h"

#include <algorithm>

#include "common/logging.h"

namespace cfs::master {

using sim::Spawn;
using sim::Task;

namespace {

// QoS fields ride behind a flag bit folded into replica_factor so volumes
// with default QoS encode byte-identically to the pre-QoS format: raft entry
// and snapshot sizes feed simulated transfer timing, which the golden
// schedule hashes (and the pinned bench event counts) hold fixed.
constexpr uint32_t kQosEncodedFlag = 0x80000000u;

bool HasNonDefaultQos(const VolumeQos& q) {
  return q.iops_limit != 0 || q.bytes_per_sec != 0 || q.weight != 1;
}

}  // namespace

// --- MasterState: command encoding -----------------------------------------

std::string MasterState::EncodeRegisterNode(sim::NodeId node, bool is_meta, bool is_data,
                                            uint32_t raft_set) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(Op::kRegisterNode));
  enc.PutU32(node);
  enc.PutU8(is_meta ? 1 : 0);
  enc.PutU8(is_data ? 1 : 0);
  enc.PutU32(raft_set);
  return enc.Take();
}

std::string MasterState::EncodeCreateVolume(std::string_view name, uint32_t replica_factor,
                                            const VolumeQos& qos) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(Op::kCreateVolume));
  enc.PutString(name);
  const bool has_qos = HasNonDefaultQos(qos);
  enc.PutU32(replica_factor | (has_qos ? kQosEncodedFlag : 0));
  if (has_qos) {
    enc.PutVarint(qos.iops_limit);
    enc.PutVarint(qos.bytes_per_sec);
    enc.PutU32(qos.weight);
  }
  return enc.Take();
}

std::string MasterState::EncodeAddMetaPartition(VolumeId vol, uint64_t start, uint64_t end,
                                                const std::vector<sim::NodeId>& replicas) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(Op::kAddMetaPartition));
  enc.PutVarint(vol);
  enc.PutVarint(start);
  enc.PutVarint(end);
  enc.PutVarint(replicas.size());
  for (auto r : replicas) enc.PutU32(r);
  return enc.Take();
}

std::string MasterState::EncodeAddDataPartition(VolumeId vol,
                                                const std::vector<sim::NodeId>& replicas) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(Op::kAddDataPartition));
  enc.PutVarint(vol);
  enc.PutVarint(replicas.size());
  for (auto r : replicas) enc.PutU32(r);
  return enc.Take();
}

std::string MasterState::EncodeSetMetaPartitionEnd(PartitionId pid, uint64_t end) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(Op::kSetMetaPartitionEnd));
  enc.PutVarint(pid);
  enc.PutVarint(end);
  return enc.Take();
}

std::string MasterState::EncodeSetPartitionReadOnly(PartitionId pid, bool is_meta,
                                                    bool read_only) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(Op::kSetPartitionReadOnly));
  enc.PutVarint(pid);
  enc.PutU8(is_meta ? 1 : 0);
  enc.PutU8(read_only ? 1 : 0);
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
  Decoder dec(cmd.view());
  uint8_t op = 0;
  raft::ApplyOutcome scratch;  // nobody waits: the outcome goes nowhere
  raft::ApplyOutcome& out = slot ? *slot : scratch;
  Status st = dec.GetU8(&op);
  if (!st.ok()) {
    out.status = st;
  } else {
    switch (static_cast<Op>(op)) {
      case Op::kRegisterNode: {
        uint32_t node, raft_set;
        uint8_t is_meta, is_data;
        st = dec.GetU32(&node);
        if (st.ok()) st = dec.GetU8(&is_meta);
        if (st.ok()) st = dec.GetU8(&is_data);
        if (st.ok()) st = dec.GetU32(&raft_set);
        if (st.ok()) {
          NodeRecord rec{node, is_meta != 0, is_data != 0, raft_set};
          nodes_[node] = rec;
          Persist("node", node, std::to_string(raft_set));
          out.value = raft_set;
        }
        out.status = st;
        break;
      }
      case Op::kCreateVolume: {
        std::string name;
        uint32_t rf = 3;
        VolumeQos qos;
        st = dec.GetString(&name);
        if (st.ok()) st = dec.GetU32(&rf);
        if (st.ok() && (rf & kQosEncodedFlag)) {
          rf &= ~kQosEncodedFlag;
          st = dec.GetVarint(&qos.iops_limit);
          if (st.ok()) st = dec.GetVarint(&qos.bytes_per_sec);
          if (st.ok()) st = dec.GetU32(&qos.weight);
        }
        if (st.ok()) {
          if (volume_by_name_.count(name)) {
            out.status = Status::AlreadyExists("volume " + name);
            out.value = volume_by_name_[name];
            break;
          }
          VolumeRecord vol;
          vol.id = next_volume_++;
          vol.name = name;
          vol.replica_factor = rf;
          vol.qos = qos;
          volume_by_name_[name] = vol.id;
          out.value = vol.id;
          Persist("volume", vol.id, name);
          volumes_[vol.id] = std::move(vol);
        }
        out.status = st;
        break;
      }
      case Op::kAddMetaPartition: {
        MetaPartitionRecord rec;
        uint64_t n = 0;
        st = dec.GetVarint(&rec.volume);
        if (st.ok()) st = dec.GetVarint(&rec.start);
        if (st.ok()) st = dec.GetVarint(&rec.end);
        if (st.ok()) st = dec.GetVarint(&n);
        for (uint64_t i = 0; st.ok() && i < n; i++) {
          uint32_t r;
          st = dec.GetU32(&r);
          if (st.ok()) rec.replicas.push_back(r);
        }
        if (st.ok()) {
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
        }
        out.status = st;
        break;
      }
      case Op::kAddDataPartition: {
        DataPartitionRecord rec;
        uint64_t n = 0;
        st = dec.GetVarint(&rec.volume);
        if (st.ok()) st = dec.GetVarint(&n);
        for (uint64_t i = 0; st.ok() && i < n; i++) {
          uint32_t r;
          st = dec.GetU32(&r);
          if (st.ok()) rec.replicas.push_back(r);
        }
        if (st.ok()) {
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
        }
        out.status = st;
        break;
      }
      case Op::kSetMetaPartitionEnd: {
        uint64_t pid, end;
        st = dec.GetVarint(&pid);
        if (st.ok()) st = dec.GetVarint(&end);
        if (st.ok()) {
          auto it = meta_partitions_.find(pid);
          if (it == meta_partitions_.end()) {
            out.status = Status::NotFound("meta partition");
            break;
          }
          it->second.end = end;
          Persist("mp_end", pid, std::to_string(end));
          out.value = end;
        }
        out.status = st;
        break;
      }
      case Op::kSetPartitionReadOnly: {
        uint64_t pid;
        uint8_t is_meta, read_only;
        st = dec.GetVarint(&pid);
        if (st.ok()) st = dec.GetU8(&is_meta);
        if (st.ok()) st = dec.GetU8(&read_only);
        if (st.ok()) {
          if (is_meta) {
            auto it = meta_partitions_.find(pid);
            if (it != meta_partitions_.end()) it->second.read_only = read_only != 0;
          } else {
            auto it = data_partitions_.find(pid);
            if (it != data_partitions_.end()) it->second.read_only = read_only != 0;
          }
          Persist("ro", pid, std::to_string(read_only));
        }
        out.status = st;
        break;
      }
      default:
        out.status = Status::Corruption("unknown master op");
    }
  }
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

std::string MasterState::TakeSnapshot() {
  Encoder enc;
  enc.PutVarint(next_volume_);
  enc.PutVarint(next_partition_);
  enc.PutVarint(nodes_.size());
  for (const auto& [id, rec] : nodes_) {
    enc.PutU32(rec.node);
    enc.PutU8(rec.is_meta ? 1 : 0);
    enc.PutU8(rec.is_data ? 1 : 0);
    enc.PutU32(rec.raft_set);
  }
  enc.PutVarint(volumes_.size());
  for (const auto& [id, vol] : volumes_) {
    enc.PutVarint(vol.id);
    enc.PutString(vol.name);
    const bool has_qos = HasNonDefaultQos(vol.qos);
    enc.PutU32(vol.replica_factor | (has_qos ? kQosEncodedFlag : 0));
    if (has_qos) {
      enc.PutVarint(vol.qos.iops_limit);
      enc.PutVarint(vol.qos.bytes_per_sec);
      enc.PutU32(vol.qos.weight);
    }
    enc.PutVarint(vol.meta_partitions.size());
    for (auto p : vol.meta_partitions) enc.PutVarint(p);
    enc.PutVarint(vol.data_partitions.size());
    for (auto p : vol.data_partitions) enc.PutVarint(p);
  }
  enc.PutVarint(meta_partitions_.size());
  for (const auto& [id, mp] : meta_partitions_) {
    enc.PutVarint(mp.pid);
    enc.PutVarint(mp.volume);
    enc.PutVarint(mp.start);
    enc.PutVarint(mp.end);
    enc.PutU8(mp.read_only ? 1 : 0);
    enc.PutVarint(mp.replicas.size());
    for (auto r : mp.replicas) enc.PutU32(r);
  }
  enc.PutVarint(data_partitions_.size());
  for (const auto& [id, dp] : data_partitions_) {
    enc.PutVarint(dp.pid);
    enc.PutVarint(dp.volume);
    enc.PutU8(dp.read_only ? 1 : 0);
    enc.PutVarint(dp.replicas.size());
    for (auto r : dp.replicas) enc.PutU32(r);
  }
  return enc.Take();
}

void MasterState::Restore(std::string_view snapshot) {
  nodes_.clear();
  volumes_.clear();
  volume_by_name_.clear();
  meta_partitions_.clear();
  data_partitions_.clear();
  next_volume_ = 1;
  next_partition_ = 1;
  if (snapshot.empty()) return;
  Decoder dec(snapshot);
  uint64_t n = 0;
  (void)dec.GetVarint(&next_volume_);
  (void)dec.GetVarint(&next_partition_);
  (void)dec.GetVarint(&n);
  for (uint64_t i = 0; i < n; i++) {
    NodeRecord rec;
    uint8_t m = 0, d = 0;
    (void)dec.GetU32(&rec.node);
    (void)dec.GetU8(&m);
    (void)dec.GetU8(&d);
    (void)dec.GetU32(&rec.raft_set);
    rec.is_meta = m;
    rec.is_data = d;
    nodes_[rec.node] = rec;
  }
  (void)dec.GetVarint(&n);
  for (uint64_t i = 0; i < n; i++) {
    VolumeRecord vol;
    uint64_t k = 0;
    (void)dec.GetVarint(&vol.id);
    (void)dec.GetString(&vol.name);
    (void)dec.GetU32(&vol.replica_factor);
    if (vol.replica_factor & kQosEncodedFlag) {
      vol.replica_factor &= ~kQosEncodedFlag;
      (void)dec.GetVarint(&vol.qos.iops_limit);
      (void)dec.GetVarint(&vol.qos.bytes_per_sec);
      (void)dec.GetU32(&vol.qos.weight);
    }
    (void)dec.GetVarint(&k);
    for (uint64_t j = 0; j < k; j++) {
      uint64_t p = 0;
      (void)dec.GetVarint(&p);
      vol.meta_partitions.push_back(p);
    }
    (void)dec.GetVarint(&k);
    for (uint64_t j = 0; j < k; j++) {
      uint64_t p = 0;
      (void)dec.GetVarint(&p);
      vol.data_partitions.push_back(p);
    }
    volume_by_name_[vol.name] = vol.id;
    volumes_[vol.id] = std::move(vol);
  }
  (void)dec.GetVarint(&n);
  for (uint64_t i = 0; i < n; i++) {
    MetaPartitionRecord mp;
    uint8_t ro = 0;
    uint64_t k = 0;
    (void)dec.GetVarint(&mp.pid);
    (void)dec.GetVarint(&mp.volume);
    (void)dec.GetVarint(&mp.start);
    (void)dec.GetVarint(&mp.end);
    (void)dec.GetU8(&ro);
    (void)dec.GetVarint(&k);
    for (uint64_t j = 0; j < k; j++) {
      uint32_t r = 0;
      (void)dec.GetU32(&r);
      mp.replicas.push_back(r);
    }
    mp.read_only = ro;
    meta_partitions_[mp.pid] = std::move(mp);
  }
  (void)dec.GetVarint(&n);
  for (uint64_t i = 0; i < n; i++) {
    DataPartitionRecord dp;
    uint8_t ro = 0;
    uint64_t k = 0;
    (void)dec.GetVarint(&dp.pid);
    (void)dec.GetVarint(&dp.volume);
    (void)dec.GetU8(&ro);
    (void)dec.GetVarint(&k);
    for (uint64_t j = 0; j < k; j++) {
      uint32_t r = 0;
      (void)dec.GetU32(&r);
      dp.replicas.push_back(r);
    }
    dp.read_only = ro;
    data_partitions_[dp.pid] = std::move(dp);
  }
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

sim::Task<Status> MasterNode::Recover() {
  CFS_CO_RETURN_IF_ERROR(co_await kv_.Open());
  co_return co_await raft_node_->Recover();
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

Task<Status> MasterNode::InstallMetaPartition(MetaPartitionRecord rec) {
  meta::MetaPartitionConfig cfg;
  cfg.id = rec.pid;
  cfg.volume = rec.volume;
  cfg.start = rec.start;
  cfg.end = rec.end;
  cfg.create_root = rec.start == meta::kRootInode;  // volume's first partition
  cfg.qos_weight = VolumeWeight(rec.volume);
  Status last = Status::OK();
  for (sim::NodeId node : rec.replicas) {
    meta::CreateMetaPartitionReq req{cfg, rec.replicas};
    auto r = co_await admin_channel_.Unary<meta::CreateMetaPartitionReq,
                                           meta::CreateMetaPartitionResp>(
        host_->id(), node, std::move(req), opts_.admin_rpc_timeout);
    if (!r.ok()) {
      last = r.status();
    } else if (!r->status.ok() && !r->status.IsAlreadyExists()) {
      last = r->status;
    }
  }
  co_return last;
}

Task<Status> MasterNode::InstallDataPartition(DataPartitionRecord rec) {
  data::DataPartitionConfig cfg;
  cfg.id = rec.pid;
  cfg.volume = rec.volume;
  cfg.replicas = rec.replicas;
  cfg.qos_weight = VolumeWeight(rec.volume);
  Status last = Status::OK();
  for (sim::NodeId node : rec.replicas) {
    cfg.disk_index = -1;  // each node picks its least-utilized local disk
    data::CreateDataPartitionReq req{cfg};
    auto r = co_await admin_channel_.Unary<data::CreateDataPartitionReq,
                                           data::CreateDataPartitionResp>(
        host_->id(), node, std::move(req), opts_.admin_rpc_timeout);
    if (!r.ok()) {
      last = r.status();
    } else if (!r->status.ok() && !r->status.IsAlreadyExists()) {
      last = r->status;
    }
  }
  co_return last;
}

Task<Status> MasterNode::CreatePartitionsForVolume(VolumeId vol, uint32_t meta_count,
                                                   uint32_t data_count, uint32_t rf) {
  // Meta partitions: chunked inode ranges, last partition unbounded.
  for (uint32_t i = 0; i < meta_count; i++) {
    uint64_t start = i == 0 ? meta::kRootInode : 1 + static_cast<uint64_t>(i) * opts_.inode_chunk;
    uint64_t end = (i + 1 == meta_count) ? UINT64_MAX
                                         : static_cast<uint64_t>(i + 1) * opts_.inode_chunk;
    auto replicas = PickReplicas(true, rf, vol * 131 + i);
    if (replicas.empty()) co_return Status::Unavailable("not enough meta nodes");
    auto out = co_await Propose(MasterState::EncodeAddMetaPartition(vol, start, end, replicas));
    CFS_CO_RETURN_IF_ERROR(out.status);
    auto it = state_.meta_partitions().find(out.value);
    if (it != state_.meta_partitions().end()) {
      CFS_CO_RETURN_IF_ERROR(co_await InstallMetaPartition(it->second));
    }
  }
  for (uint32_t i = 0; i < data_count; i++) {
    auto replicas = PickReplicas(false, rf, vol * 257 + i);
    if (replicas.empty()) co_return Status::Unavailable("not enough data nodes");
    auto out = co_await Propose(MasterState::EncodeAddDataPartition(vol, replicas));
    CFS_CO_RETURN_IF_ERROR(out.status);
    auto it = state_.data_partitions().find(out.value);
    if (it != state_.data_partitions().end()) {
      CFS_CO_RETURN_IF_ERROR(co_await InstallDataPartition(it->second));
    }
  }
  co_return Status::OK();
}

uint32_t MasterNode::VolumeWeight(VolumeId vol) const {
  auto it = state_.volumes().find(vol);
  return it == state_.volumes().end() ? 1 : it->second.qos.weight;
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
      auto rit = runtime_.find(node);
      if (rit == runtime_.end()) continue;
      auto mit = rit->second.meta_reports.find(pid);
      if (mit != rit->second.meta_reports.end()) {
        if (mit->second.is_leader) view.leader_hint = node;
        if (mit->second.full) view.writable = false;
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
      auto rit = runtime_.find(node);
      if (rit == runtime_.end()) continue;
      auto dit = rit->second.data_reports.find(pid);
      if (dit != rit->second.data_reports.end()) {
        if (dit->second.is_raft_leader) view.raft_leader_hint = node;
        if (dit->second.full) view.writable = false;
      }
    }
    resp.data_partitions.push_back(std::move(view));
  }
  resp.status = Status::OK();
  return resp;
}

Task<Status> MasterNode::MarkReadOnly(PartitionId pid, bool is_meta) {
  auto out = co_await Propose(MasterState::EncodeSetPartitionReadOnly(pid, is_meta, true));
  co_return out.status;
}

void MasterNode::RegisterHandlers() {
  host_->Register<RegisterNodeReq, RegisterNodeResp>(
      [this](RegisterNodeReq req, sim::NodeId) -> Task<RegisterNodeResp> {
        co_await host_->cpu().Use(10);
        if (!IsLeader()) {
          co_return RegisterNodeResp{Status::NotLeader(std::to_string(leader_hint())), 0};
        }
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
        if (!IsLeader()) {
          co_return NodeHeartbeatResp{Status::NotLeader(std::to_string(leader_hint()))};
        }
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
        if (!IsLeader()) {
          co_return CreateVolumeResp{Status::NotLeader(std::to_string(leader_hint())), 0};
        }
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
        GetVolumeResp resp;
        if (!IsLeader()) {
          resp.status = Status::NotLeader(std::to_string(leader_hint()));
          co_return resp;
        }
        const VolumeRecord* vol = state_.FindVolume(req.name);
        if (!vol) {
          resp.status = Status::NotFound("volume " + req.name);
          co_return resp;
        }
        co_return BuildVolumeView(*vol);
      });

  host_->Register<ReportPartitionFailureReq, ReportPartitionFailureResp>(
      [this](ReportPartitionFailureReq req, sim::NodeId) -> Task<ReportPartitionFailureResp> {
        co_await host_->cpu().Use(8);
        if (!IsLeader()) {
          co_return ReportPartitionFailureResp{
              Status::NotLeader(std::to_string(leader_hint()))};
        }
        co_return ReportPartitionFailureResp{co_await MarkReadOnly(req.pid, req.is_meta)};
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
  // Decide first, act second: MarkReadOnly goes through Raft (a suspension),
  // and the partition maps can be mutated — entries added by splits, the
  // state replaced on apply — while this coroutine is parked, which would
  // invalidate the live iterators of these range-fors (A1).
  std::vector<std::pair<PartitionId, bool>> targets;
  for (const auto& [pid, rec] : state_.meta_partitions()) {
    if (rec.read_only) continue;
    for (sim::NodeId r : rec.replicas) {
      if (dead.count(r)) {
        targets.emplace_back(pid, true);
        break;
      }
    }
  }
  for (const auto& [pid, rec] : state_.data_partitions()) {
    if (rec.read_only) continue;
    for (sim::NodeId r : rec.replicas) {
      if (dead.count(r)) {
        targets.emplace_back(pid, false);
        break;
      }
    }
  }
  for (const auto& [pid, is_meta] : targets) {
    (void)co_await MarkReadOnly(pid, is_meta);
  }
}

Task<void> MasterNode::MaybeSplitMetaPartitions() {
  // Algorithm 1: only the partition owning the unbounded tail of the inode
  // range splits; the cut happens at maxInodeID + delta.
  std::vector<MetaPartitionRecord> to_split;
  for (const auto& [pid, rec] : state_.meta_partitions()) {
    if (rec.end != UINT64_MAX || rec.read_only || splitting_.count(pid)) continue;
    uint64_t max_items = 0, max_inode = 0;
    for (sim::NodeId node : rec.replicas) {
      auto rit = runtime_.find(node);
      if (rit == runtime_.end()) continue;
      auto mit = rit->second.meta_reports.find(pid);
      if (mit == rit->second.meta_reports.end()) continue;
      max_items = std::max(max_items, mit->second.item_count);
      max_inode = std::max(max_inode, mit->second.max_inode_id);
    }
    if (max_items >= opts_.meta_split_threshold) to_split.push_back(rec);
  }
  for (const auto& rec : to_split) {
    splitting_.insert(rec.pid);
    uint64_t max_inode = 0;
    for (sim::NodeId node : rec.replicas) {
      auto rit = runtime_.find(node);
      if (rit == runtime_.end()) continue;
      auto mit = rit->second.meta_reports.find(rec.pid);
      if (mit != rit->second.meta_reports.end()) {
        max_inode = std::max(max_inode, mit->second.max_inode_id);
      }
    }
    uint64_t end = max_inode + opts_.split_delta;  // the cutoff (Algorithm 1 line 8)
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
    auto replicas = PickReplicas(true, static_cast<uint32_t>(rec.replicas.size()),
                                 rec.pid * 977);
    if (!replicas.empty()) {
      auto added = co_await Propose(
          MasterState::EncodeAddMetaPartition(rec.volume, end + 1, UINT64_MAX, replicas));
      if (added.status.ok()) {
        auto it = state_.meta_partitions().find(added.value);
        if (it != state_.meta_partitions().end()) {
          (void)co_await InstallMetaPartition(it->second);
          splits_++;
          LOG_INFO("split meta partition ", rec.pid, " at ", end, ", new partition ",
                   added.value);
        }
      }
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
      bool full = false;
      for (sim::NodeId node : it->second.replicas) {
        auto rit = runtime_.find(node);
        if (rit == runtime_.end()) continue;
        auto dit = rit->second.data_reports.find(pid);
        if (dit != rit->second.data_reports.end() && dit->second.full) full = true;
      }
      if (!full) writable++;
    }
    if (!vol.data_partitions.empty() && writable < opts_.min_writable_data_partitions) {
      expand.emplace_back(vid, vol.replica_factor);
    }
  }
  for (auto [vid, rf] : expand) {
    for (uint32_t i = 0; i < opts_.expand_batch; i++) {
      auto replicas = PickReplicas(false, rf, vid * 31 + i + expansions_ * 7919);
      if (replicas.empty()) break;
      auto out = co_await Propose(MasterState::EncodeAddDataPartition(vid, replicas));
      if (!out.status.ok()) break;
      auto it = state_.data_partitions().find(out.value);
      if (it != state_.data_partitions().end()) {
        (void)co_await InstallDataPartition(it->second);
      }
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
    out += "\"" + std::to_string(node) + "\":{\"alive\":";
    out += alive ? "true" : "false";
    out += ",\"last_heartbeat\":" + std::to_string(rt.last_heartbeat) +
           ",\"health\":" + rt.health.DumpJson() + "}";
  }
  out += "}}";
  return out;
}

}  // namespace cfs::master
