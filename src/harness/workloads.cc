#include "harness/workloads.h"

#include "common/rng.h"

namespace cfs::bench {

using harness::RunTask;
using sim::Spawn;
using sim::Task;

// --- CFS adapters ---------------------------------------------------------------

Task<Result<uint64_t>> CfsMetaOps::Mkdir(uint64_t parent, std::string name) {
  auto r = co_await m_->Create(parent, std::move(name), meta::FileType::kDir);
  if (!r.ok()) co_return r.status();
  co_return r->id;
}

Task<Result<uint64_t>> CfsMetaOps::Create(uint64_t parent, std::string name) {
  auto r = co_await m_->Create(parent, std::move(name), meta::FileType::kFile);
  if (!r.ok()) co_return r.status();
  co_return r->id;
}

Task<Result<size_t>> CfsMetaOps::StatDir(uint64_t dir) {
  // readdir + batchInodeGet, with client-side caching (§4.2).
  auto r = co_await m_->ReadDirPlus(dir);
  if (!r.ok()) co_return r.status();
  co_return r->size();
}

Task<Status> CfsMetaOps::Remove(uint64_t parent, std::string name) {
  co_return co_await m_->Unlink(parent, std::move(name));
}

Task<Status> CfsMetaOps::Rmdir(uint64_t parent, std::string name) {
  co_return co_await m_->Unlink(parent, std::move(name));
}

Task<Result<uint64_t>> CfsDataOps::PrepareFile(uint64_t bytes) {
  // Create the inode, then materialize extents directly on every replica
  // (the laydown phase the paper's fio runs exclude from measurement).
  static uint64_t file_seq = 0;
  std::string name = "fio-" + std::to_string(m_->node()) + "-" + std::to_string(file_seq++);
  auto created = co_await m_->Create(meta::kRootInode, name, meta::FileType::kFile);
  if (!created.ok()) co_return created.status();
  meta::InodeId ino = created->id;

  master::MasterNode* leader = cluster_->master_leader();
  if (!leader) co_return Status::Unavailable("no master leader");
  std::vector<data::PartitionId> pids;
  for (const auto& [pid, rec] : leader->state().data_partitions()) pids.push_back(pid);
  if (pids.empty()) co_return Status::Unavailable("no data partitions");

  const uint64_t extent_size = storage::kExtentSizeLimit;
  std::vector<meta::ExtentKey> keys;
  uint64_t offset = 0;
  while (offset < bytes) {
    uint64_t len = std::min(extent_size, bytes - offset);
    data::PartitionId pid = pids[(prepared_ + offset / extent_size) % pids.size()];
    storage::ExtentId eid = 1'000'000 + ino * 1024 + offset / extent_size;
    for (sim::NodeId node : cluster_->DataPartitionReplicas(pid)) {
      for (int i = 0; i < cluster_->num_nodes(); i++) {
        if (cluster_->node_host(i)->id() != node) continue;
        data::DataPartition* dp = cluster_->data_node(i)->GetPartition(pid);
        if (dp) {
          (void)dp->store().ImportExtent(eid, len, false);
          dp->set_committed(eid, len);
        }
      }
    }
    meta::ExtentKey key;
    key.file_offset = offset;
    key.partition_id = pid;
    key.extent_id = eid;
    key.extent_offset = 0;
    key.size = len;
    keys.push_back(key);
    offset += len;
  }
  prepared_++;
  m_->InjectPreparedFile(ino, std::move(keys), bytes);
  co_return ino;
}

Buffer CfsDataOps::FillPayload(uint64_t len) {
  if (fill_.size() < len) {
    fill_ = Buffer::Filled(std::max<uint64_t>(len, 4 * 1024 * 1024), 'w');
  }
  return fill_.Slice(0, len);
}

Task<Status> CfsDataOps::Write(uint64_t file, uint64_t offset, uint64_t len, bool overwrite) {
  (void)overwrite;  // the client splits overwrite/append itself (§2.7.2)
  CFS_CO_RETURN_IF_ERROR(co_await m_->Write(file, offset, FillPayload(len)));
  if (!overwrite) {
    // Appends sync size/extent metadata (fsync-per-op keeps parity with the
    // Ceph model's per-op size persist).
    co_return co_await m_->Fsync(file);
  }
  co_return Status::OK();
}

Task<Status> CfsDataOps::Read(uint64_t file, uint64_t offset, uint64_t len) {
  auto r = co_await m_->Read(file, offset, len);
  co_return r.status();
}

// --- Ceph adapters ----------------------------------------------------------------

Task<Result<uint64_t>> CephMetaOps::Mkdir(uint64_t parent, std::string name) {
  auto r = co_await c_->Mkdir(parent, std::move(name));
  if (!r.ok()) co_return r.status();
  co_return *r;
}

Task<Result<uint64_t>> CephMetaOps::Create(uint64_t parent, std::string name) {
  auto r = co_await c_->Create(parent, std::move(name));
  if (!r.ok()) co_return r.status();
  co_return *r;
}

Task<Result<size_t>> CephMetaOps::StatDir(uint64_t dir) {
  auto r = co_await c_->ReaddirPlus(dir);
  if (!r.ok()) co_return r.status();
  co_return r->size();
}

Task<Status> CephMetaOps::Remove(uint64_t parent, std::string name) {
  co_return co_await c_->Remove(parent, std::move(name));
}

Task<Status> CephMetaOps::Rmdir(uint64_t parent, std::string name) {
  co_return co_await c_->Rmdir(parent, std::move(name));
}

Task<Result<uint64_t>> CephDataOps::PrepareFile(uint64_t bytes) {
  (void)bytes;  // objects materialize lazily in the model
  // One directory per fio file: "each client in Ceph operates different
  // file directories and each directory is bonded to a specific MDS in
  // order to maximize the concurrency" (§4.3).
  static uint64_t file_seq = 0;
  auto d = co_await c_->Mkdir(ceph::kCephRoot, "fio-dir-" + std::to_string(file_seq++));
  if (!d.ok()) co_return d.status();
  auto r = co_await c_->Create(*d, "fio-" + std::to_string(file_seq++));
  if (!r.ok()) co_return r.status();
  file_dir_[*r] = *d;
  co_return *r;
}

Task<Status> CephDataOps::Write(uint64_t file, uint64_t offset, uint64_t len,
                                bool overwrite) {
  uint64_t parent = 0;
  if (!overwrite) {
    auto it = file_dir_.find(file);
    parent = it == file_dir_.end() ? ceph::kCephRoot : it->second;
  }
  co_return co_await c_->Write(file, parent, offset, len, overwrite);
}

Task<Status> CephDataOps::Read(uint64_t file, uint64_t offset, uint64_t len) {
  co_return co_await c_->Read(file, offset, len);
}

// --- mdtest ------------------------------------------------------------------------

const char* MdTestName(MdTest t) {
  switch (t) {
    case MdTest::kDirCreation: return "DirCreation";
    case MdTest::kDirStat: return "DirStat";
    case MdTest::kDirRemoval: return "DirRemoval";
    case MdTest::kFileCreation: return "FileCreation";
    case MdTest::kFileRemoval: return "FileRemoval";
    case MdTest::kTreeCreation: return "TreeCreation";
    case MdTest::kTreeRemoval: return "TreeRemoval";
  }
  return "?";
}

namespace {

struct ProcState {
  uint64_t parent = 0;              // per-process working directory
  std::vector<uint64_t> dirs;       // created directories (DirRemoval)
  std::vector<std::string> names;   // created entries
  std::vector<std::pair<uint64_t, std::string>> tree_dirs;  // (parent, name)
  std::vector<uint64_t> tree_order;                         // creation order
};

/// Build a tree of non-leaf directories; returns directories in creation
/// order (parents before children).
Task<Status> BuildTree(MetaOps* ops, uint64_t root, int depth, int branch,
                       const std::string& tag,
                       std::vector<std::pair<uint64_t, std::string>>* dirs_by_parent,
                       std::vector<uint64_t>* order) {
  struct Frame {
    uint64_t dir;
    int depth;
  };
  std::vector<Frame> stack{{root, 0}};
  int seq = 0;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.depth >= depth) continue;
    for (int b = 0; b < branch; b++) {
      std::string name = tag + "-t" + std::to_string(seq++);
      auto d = co_await ops->Mkdir(f.dir, name);
      if (!d.ok()) co_return d.status();
      if (dirs_by_parent) dirs_by_parent->emplace_back(f.dir, name);
      if (order) order->push_back(*d);
      stack.push_back({*d, f.depth + 1});
    }
  }
  co_return Status::OK();
}

/// Shared context for the per-process mdtest coroutines.  The coroutines
/// take this as an explicit pointer parameter instead of capturing the
/// enclosing frame by reference: by-ref captures live in the lambda OBJECT,
/// not the coroutine frame, and dangle if the task outlives the scope (A2).
/// RunMdtest pumps the scheduler until every proc joins, so the context
/// strictly outlives the coroutines.
struct MdCtx {
  sim::Scheduler* sched;
  MdTest test;
  const std::vector<MetaOps*>* procs;
  const MdtestParams* params;
  std::vector<ProcState>* state;
  int n;
  uint64_t total_ops = 0;
  obs::Histogram latency;
};

Task<void> MdtestSetupProc(MdCtx* c, int i) {
  MetaOps* ops = (*c->procs)[i];
  const MdtestParams& params = *c->params;
  std::string tag = params.phase_tag + "p" + std::to_string(i);
  auto dir = co_await ops->Mkdir(ops->Root(), tag);
  if (!dir.ok()) co_return;
  (*c->state)[i].parent = *dir;
  const uint64_t parent = *dir;
  switch (c->test) {
    case MdTest::kDirStat: {
      for (int k = 0; k < params.stat_dir_files; k++) {
        std::string name = tag + "-s" + std::to_string(k);
        (void)co_await ops->Create(parent, name);
      }
      break;
    }
    case MdTest::kDirRemoval: {
      for (int k = 0; k < params.items_per_proc; k++) {
        std::string name = tag + "-d" + std::to_string(k);
        auto d = co_await ops->Mkdir(parent, name);
        if (d.ok()) (*c->state)[i].names.push_back(name);
      }
      break;
    }
    case MdTest::kFileRemoval: {
      for (int k = 0; k < params.items_per_proc; k++) {
        std::string name = tag + "-f" + std::to_string(k);
        auto f = co_await ops->Create(parent, name);
        if (f.ok()) (*c->state)[i].names.push_back(name);
      }
      break;
    }
    case MdTest::kTreeRemoval: {
      (void)co_await BuildTree(ops, parent, params.tree_depth, params.tree_branch,
                               tag, &(*c->state)[i].tree_dirs,
                               &(*c->state)[i].tree_order);
      break;
    }
    default:
      break;
  }
}

Task<void> MdtestMeasuredProc(MdCtx* c, int i) {
  MetaOps* ops = (*c->procs)[i];
  const MdtestParams& params = *c->params;
  sim::Scheduler* sched = c->sched;
  std::string tag = params.phase_tag + "p" + std::to_string(i);
  const uint64_t parent = (*c->state)[i].parent;
  switch (c->test) {
    case MdTest::kDirCreation: {
      for (int k = 0; k < params.items_per_proc; k++) {
        SimTime s = sched->Now();
        auto d = co_await ops->Mkdir(parent, tag + "-d" + std::to_string(k));
        if (d.ok()) {
          c->total_ops++;
          c->latency.Add(sched->Now() - s);
        }
      }
      break;
    }
    case MdTest::kFileCreation: {
      for (int k = 0; k < params.items_per_proc; k++) {
        SimTime s = sched->Now();
        auto f = co_await ops->Create(parent, tag + "-f" + std::to_string(k));
        if (f.ok()) {
          c->total_ops++;
          c->latency.Add(sched->Now() - s);
        }
      }
      break;
    }
    case MdTest::kDirStat: {
      // mdtest counts one op per stat'ed entry; the -N rank shift makes
      // process i stat another process's directory. Latency samples are
      // per scan (one readdirplus round), not per entry.
      uint64_t target = (*c->state)[(i + params.stat_shift) % c->n].parent;
      for (int rep = 0; rep < params.stat_repetitions; rep++) {
        SimTime s = sched->Now();
        auto r = co_await ops->StatDir(target);
        if (r.ok()) {
          c->total_ops += *r;
          c->latency.Add(sched->Now() - s);
        }
      }
      break;
    }
    case MdTest::kDirRemoval: {
      // Snapshot the names: the loop suspends on every Rmdir, and iterating
      // state owned outside this frame across suspensions is an A1 hazard.
      const std::vector<std::string> names = (*c->state)[i].names;
      for (const auto& name : names) {
        SimTime s = sched->Now();
        Status st = co_await ops->Rmdir(parent, name);
        if (st.ok()) {
          c->total_ops++;
          c->latency.Add(sched->Now() - s);
        }
      }
      break;
    }
    case MdTest::kFileRemoval: {
      const std::vector<std::string> names = (*c->state)[i].names;
      for (const auto& name : names) {
        SimTime s = sched->Now();
        Status st = co_await ops->Remove(parent, name);
        if (st.ok()) {
          c->total_ops++;
          c->latency.Add(sched->Now() - s);
        }
      }
      break;
    }
    case MdTest::kTreeCreation: {
      // mdtest builds the directory tree once (rank 0); an "op" here is
      // one full tree, which is why the paper's numbers are ~10 IOPS.
      SimTime s = sched->Now();
      Status st = co_await BuildTree(ops, parent, params.tree_depth,
                                     params.tree_branch, tag, nullptr, nullptr);
      if (st.ok()) {
        c->total_ops++;
        c->latency.Add(sched->Now() - s);
      }
      break;
    }
    case MdTest::kTreeRemoval: {
      // mdtest's removal walks the tree via readdir before unlinking:
      // leaves-first, scanning each directory to discover its entries.
      // Snapshots, for the same reason as the removal cases above.
      const std::vector<uint64_t> order = (*c->state)[i].tree_order;
      const std::vector<std::pair<uint64_t, std::string>> dirs =
          (*c->state)[i].tree_dirs;
      SimTime s = sched->Now();
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        (void)co_await ops->StatDir(*it);
      }
      for (auto it = dirs.rbegin(); it != dirs.rend(); ++it) {
        (void)co_await ops->Rmdir(it->first, it->second);
      }
      c->total_ops++;
      c->latency.Add(sched->Now() - s);
      break;
    }
  }
}

}  // namespace

BenchResult RunMdtest(sim::Scheduler* sched, MdTest test,
                      const std::vector<MetaOps*>& procs, const MdtestParams& params) {
  const int n = static_cast<int>(procs.size());
  std::vector<ProcState> state(n);
  MdCtx ctx{sched, test, &procs, &params, &state, n};

  // ---- Setup phase (unmeasured) ----
  {
    sim::Join join(sched, n);
    for (int i = 0; i < n; i++) {
      auto done = join.Arrive();
      Spawn([](Task<void> t, std::function<void()> done) -> Task<void> {
        co_await std::move(t);
        done();
      }(MdtestSetupProc(&ctx, i), done));
    }
    (void)harness::RunTaskVoid(*sched, join.Wait());
  }

  // ---- Measured phase ----
  SimTime t0 = sched->Now();
  {
    sim::Join join(sched, n);
    for (int i = 0; i < n; i++) {
      auto done = join.Arrive();
      Spawn([](Task<void> t, std::function<void()> done) -> Task<void> {
        co_await std::move(t);
        done();
      }(MdtestMeasuredProc(&ctx, i), done));
    }
    (void)harness::RunTaskVoid(*sched, join.Wait());
  }
  BenchResult res;
  res.ops = ctx.total_ops;
  res.elapsed = sched->Now() - t0;
  res.latency = ctx.latency;
  return res;
}

// --- fio ---------------------------------------------------------------------------

const char* FioPatternName(FioPattern p) {
  switch (p) {
    case FioPattern::kSeqWrite: return "SeqWrite";
    case FioPattern::kSeqRead: return "SeqRead";
    case FioPattern::kRandWrite: return "RandWrite";
    case FioPattern::kRandRead: return "RandRead";
  }
  return "?";
}

BenchResult RunFio(sim::Scheduler* sched, FioPattern pattern,
                   const std::vector<DataOps*>& procs, const FioParams& params) {
  const int n = static_cast<int>(procs.size());
  std::vector<uint64_t> files(n, 0);

  // Laydown (unmeasured).
  {
    sim::Join join(sched, n);
    for (int i = 0; i < n; i++) {
      auto done = join.Arrive();
      Spawn([](DataOps* ops, uint64_t bytes, uint64_t& file,
               std::function<void()> done) -> Task<void> {
        auto f = co_await ops->PrepareFile(bytes);
        if (f.ok()) file = *f;
        done();
      }(procs[i], params.file_bytes, files[i], done));
    }
    (void)harness::RunTaskVoid(*sched, join.Wait());
  }

  uint64_t total_ops = 0;
  obs::Histogram latency;
  SimTime t0 = sched->Now();
  {
    sim::Join join(sched, n);
    for (int i = 0; i < n; i++) {
      auto done = join.Arrive();
      Spawn([](sim::Scheduler* sched, FioPattern pattern, DataOps* ops, uint64_t file,
               FioParams params, int seed, uint64_t& total, obs::Histogram& lat,
               std::function<void()> done) -> Task<void> {
        if (file == 0) {
          done();
          co_return;
        }
        Rng rng(0xf10f10 + seed);
        uint64_t seq_pos = 0;
        for (int k = 0; k < params.ops_per_proc; k++) {
          SimTime op_start = sched->Now();
          Status st;
          switch (pattern) {
            case FioPattern::kSeqWrite: {
              // Appends at EOF: overwrite=false (primary-backup path).
              st = co_await ops->Write(file, params.file_bytes + seq_pos,
                                       params.seq_block, false);
              seq_pos += params.seq_block;
              break;
            }
            case FioPattern::kSeqRead: {
              uint64_t off = seq_pos % (params.file_bytes - params.seq_block);
              st = co_await ops->Read(file, off, params.seq_block);
              seq_pos += params.seq_block;
              break;
            }
            case FioPattern::kRandWrite: {
              uint64_t off = rng.Uniform(params.file_bytes - params.rand_block);
              st = co_await ops->Write(file, off, params.rand_block, true);
              break;
            }
            case FioPattern::kRandRead: {
              uint64_t off = rng.Uniform(params.file_bytes - params.rand_block);
              st = co_await ops->Read(file, off, params.rand_block);
              break;
            }
          }
          if (st.ok()) {
            total++;
            lat.Add(sched->Now() - op_start);
          }
        }
        done();
      }(sched, pattern, procs[i], files[i], params, i, total_ops, latency, done));
    }
    (void)harness::RunTaskVoid(*sched, join.Wait());
  }
  BenchResult res;
  res.ops = total_ops;
  res.elapsed = sched->Now() - t0;
  res.latency = latency;
  return res;
}

// --- Small files (Fig. 10) -----------------------------------------------------------

BenchResult RunSmallFiles(sim::Scheduler* sched, SmallFileTest test, uint64_t file_size,
                          const std::vector<MetaOps*>& meta,
                          const std::vector<DataOps*>& data, int files_per_proc) {
  const int n = static_cast<int>(meta.size());
  std::vector<std::vector<std::pair<uint64_t, std::string>>> files(n);
  std::vector<uint64_t> parents(n, 0);

  // Setup: per-proc dir; for read/removal also pre-create the files.
  {
    sim::Join join(sched, n);
    for (int i = 0; i < n; i++) {
      auto done = join.Arrive();
      Spawn([](MetaOps* m, DataOps* d, SmallFileTest test, uint64_t file_size, int count,
               int i, uint64_t& parent, std::vector<std::pair<uint64_t, std::string>>& out,
               std::function<void()> done) -> Task<void> {
        std::string tag = "sf" + std::to_string(i);
        auto dir = co_await m->Mkdir(m->Root(), tag);
        if (dir.ok()) {
          parent = *dir;
          if (test != SmallFileTest::kWrite) {
            for (int k = 0; k < count; k++) {
              std::string name = tag + "-" + std::to_string(k);
              auto f = co_await m->Create(parent, name);
              if (!f.ok()) continue;
              d->BindParent(*f, parent);
              (void)co_await d->Write(*f, 0, file_size, false);
              out.emplace_back(*f, name);
            }
          }
        }
        done();
      }(meta[i], data[i], test, file_size, files_per_proc, i, parents[i], files[i], done));
    }
    (void)harness::RunTaskVoid(*sched, join.Wait());
  }

  uint64_t total_ops = 0;
  obs::Histogram latency;
  SimTime t0 = sched->Now();
  {
    sim::Join join(sched, n);
    for (int i = 0; i < n; i++) {
      auto done = join.Arrive();
      // `mine` comes in BY VALUE: the read/removal cases iterate it across
      // suspensions, so the coroutine frame must own its copy (A1).
      Spawn([](sim::Scheduler* sched, MetaOps* m, DataOps* d, SmallFileTest test,
               uint64_t file_size, int count, int i, uint64_t parent,
               std::vector<std::pair<uint64_t, std::string>> mine, uint64_t& total,
               obs::Histogram& lat, std::function<void()> done) -> Task<void> {
        std::string tag = "sf" + std::to_string(i);
        switch (test) {
          case SmallFileTest::kWrite: {
            // One "op" is create + write (the paper's small-file write is a
            // whole-file laydown), so the sample spans both.
            for (int k = 0; k < count; k++) {
              SimTime s = sched->Now();
              std::string name = tag + "-w" + std::to_string(k);
              auto f = co_await m->Create(parent, name);
              if (!f.ok()) continue;
              d->BindParent(*f, parent);
              Status st = co_await d->Write(*f, 0, file_size, false);
              if (st.ok()) {
                total++;
                lat.Add(sched->Now() - s);
              }
            }
            break;
          }
          case SmallFileTest::kRead: {
            for (auto& [ino, name] : mine) {
              SimTime s = sched->Now();
              Status st = co_await d->Read(ino, 0, file_size);
              if (st.ok()) {
                total++;
                lat.Add(sched->Now() - s);
              }
            }
            break;
          }
          case SmallFileTest::kRemoval: {
            for (auto& [ino, name] : mine) {
              SimTime s = sched->Now();
              Status st = co_await m->Remove(parent, name);
              if (st.ok()) {
                total++;
                lat.Add(sched->Now() - s);
              }
            }
            break;
          }
        }
        done();
      }(sched, meta[i], data[i], test, file_size, files_per_proc, i, parents[i], files[i],
        total_ops, latency, done));
    }
    (void)harness::RunTaskVoid(*sched, join.Wait());
  }
  BenchResult res;
  res.ops = total_ops;
  res.elapsed = sched->Now() - t0;
  res.latency = latency;
  return res;
}

}  // namespace cfs::bench
