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

Task<Result<uint64_t>> CfsDataOps::PrepareFile(uint64_t bytes, uint64_t index) {
  // Create the inode, then materialize extents directly on every replica
  // (the laydown phase the paper's fio runs exclude from measurement).
  std::string name = "fio-" + std::to_string(m_->node()) + "-" + std::to_string(index);
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

Task<Result<uint64_t>> CephDataOps::PrepareFile(uint64_t bytes, uint64_t index) {
  (void)bytes;  // objects materialize lazily in the model
  // One directory per fio file: "each client in Ceph operates different
  // file directories and each directory is bonded to a specific MDS in
  // order to maximize the concurrency" (§4.3).
  auto d = co_await c_->Mkdir(ceph::kCephRoot, "fio-dir-" + std::to_string(2 * index));
  if (!d.ok()) co_return d.status();
  auto r = co_await c_->Create(*d, "fio-" + std::to_string(2 * index + 1));
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

// --- Closed-loop engine -------------------------------------------------------------

bool RunProcs(sim::Scheduler* sched, int n, const std::function<Task<void>(int)>& proc) {
  sim::Join join(sched, n);
  for (int i = 0; i < n; i++) {
    Spawn([](Task<void> t, std::function<void()> done) -> Task<void> {
      co_await std::move(t);
      done();
    }(proc(i), join.Arrive()));
  }
  return harness::RunTaskVoid(*sched, join.Wait());
}

namespace {

/// What each proc of a cell does; RunClosedLoop drives it.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Unmeasured per-proc setup. A failure skips the proc's ops.
  virtual Task<Status> Setup(int proc) = 0;
  /// Measured op `k` of `proc`: the units it counts, or its failure.
  virtual Task<Result<uint64_t>> Op(int proc, int k) = 0;
};

Result<uint64_t> OneUnit(const Status& st) {
  if (!st.ok()) return st;
  return uint64_t{1};
}

/// One cell in flight. Its procs take it as a parameter, never as a capture.
struct Cell {
  sim::Scheduler* sched;
  Workload* w;
  int procs;
  int ops_per_proc;
  std::vector<char> ready;  // proc i's setup succeeded
  int returned = 0;         // procs of the current phase that returned
  BenchResult res;

  /// The one accounting point: every status of the cell, setup included,
  /// passes through here. A measured op is one attempt; a setup is one only
  /// when it fails, since its proc then issues no op. Returns st.ok().
  bool Account(const Status& st, bool measured, SimTime start, uint64_t units) {
    if (st.ok() && !measured) return true;
    res.attempted++;
    if (!st.ok()) {
      res.failed++;
      return false;
    }
    res.ops += units;
    res.latency.Add(sched->Now() - start);
    return true;
  }

  /// Runs one phase on every proc. A proc that never returns (the
  /// simulation stalled under it) counts as one failed attempt.
  void Phase(Task<void> (*proc)(Cell*, int)) {
    returned = 0;
    (void)RunProcs(sched, procs, [c = this, proc](int i) { return proc(c, i); });
    for (int i = returned; i < procs; i++) {
      (void)Account(Status::TimedOut("proc never returned"), true, 0, 0);
    }
  }
};

Task<void> SetupProc(Cell* c, int i) {
  Status st = co_await c->w->Setup(i);
  c->ready[i] = c->Account(st, false, 0, 0);
  c->returned++;
}

Task<void> MeasuredProc(Cell* c, int i) {
  for (int k = 0; c->ready[i] && k < c->ops_per_proc; k++) {
    const SimTime start = c->sched->Now();
    Result<uint64_t> r = co_await c->w->Op(i, k);
    (void)c->Account(r.status(), true, start, r.ok() ? *r : 0);
  }
  c->returned++;
}

BenchResult RunClosedLoop(sim::Scheduler* sched, int procs, int ops_per_proc, Workload* w) {
  Cell c{sched, w, procs, ops_per_proc, std::vector<char>(procs, 0)};
  c.Phase(SetupProc);
  const SimTime t0 = sched->Now();
  c.Phase(MeasuredProc);
  c.res.elapsed = sched->Now() - t0;
  return c.res;
}

}  // namespace

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

/// A tree of non-leaf directories: (parent, name) and id of each, in
/// creation order (parents before children).
struct Tree {
  std::vector<std::pair<uint64_t, std::string>> dirs;
  std::vector<uint64_t> ids;
};

Task<Status> BuildTree(MetaOps* ops, uint64_t root, int depth, int branch,
                       const std::string& tag, Tree* out) {
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
      if (out) {
        out->dirs.emplace_back(f.dir, name);
        out->ids.push_back(*d);
      }
      stack.push_back({*d, f.depth + 1});
    }
  }
  co_return Status::OK();
}

/// mdtest's removal walks the tree via readdir before unlinking: leaves
/// first, scanning each directory to discover its entries. The tree comes
/// in by value: the frame owns what it iterates across suspensions (A1).
Task<Status> RemoveTree(MetaOps* ops, Tree tree) {
  for (auto it = tree.ids.rbegin(); it != tree.ids.rend(); ++it) {
    CFS_CO_RETURN_IF_ERROR((co_await ops->StatDir(*it)).status());
  }
  for (auto it = tree.dirs.rbegin(); it != tree.dirs.rend(); ++it) {
    CFS_CO_RETURN_IF_ERROR(co_await ops->Rmdir(it->first, it->second));
  }
  co_return Status::OK();
}

class Mdtest final : public Workload {
 public:
  Mdtest(MdTest test, const std::vector<MetaOps*>& procs, const MdtestParams& params)
      : test_(test), procs_(procs), p_(params), dirs_(procs.size(), 0), trees_(procs.size()) {}

  /// mdtest builds a directory tree once per proc, so an "op" of the tree
  /// tests is one full tree (which is why the paper's numbers are ~10 IOPS).
  int OpsPerProc() const {
    switch (test_) {
      case MdTest::kDirStat: return p_.stat_repetitions;
      case MdTest::kTreeCreation:
      case MdTest::kTreeRemoval: return 1;
      default: return p_.items_per_proc;
    }
  }

  Task<Status> Setup(int i) override {
    MetaOps* ops = procs_[i];
    const std::string tag = Tag(i);
    auto dir = co_await ops->Mkdir(ops->Root(), tag);
    if (!dir.ok()) co_return dir.status();
    dirs_[i] = *dir;
    switch (test_) {
      case MdTest::kDirStat:
        for (int k = 0; k < p_.stat_dir_files; k++) {
          CFS_CO_RETURN_IF_ERROR((co_await ops->Create(*dir, Item(tag, "-s", k))).status());
        }
        break;
      case MdTest::kDirRemoval:
        for (int k = 0; k < p_.items_per_proc; k++) {
          CFS_CO_RETURN_IF_ERROR((co_await ops->Mkdir(*dir, Item(tag, "-d", k))).status());
        }
        break;
      case MdTest::kFileRemoval:
        for (int k = 0; k < p_.items_per_proc; k++) {
          CFS_CO_RETURN_IF_ERROR((co_await ops->Create(*dir, Item(tag, "-f", k))).status());
        }
        break;
      case MdTest::kTreeRemoval:
        co_return co_await BuildTree(ops, *dir, p_.tree_depth, p_.tree_branch, tag,
                                     &trees_[i]);
      default:
        break;
    }
    co_return Status::OK();
  }

  Task<Result<uint64_t>> Op(int i, int k) override {
    MetaOps* ops = procs_[i];
    const std::string tag = Tag(i);
    const uint64_t parent = dirs_[i];
    switch (test_) {
      case MdTest::kDirCreation:
        co_return OneUnit((co_await ops->Mkdir(parent, Item(tag, "-d", k))).status());
      case MdTest::kFileCreation:
        co_return OneUnit((co_await ops->Create(parent, Item(tag, "-f", k))).status());
      case MdTest::kDirStat: {
        // mdtest counts one op per stat'ed entry; the -N rank shift makes
        // process i stat another process's directory. The latency sample is
        // per scan (one readdirplus round), not per entry.
        const int n = static_cast<int>(procs_.size());
        auto r = co_await ops->StatDir(dirs_[(i + p_.stat_shift) % n]);
        if (!r.ok()) co_return r.status();
        co_return uint64_t{*r};
      }
      case MdTest::kDirRemoval:
        co_return OneUnit(co_await ops->Rmdir(parent, Item(tag, "-d", k)));
      case MdTest::kFileRemoval:
        co_return OneUnit(co_await ops->Remove(parent, Item(tag, "-f", k)));
      case MdTest::kTreeCreation:
        co_return OneUnit(co_await BuildTree(ops, parent, p_.tree_depth, p_.tree_branch, tag,
                                             nullptr));
      case MdTest::kTreeRemoval:
        co_return OneUnit(co_await RemoveTree(ops, std::move(trees_[i])));
    }
    co_return Status::InvalidArgument("unknown mdtest");
  }

 private:
  std::string Tag(int i) const { return p_.phase_tag + "p" + std::to_string(i); }
  static std::string Item(const std::string& tag, const char* kind, int k) {
    return tag + kind + std::to_string(k);
  }

  const MdTest test_;
  const std::vector<MetaOps*>& procs_;
  const MdtestParams& p_;
  std::vector<uint64_t> dirs_;  // per-proc working directory
  std::vector<Tree> trees_;     // TreeRemoval: per-proc tree
};

}  // namespace

BenchResult RunMdtest(sim::Scheduler* sched, MdTest test,
                      const std::vector<MetaOps*>& procs, const MdtestParams& params) {
  Mdtest w(test, procs, params);
  return RunClosedLoop(sched, static_cast<int>(procs.size()), w.OpsPerProc(), &w);
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

namespace {

class Fio final : public Workload {
 public:
  Fio(FioPattern pattern, const std::vector<DataOps*>& procs, const FioParams& params)
      : pattern_(pattern), procs_(procs), p_(params), files_(procs.size(), 0) {
    for (size_t i = 0; i < procs.size(); i++) rngs_.emplace_back(0xf10f10 + i);
  }

  Task<Status> Setup(int i) override {
    auto f = co_await procs_[i]->PrepareFile(p_.file_bytes, static_cast<uint64_t>(i));
    if (!f.ok()) co_return f.status();
    files_[i] = *f;
    co_return Status::OK();
  }

  Task<Result<uint64_t>> Op(int i, int k) override {
    DataOps* ops = procs_[i];
    const uint64_t file = files_[i];
    const uint64_t seq_pos = static_cast<uint64_t>(k) * p_.seq_block;
    switch (pattern_) {
      case FioPattern::kSeqWrite:
        // Appends at EOF: overwrite=false (primary-backup path).
        co_return OneUnit(
            co_await ops->Write(file, p_.file_bytes + seq_pos, p_.seq_block, false));
      case FioPattern::kSeqRead:
        co_return OneUnit(co_await ops->Read(file, seq_pos % (p_.file_bytes - p_.seq_block),
                                             p_.seq_block));
      case FioPattern::kRandWrite: {
        const uint64_t off = rngs_[i].Uniform(p_.file_bytes - p_.rand_block);
        co_return OneUnit(co_await ops->Write(file, off, p_.rand_block, true));
      }
      case FioPattern::kRandRead: {
        const uint64_t off = rngs_[i].Uniform(p_.file_bytes - p_.rand_block);
        co_return OneUnit(co_await ops->Read(file, off, p_.rand_block));
      }
    }
    co_return Status::InvalidArgument("unknown fio pattern");
  }

 private:
  const FioPattern pattern_;
  const std::vector<DataOps*>& procs_;
  const FioParams& p_;
  std::vector<uint64_t> files_;
  std::vector<Rng> rngs_;  // Rng(0xf10f10 + i): proc i's offset draws
};

}  // namespace

BenchResult RunFio(sim::Scheduler* sched, FioPattern pattern,
                   const std::vector<DataOps*>& procs, const FioParams& params) {
  Fio w(pattern, procs, params);
  return RunClosedLoop(sched, static_cast<int>(procs.size()), params.ops_per_proc, &w);
}

// --- Small files (Fig. 10) -----------------------------------------------------------

namespace {

class SmallFiles final : public Workload {
 public:
  SmallFiles(SmallFileTest test, uint64_t file_size, const std::vector<MetaOps*>& meta,
             const std::vector<DataOps*>& data, int files_per_proc)
      : test_(test),
        size_(file_size),
        meta_(meta),
        data_(data),
        count_(files_per_proc),
        dirs_(meta.size(), 0),
        files_(meta.size()) {}

  /// Per-proc dir; for read/removal also lay the files down.
  Task<Status> Setup(int i) override {
    MetaOps* m = meta_[i];
    const std::string tag = Tag(i);
    auto dir = co_await m->Mkdir(m->Root(), tag);
    if (!dir.ok()) co_return dir.status();
    dirs_[i] = *dir;
    if (test_ == SmallFileTest::kWrite) co_return Status::OK();
    for (int k = 0; k < count_; k++) {
      auto f = co_await CreateAndWrite(i, tag + "-" + std::to_string(k));
      if (!f.ok()) co_return f.status();
      files_[i].push_back(*f);
    }
    co_return Status::OK();
  }

  Task<Result<uint64_t>> Op(int i, int k) override {
    switch (test_) {
      case SmallFileTest::kWrite:
        // One "op" is create + write (the paper's small-file write is a
        // whole-file laydown), so the sample spans both.
        co_return OneUnit((co_await CreateAndWrite(i, Tag(i) + "-w" + std::to_string(k)))
                              .status());
      case SmallFileTest::kRead:
        co_return OneUnit(co_await data_[i]->Read(files_[i][k], 0, size_));
      case SmallFileTest::kRemoval:
        co_return OneUnit(co_await meta_[i]->Remove(dirs_[i], Tag(i) + "-" + std::to_string(k)));
    }
    co_return Status::InvalidArgument("unknown small-file test");
  }

 private:
  static std::string Tag(int i) { return "sf" + std::to_string(i); }

  Task<Result<uint64_t>> CreateAndWrite(int i, std::string name) {
    const uint64_t parent = dirs_[i];
    auto f = co_await meta_[i]->Create(parent, std::move(name));
    if (!f.ok()) co_return f.status();
    data_[i]->BindParent(*f, parent);
    CFS_CO_RETURN_IF_ERROR(co_await data_[i]->Write(*f, 0, size_, false));
    co_return *f;
  }

  const SmallFileTest test_;
  const uint64_t size_;
  const std::vector<MetaOps*>& meta_;
  const std::vector<DataOps*>& data_;
  const int count_;
  std::vector<uint64_t> dirs_;                // per-proc directory
  std::vector<std::vector<uint64_t>> files_;  // per-proc laid-down files (read)
};

}  // namespace

BenchResult RunSmallFiles(sim::Scheduler* sched, SmallFileTest test, uint64_t file_size,
                          const std::vector<MetaOps*>& meta,
                          const std::vector<DataOps*>& data, int files_per_proc) {
  SmallFiles w(test, file_size, meta, data, files_per_proc);
  return RunClosedLoop(sched, static_cast<int>(meta.size()), files_per_proc, &w);
}

}  // namespace cfs::bench
