// Property test: random operation sequences against the full CFS stack
// (VFS -> client -> meta/data subsystems -> raft -> extent stores) checked
// against a trivial in-memory reference model of a file system with CFS's
// relaxed-but-sequential semantics. One client (single history), hundreds of
// random ops per seed.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "harness/cluster.h"
#include "vfs/vfs.h"

namespace cfs::vfs {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::RunTask;

/// In-memory reference model.
struct Model {
  struct Node {
    bool is_dir = false;
    std::string data;
    std::set<std::string> children;  // names, for dirs
  };
  std::map<std::string, Node> nodes;  // absolute path -> node

  Model() { nodes["/"] = Node{true, "", {}}; }

  static std::string ParentOf(const std::string& path) {
    size_t slash = path.rfind('/');
    return slash == 0 ? "/" : path.substr(0, slash);
  }
  static std::string NameOf(const std::string& path) {
    return path.substr(path.rfind('/') + 1);
  }

  bool Exists(const std::string& p) const { return nodes.count(p) > 0; }
  bool IsDir(const std::string& p) const {
    auto it = nodes.find(p);
    return it != nodes.end() && it->second.is_dir;
  }

  bool Mkdir(const std::string& p) {
    if (Exists(p) || !IsDir(ParentOf(p))) return false;
    nodes[p] = Node{true, "", {}};
    nodes[ParentOf(p)].children.insert(NameOf(p));
    return true;
  }
  bool CreateFile(const std::string& p) {
    if (Exists(p) || !IsDir(ParentOf(p))) return false;
    nodes[p] = Node{false, "", {}};
    nodes[ParentOf(p)].children.insert(NameOf(p));
    return true;
  }
  bool WriteAt(const std::string& p, uint64_t offset, const std::string& data) {
    auto it = nodes.find(p);
    if (it == nodes.end() || it->second.is_dir) return false;
    if (offset > it->second.data.size()) return false;  // no holes in CFS
    if (it->second.data.size() < offset + data.size()) {
      it->second.data.resize(offset + data.size());
    }
    it->second.data.replace(offset, data.size(), data);
    return true;
  }
  bool Unlink(const std::string& p) {
    auto it = nodes.find(p);
    if (it == nodes.end() || it->second.is_dir) return false;
    nodes[ParentOf(p)].children.erase(NameOf(p));
    nodes.erase(it);
    return true;
  }
  bool RmdirEmpty(const std::string& p) {
    auto it = nodes.find(p);
    if (p == "/" || it == nodes.end() || !it->second.is_dir || !it->second.children.empty()) {
      return false;
    }
    nodes[ParentOf(p)].children.erase(NameOf(p));
    nodes.erase(it);
    return true;
  }
};

class VfsModelTest : public ::testing::TestWithParam<int> {};

TEST_P(VfsModelTest, RandomOpsMatchReferenceModel) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = static_cast<uint64_t>(GetParam());
  Cluster cluster(opts);
  ASSERT_TRUE(RunTask(cluster.sched(), cluster.Start())->ok());
  ASSERT_TRUE(RunTask(cluster.sched(), cluster.CreateVolume("v", 3, 6))->ok());
  auto mounted = RunTask(cluster.sched(), cluster.MountClient("v"));
  ASSERT_TRUE(mounted->ok());
  FileSystem fs((**mounted)->default_mount());
  auto run = [&](auto task) { return *RunTask(cluster.sched(), std::move(task)); };

  Model model;
  Rng rng(1000 + GetParam());

  // A small path universe keeps collision probability high.
  std::vector<std::string> dirs = {"/", "/a", "/b", "/a/c"};
  std::vector<std::string> names = {"x", "y", "z"};
  auto random_dir = [&] { return dirs[rng.Uniform(dirs.size())]; };
  auto random_path = [&] {
    std::string d = random_dir();
    return (d == "/" ? "" : d) + "/" + names[rng.Uniform(names.size())];
  };

  int checked_ops = 0;
  for (int step = 0; step < 220; step++) {
    switch (rng.Uniform(7)) {
      case 0: {  // mkdir
        std::string p = random_path();
        bool model_ok = model.Mkdir(p);
        Status st = run(fs.Mkdir(p));
        ASSERT_EQ(st.ok(), model_ok) << "mkdir " << p << " step " << step << ": "
                                     << st.ToString();
        if (model_ok) dirs.push_back(p);
        checked_ops++;
        break;
      }
      case 1: {  // create (exclusive)
        std::string p = random_path();
        bool model_ok = model.CreateFile(p);
        auto fd = run(fs.Open(p, kCreate | kExclusive | kWrite));
        ASSERT_EQ(fd.ok(), model_ok) << "create " << p << " step " << step;
        if (fd.ok()) {
          ASSERT_TRUE(run(fs.Close(*fd)).ok());
        }
        checked_ops++;
        break;
      }
      case 2: {  // write (append or in-place), sized 1-8 KiB
        std::string p = random_path();
        if (!model.Exists(p) || model.IsDir(p)) break;
        uint64_t fsize = model.nodes[p].data.size();
        uint64_t offset = fsize ? rng.Uniform(fsize + 1) : 0;
        std::string data(1 + rng.Uniform(8 * kKiB), static_cast<char>('a' + step % 26));
        bool model_ok = model.WriteAt(p, offset, data);
        auto fd = run(fs.Open(p, kWrite));
        ASSERT_TRUE(fd.ok());
        auto w = run(fs.Pwrite(*fd, offset, data));
        ASSERT_EQ(w.ok(), model_ok) << "write " << p << "@" << offset;
        ASSERT_TRUE(run(fs.Fsync(*fd)).ok());
        ASSERT_TRUE(run(fs.Close(*fd)).ok());
        checked_ops++;
        break;
      }
      case 3: {  // full read-back compare
        std::string p = random_path();
        if (!model.Exists(p) || model.IsDir(p)) break;
        const std::string& want = model.nodes[p].data;
        auto fd = run(fs.Open(p, kRead));
        ASSERT_TRUE(fd.ok()) << p;
        auto got = run(fs.Read(*fd, want.size() + 4096));
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, want) << "content mismatch on " << p << " step " << step;
        ASSERT_TRUE(run(fs.Close(*fd)).ok());
        checked_ops++;
        break;
      }
      case 4: {  // unlink
        std::string p = random_path();
        bool model_ok = model.Unlink(p);
        Status st = run(fs.Unlink(p));
        ASSERT_EQ(st.ok(), model_ok) << "unlink " << p << ": " << st.ToString();
        checked_ops++;
        break;
      }
      case 5: {  // rmdir
        std::string p = random_dir();
        if (p == "/") break;
        bool model_ok = model.RmdirEmpty(p);
        Status st = run(fs.Rmdir(p));
        ASSERT_EQ(st.ok(), model_ok) << "rmdir " << p << ": " << st.ToString();
        if (model_ok) {
          dirs.erase(std::remove(dirs.begin(), dirs.end(), p), dirs.end());
        }
        checked_ops++;
        break;
      }
      case 6: {  // listdir compare
        std::string p = random_dir();
        if (!model.Exists(p)) break;
        auto entries = run(fs.ListDir(p));
        ASSERT_TRUE(entries.ok()) << p;
        std::set<std::string> got;
        for (const auto& e : *entries) got.insert(e.name);
        ASSERT_EQ(got, model.nodes[p].children) << "listing mismatch on " << p;
        checked_ops++;
        break;
      }
    }
  }
  EXPECT_GT(checked_ops, 100);

  // Final sweep: every model file reads back exactly; every model dir lists
  // exactly; nothing extra exists.
  for (const auto& [path, node] : model.nodes) {
    if (path == "/") continue;
    if (node.is_dir) {
      auto entries = run(fs.ListDir(path));
      ASSERT_TRUE(entries.ok()) << path;
      ASSERT_EQ(entries->size(), node.children.size()) << path;
    } else {
      auto fd = run(fs.Open(path, kRead));
      ASSERT_TRUE(fd.ok()) << path;
      auto got = run(fs.Read(*fd, node.data.size() + 1));
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, node.data) << path;
      ASSERT_TRUE(run(fs.Close(*fd)).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsModelTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace cfs::vfs
