// A5 fixtures: a braced request temporary whose struct owns a string,
// vector, Buffer or map (here through meta/messages.h), written inside a
// co_await full-expression.
#include <string>
#include <vector>

#include "meta/messages.h"
#include "sim/task.h"

class Mount {
 public:
  template <typename Req, typename Resp>
  sim::Task<cfs::Result<Resp>> MetaCall(uint64_t pid, Req req);

  sim::Task<void> EvictInline(uint64_t pid, std::vector<uint64_t> inos) {
    auto r = co_await MetaCall<cfs::meta::MetaEvictInodeReq, cfs::meta::MetaEvictInodeResp>(
        pid, cfs::meta::MetaEvictInodeReq{pid, inos});  // analyze-expect(A5)
    Use(r.ok());
  }

  sim::Task<void> LookupInCondition(uint64_t pid, std::string name) {
    if ((co_await MetaCall<cfs::meta::MetaLookupReq, cfs::meta::MetaLookupResp>(
             pid, cfs::meta::MetaLookupReq{pid, 1, name})).ok()) {  // analyze-expect(A5)
      Use(true);
    }
  }

  // The temporary comes first in the argument list, before the await.
  sim::Task<void> TemporaryBeforeAwait(uint64_t pid, std::vector<uint64_t> inos) {
    Use(Send(cfs::meta::MetaEvictInodeReq{pid, inos}, co_await Tick()));  // analyze-expect(A5)
  }

 private:
  sim::Task<bool> Tick();
  bool Send(cfs::meta::MetaEvictInodeReq req, bool flag);
  void Use(bool v);
};
