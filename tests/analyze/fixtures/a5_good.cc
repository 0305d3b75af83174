// A5 negative fixtures: heavy requests built as named locals, braced
// temporaries of requests with only trivially destructible members, and a
// heavy temporary in a statement that does not suspend.
#include <string>
#include <utility>
#include <vector>

#include "meta/messages.h"
#include "sim/task.h"

class Mount {
 public:
  template <typename Req, typename Resp>
  sim::Task<cfs::Result<Resp>> MetaCall(uint64_t pid, Req req);

  sim::Task<void> EvictNamed(uint64_t pid, std::vector<uint64_t> inos) {
    cfs::meta::MetaEvictInodeReq req{pid, inos};
    auto r = co_await MetaCall<cfs::meta::MetaEvictInodeReq, cfs::meta::MetaEvictInodeResp>(
        pid, std::move(req));
    Use(r.ok());
  }

  sim::Task<void> UnlinkInline(uint64_t pid, uint64_t ino) {
    auto r = co_await MetaCall<cfs::meta::MetaUnlinkInodeReq, cfs::meta::MetaUnlinkInodeResp>(
        pid, cfs::meta::MetaUnlinkInodeReq{pid, ino});
    Use(r.ok());
  }

  sim::Task<void> HeavyOutsideTheAwait(uint64_t pid, std::vector<uint64_t> inos) {
    if (co_await Tick()) {
      Use(Send(cfs::meta::MetaEvictInodeReq{pid, inos}));
    }
    Use(Send(cfs::meta::MetaEvictInodeReq{pid, inos}));
    co_await Tick();
  }

 private:
  sim::Task<bool> Tick();
  bool Send(cfs::meta::MetaEvictInodeReq req);
  void Use(bool v);
};
