// Deterministic QoS primitives for multi-tenant admission (ROADMAP item 3):
//
//   TokenBucket    — virtual-time GCRA rate limiter charged at each mount
//                    (per-tenant IOPS and byte ceilings). Reserve() computes
//                    the delay an op must wait before it conforms; the caller
//                    sleeps that long on the sim clock. O(1) state, zero RNG,
//                    zero scheduler events when unconfigured (rate 0).
//
//   AdmissionQueue — weighted-fair queueing in front of meta/data handler
//                    dispatch. Each tenant gets a FIFO of waiters tagged with
//                    a virtual finish time (cost scaled by 1/weight); the
//                    queue admits the smallest tag first, so long-run service
//                    shares converge to the weight ratio while requests of
//                    one tenant never reorder among themselves. Disabled
//                    (slots 0) it admits synchronously with no suspension and
//                    no events — the default, keeping pinned bench schedules
//                    byte-identical.
//
// Everything runs on the single-threaded sim scheduler: ordered containers
// only, waiters resume via Scheduler::After(0, ...) like sim::Semaphore, and
// all time is virtual, so same-seed runs stay byte-identical (the QoS knobs
// themselves are part of the seed/config, not of wall-clock state).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/units.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"

namespace cfs::qos {

using TenantId = uint64_t;

/// Generic cell rate algorithm on the virtual clock. `rate` is units/sec
/// (ops or bytes), `burst` is the instantaneous credit. Rate 0 = unlimited.
class TokenBucket {
 public:
  void Configure(uint64_t rate_per_sec, uint64_t burst) {
    rate_ = rate_per_sec;
    burst_ = burst > 0 ? burst : 1;
    tat_ = 0;
  }

  bool enabled() const { return rate_ > 0; }
  uint64_t rate() const { return rate_; }

  /// Charge `n` units at virtual time `now`; returns how long the caller
  /// must sleep before the charge conforms (0 = admit immediately). The
  /// reservation is committed either way — GCRA's theoretical arrival time
  /// advances by n/rate per call, capped in the past by the burst tolerance.
  SimDuration Reserve(uint64_t n, SimTime now) {
    if (rate_ == 0 || n == 0) return 0;
    const SimDuration need = static_cast<SimDuration>(n * kSec / rate_);
    const SimDuration tol = static_cast<SimDuration>(burst_ * kSec / rate_);
    const SimTime eligible = tat_ > tol ? tat_ - tol : 0;
    const SimTime grant = eligible > now ? eligible : now;
    tat_ = (tat_ > now ? tat_ : now) + need;
    return grant - now;
  }

 private:
  uint64_t rate_ = 0;   // units per virtual second; 0 = unlimited
  uint64_t burst_ = 1;  // instantaneous credit, same units as rate
  SimTime tat_ = 0;     // GCRA theoretical arrival time
};

/// Weighted-fair admission gate for request handlers. Usage:
///
///   auto guard = co_await admission_.Enter(req.tenant, cost);
///   ... handle the request; slot releases when guard dies ...
///
/// Configure(slots) bounds concurrent in-service requests; SetWeight gives a
/// tenant more than the default unit share. With slots == 0 (default) Enter
/// admits without suspending and the returned guard is inert.
class AdmissionQueue {
 public:
  /// Counters go to `metrics` as "<prefix>.tenant.<id>.{admitted,queued,
  /// wait_usec}" plus the gauge "<prefix>.max_depth", which is always
  /// present (a disabled queue reports depth 0, so bench metric lines keep a
  /// stable schema).
  AdmissionQueue(sim::Scheduler* sched, obs::Registry& metrics, std::string prefix)
      : sched_(sched),
        metrics_(metrics),
        prefix_(std::move(prefix)),
        max_depth_(metrics.Gauge(prefix_ + ".max_depth")) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  void Configure(uint64_t slots) { slots_ = slots; }
  void SetWeight(TenantId tenant, uint32_t weight) {
    weights_[tenant] = weight > 0 ? weight : 1;
  }

  bool enabled() const { return slots_ > 0; }
  uint64_t in_service() const { return in_service_; }
  size_t queued() const {
    size_t n = 0;
    for (const auto& [t, q] : queues_) n += q.size();
    return n;
  }

  /// Move-only slot holder; releases the admission slot (and dispatches the
  /// next waiter) on destruction. Inert when the queue is disabled.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(AdmissionQueue* q) : q_(q) {}
    Guard(Guard&& o) noexcept : q_(o.q_) { o.q_ = nullptr; }
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        q_ = o.q_;
        o.q_ = nullptr;
      }
      return *this;
    }
    ~Guard() { Release(); }
    void Release() {
      if (q_) {
        q_->Leave();
        q_ = nullptr;
      }
    }

   private:
    AdmissionQueue* q_ = nullptr;
  };

  /// Awaitable: admit immediately when a slot is free and nobody queues
  /// (no barging past waiters, mirroring sim::Semaphore), else enqueue under
  /// the tenant's WFQ tag. `cost` is in abstract service units (we use the
  /// handler's cpu cost) and scales the virtual finish tag by 1/weight.
  auto Enter(TenantId tenant, uint64_t cost) {
    struct Awaiter {
      AdmissionQueue* q;
      TenantId tenant;
      uint64_t cost;
      bool await_ready() noexcept {
        if (!q->enabled()) return true;
        if (q->in_service_ < q->slots_ && q->QueuesEmpty()) {
          q->Admit(tenant, /*waited=*/0);
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        q->Enqueue(tenant, cost, h);
      }
      Guard await_resume() noexcept {
        return q->enabled() ? Guard(q) : Guard();
      }
    };
    return Awaiter{this, tenant, cost};
  }

 private:
  friend class Guard;

  struct Waiter {
    std::coroutine_handle<> h;
    uint64_t vfinish = 0;
    SimTime enq_time = 0;
  };

  /// One tenant's counters in the registry, resolved on its first request.
  struct TenantCounters {
    uint64_t& admitted;   // requests granted a slot
    uint64_t& queued;     // requests that had to wait
    uint64_t& wait_usec;  // virtual time spent queued
  };

  TenantCounters& CountersOf(TenantId tenant) {
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      const std::string base = prefix_ + ".tenant." + std::to_string(tenant) + ".";
      it = tenants_
               .emplace(tenant, TenantCounters{metrics_.Counter(base + "admitted"),
                                               metrics_.Counter(base + "queued"),
                                               metrics_.Counter(base + "wait_usec")})
               .first;
    }
    return it->second;
  }

  bool QueuesEmpty() const {
    for (const auto& [t, q] : queues_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  uint32_t WeightOf(TenantId tenant) const {
    auto it = weights_.find(tenant);
    return it == weights_.end() ? 1 : it->second;
  }

  void Admit(TenantId tenant, SimDuration waited) {
    in_service_++;
    TenantCounters& s = CountersOf(tenant);
    s.admitted++;
    if (waited > 0) s.wait_usec += static_cast<uint64_t>(waited);
  }

  void Enqueue(TenantId tenant, uint64_t cost, std::coroutine_handle<> h) {
    // WFQ start tag: never earlier than the queue's virtual time, never
    // earlier than the tenant's previous finish (per-tenant FIFO order).
    uint64_t& last = last_finish_[tenant];
    const uint64_t start = last > vtime_ ? last : vtime_;
    const uint64_t vfinish = start + (cost > 0 ? cost : 1) * kVScale / WeightOf(tenant);
    last = vfinish;
    queues_[tenant].push_back(Waiter{h, vfinish, sched_->Now()});
    CountersOf(tenant).queued++;
    max_depth_ = std::max(max_depth_, static_cast<int64_t>(queued()));
  }

  void Leave() {
    in_service_--;
    Dispatch();
  }

  void Dispatch() {
    while (in_service_ < slots_) {
      // Smallest virtual finish tag wins; ties resolve to the smallest
      // tenant id because the map iterates in id order and the comparison
      // is strict.
      auto best = queues_.end();
      for (auto it = queues_.begin(); it != queues_.end(); ++it) {
        if (it->second.empty()) continue;
        if (best == queues_.end() ||
            it->second.front().vfinish < best->second.front().vfinish) {
          best = it;
        }
      }
      if (best == queues_.end()) return;
      Waiter w = best->second.front();
      best->second.pop_front();
      if (w.vfinish > vtime_) vtime_ = w.vfinish;
      Admit(best->first, sched_->Now() - w.enq_time);
      sched_->After(0, [h = w.h] { h.resume(); });
    }
  }

  static constexpr uint64_t kVScale = 1024;  // tag resolution per unit cost

  sim::Scheduler* sched_;
  obs::Registry& metrics_;
  const std::string prefix_;
  int64_t& max_depth_;  // deepest the queues got
  uint64_t slots_ = 0;  // 0 = disabled (admit everything synchronously)
  uint64_t in_service_ = 0;
  uint64_t vtime_ = 0;  // WFQ virtual clock, advances to each dispatched tag
  std::map<TenantId, uint32_t> weights_;
  std::map<TenantId, std::deque<Waiter>> queues_;
  std::map<TenantId, uint64_t> last_finish_;
  std::map<TenantId, TenantCounters> tenants_;
};

}  // namespace cfs::qos
