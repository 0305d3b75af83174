// Analytic queueing resources for the simulator.
//
// Resource models a FIFO station with `servers` parallel servers (a CPU with
// N cores, a disk with queue depth Q, a NIC with 1 "server"). A reservation
// made at time `now` for `service` microseconds starts when the earliest
// server frees up and occupies it for `service`; the caller sleeps until the
// finish time. Queueing delay under load emerges naturally, which is what
// produces the concurrency/saturation shapes in the paper's figures.
#pragma once

#include <algorithm>
#include <queue>
#include <vector>

#include "common/units.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace cfs::sim {

class Resource {
 public:
  Resource(Scheduler* sched, int servers) : sched_(sched) { free_at_.assign(servers, 0); }

  /// Reserve one server for `service` usec; returns the finish time.
  SimTime Reserve(SimDuration service) {
    auto it = std::min_element(free_at_.begin(), free_at_.end());
    SimTime start = std::max(*it, sched_->Now());
    SimTime end = start + service;
    *it = end;
    busy_usec_ += service;
    ops_++;
    return end;
  }

  /// Reserve now; awaiting the result suspends until the work completes.
  /// Returns the sleep itself rather than a coroutine, so a charge costs no
  /// frame: `co_await cpu.Use(d);`.
  SleepFor Use(SimDuration service) {
    SimTime end = Reserve(service);
    return SleepFor{*sched_, end - sched_->Now()};
  }

  /// Current backlog of the least-loaded server, in usec.
  SimDuration QueueDelay() const {
    SimTime earliest = *std::min_element(free_at_.begin(), free_at_.end());
    return std::max<SimDuration>(0, earliest - sched_->Now());
  }

  int servers() const { return static_cast<int>(free_at_.size()); }
  uint64_t ops() const { return ops_; }
  SimDuration busy_usec() const { return busy_usec_; }

  /// Forget all backlog (used when a node restarts).
  void Reset() { std::fill(free_at_.begin(), free_at_.end(), 0); }

 private:
  Scheduler* sched_;
  std::vector<SimTime> free_at_;
  SimDuration busy_usec_ = 0;
  uint64_t ops_ = 0;
};

}  // namespace cfs::sim
