// Deadline: an absolute virtual-time bound that propagates through nested
// RPC workflows. A client-level deadline set at the top of an operation
// bounds every leg underneath it — each retry loop clamps its per-leg RPC
// timeout to the time remaining, and bails out (instead of burning the rest
// of its attempt budget) once the deadline has passed. Legs that were
// already in flight when the deadline expired still run to their (clamped)
// timeout; the overshoot is therefore at most one leg.
//
// A default-constructed Deadline is unbounded and costs nothing to pass
// around, so plumbing a Deadline parameter through call chains is free for
// callers that do not set one.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/units.h"
#include "sim/scheduler.h"

namespace cfs::rpc {

class Deadline {
 public:
  /// Unbounded (the default): never expires, never clamps.
  Deadline() = default;

  static Deadline None() { return Deadline(); }
  static Deadline At(SimTime t) { return Deadline(t); }
  static Deadline In(const sim::Scheduler& sched, SimDuration d) {
    return Deadline(sched.Now() + d);
  }

  bool unbounded() const { return at_ == kUnbounded; }
  SimTime at() const { return at_; }

  bool Expired(SimTime now) const { return !unbounded() && now >= at_; }

  SimDuration Remaining(SimTime now) const {
    if (unbounded()) return kUnbounded - now;
    return at_ > now ? at_ - now : 0;
  }

  /// Per-leg timeout for an RPC issued now: the policy's leg timeout, capped
  /// by the time remaining (never below 1us so an in-flight leg still gets a
  /// well-formed timer).
  SimDuration ClampTimeout(SimTime now, SimDuration leg_timeout) const {
    if (unbounded()) return leg_timeout;
    return std::max<SimDuration>(1, std::min(leg_timeout, Remaining(now)));
  }

 private:
  static constexpr SimTime kUnbounded = INT64_MAX;
  explicit Deadline(SimTime at) : at_(at) {}
  SimTime at_ = kUnbounded;
};

}  // namespace cfs::rpc
