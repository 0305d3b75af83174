// Discrete-event scheduler: the heart of the simulation substrate.
//
// All cluster components (raft groups, meta/data nodes, clients) run as
// C++20 coroutines scheduled on a single virtual-time event loop. Events at
// the same timestamp execute in scheduling order, so runs are fully
// deterministic given a seed. The queue itself is a hierarchical timer
// wheel over pooled event nodes (sim/timer_wheel.h; DESIGN.md "Simulator
// performance") — O(1) insert/pop and allocation-free steady state, with
// dispatch order identical to the (time, seq) heap it replaced.
//
// The determinism contract is audited, not assumed: the scheduler folds
// every executed event into a running FNV-1a trace hash, and the network
// folds in every message (sender, receiver, size, payload type, delivery
// time). Two runs of the same scenario with the same seed must produce
// identical trace hashes; see DESIGN.md "Determinism contract" and
// tests/determinism_test.cc. Hashes are comparable within one process only
// (type names feed the digest via pointers into process-local RTTI).
#pragma once

#include <cstdint>

#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"
#include "obs/trace.h"
#include "sim/timer_wheel.h"

namespace cfs::sim {

/// Incremental FNV-1a over 64-bit words and byte strings; the determinism
/// auditor's digest.
class TraceHasher {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; i++) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= kPrime;
    }
  }
  void MixBytes(const char* data, size_t n) {
    for (size_t i = 0; i < n; i++) {
      hash_ ^= static_cast<unsigned char>(data[i]);
      hash_ *= kPrime;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  static constexpr uint64_t kOffset = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t hash_ = kOffset;
};

class Scheduler {
 public:
  using TimerId = TimerWheel::TimerId;

  explicit Scheduler(uint64_t seed = 1) : rng_(seed), tracer_(seed, &now_) {
    // Log lines carry virtual timestamps while this scheduler is the active
    // one (see common/logging.h — keeps same-seed log diffs clean).
    internal::PushSimClock(&now_);
  }
  ~Scheduler() { internal::PopSimClock(&now_); }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time in microseconds.
  SimTime Now() const { return now_; }

  /// Schedule `fn` to run at absolute virtual time `t` (clamped to Now()).
  /// Accepts any callable (EventFn is a drop-in for std::function<void()>
  /// with small-buffer storage inside the pooled event node).
  void At(SimTime t, EventFn fn) {
    if (t < now_) t = now_;
    (void)wheel_.Insert(t, seq_++, std::move(fn));
  }

  /// Schedule `fn` to run `d` microseconds from now.
  void After(SimDuration d, EventFn fn) { At(now_ + d, std::move(fn)); }

  /// Cancellable variants: same scheduling semantics as At/After (a seq
  /// number is consumed either way), but the returned TimerId can revoke the
  /// event before it fires. Cancel is O(1) and frees the event's node and
  /// captures at once. A cancelled event never executes, so it is neither
  /// folded into the trace hash nor counted as executed: cancelling an event
  /// a path used to let fire as a no-op changes the schedule hash (same seed
  /// still means same run), and the golden hashes must be re-captured when
  /// that happens.
  TimerId ScheduleAt(SimTime t, EventFn fn) {
    if (t < now_) t = now_;
    return wheel_.Insert(t, seq_++, std::move(fn));
  }
  TimerId ScheduleAfter(SimDuration d, EventFn fn) { return ScheduleAt(now_ + d, std::move(fn)); }

  /// Cancel a pending event scheduled via ScheduleAt/ScheduleAfter. Returns
  /// false if it already ran or was already cancelled.
  bool Cancel(TimerId id) { return wheel_.Cancel(id); }

  /// Run a single event. Returns false if nothing is pending.
  bool RunOne() {
    EventNode* n = wheel_.PopRunnable(TimerWheel::kNoLimit);
    if (n == nullptr) return false;
    Dispatch(n);
    return true;
  }

  /// Process-wide count of executed events across every Scheduler instance
  /// (single-threaded process; benches report events/sec wall-clock from it).
  static uint64_t process_executed_events() { return g_process_executed_events; }

  /// Run until the queue is empty.
  void Run() {
    while (RunOne()) {
    }
  }

  /// Run all events with time <= t, then set Now() to t. Events scheduled
  /// after t remain queued (periodic timers keep the queue non-empty).
  void RunUntil(SimTime t) {
    while (EventNode* n = wheel_.PopRunnable(t)) Dispatch(n);
    if (now_ < t) now_ = t;
  }

  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  bool empty() const { return wheel_.empty(); }
  size_t pending() const { return wheel_.live(); }

  /// The simulation-wide RNG: every stochastic decision draws from it.
  Rng& rng() { return rng_; }

  /// Determinism auditor digest: folds every executed event (time, seq) plus
  /// whatever components Mix in (the network adds per-message digests). Two
  /// same-seed runs of one scenario must end with equal hashes.
  TraceHasher& trace() { return trace_; }
  uint64_t trace_hash() const { return trace_.hash(); }

  /// Distributed-tracing span collector (obs/trace.h). Disabled by default;
  /// enabling it must not perturb the schedule (the tracer owns a private
  /// Rng and never schedules events) — the determinism tests audit that.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  /// Execute one popped event: advance the clock, fold (time, seq) into the
  /// determinism digest, invoke, recycle the node into the slab.
  void Dispatch(EventNode* n) {
    now_ = n->time;
    trace_.Mix(n->time);
    trace_.Mix(static_cast<uint64_t>(n->seq));
    g_process_executed_events++;
    n->fn();
    wheel_.Recycle(n);
  }

  static inline uint64_t g_process_executed_events = 0;

  SimTime now_ = 0;
  uint64_t seq_ = 0;
  TimerWheel wheel_;
  Rng rng_;
  TraceHasher trace_;
  obs::Tracer tracer_;
};

}  // namespace cfs::sim
