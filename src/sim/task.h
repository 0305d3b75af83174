// Coroutine primitives for the simulator: Task<T>, detached spawning,
// one-shot Future/Promise, and virtual-time sleep.
//
// Conventions:
//  * Task<T> is lazy: it starts when awaited (or when passed to Spawn).
//  * Everything is single-threaded; no synchronization anywhere.
//  * Components are never destroyed while their coroutines are in flight;
//    crashed nodes are marked down and their handlers bail out on epoch
//    checks (see sim::Host).
#pragma once

#include <cassert>
#include <coroutine>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "sim/frame_pool.h"
#include "sim/scheduler.h"

namespace cfs::sim {

template <typename T>
class Task;

namespace detail {

/// Every coroutine frame recycles through FramePool (sim/frame_pool.h).
template <typename T>
struct TaskPromiseBase {
  std::coroutine_handle<> continuation;

  static void* operator new(size_t n) { return FramePool::Alloc(n); }
  static void operator delete(void* p, size_t n) { FramePool::Free(p, n); }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { std::terminate(); }
};

}  // namespace detail

/// A lazily-started coroutine returning T. Move-only; owns the frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::TaskPromiseBase<T> {
    std::optional<T> value;
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool valid() const { return h_ != nullptr; }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() { return std::move(*h.promise().value); }
    };
    return Awaiter{h_};
  }

  std::coroutine_handle<promise_type> handle() const { return h_; }

 private:
  std::coroutine_handle<promise_type> h_ = nullptr;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::TaskPromiseBase<void> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool valid() const { return h_ != nullptr; }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {}
    };
    return Awaiter{h_};
  }

  std::coroutine_handle<promise_type> handle() const { return h_; }

 private:
  std::coroutine_handle<promise_type> h_ = nullptr;
};

namespace detail {

/// Self-destroying wrapper used by Spawn(): starts immediately, frees its
/// frame on completion.
struct Detached {
  struct promise_type {
    static void* operator new(size_t n) { return FramePool::Alloc(n); }
    static void operator delete(void* p, size_t n) { FramePool::Free(p, n); }
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

inline Detached RunDetached(Task<void> t) { co_await std::move(t); }

}  // namespace detail

/// Start `t` immediately as a fire-and-forget coroutine. The frame is
/// destroyed automatically when the task completes.
inline void Spawn(Task<void> t) { detail::RunDetached(std::move(t)); }

/// Awaitable that suspends the current coroutine for `d` virtual
/// microseconds: `co_await SleepFor(sched, d);`
struct SleepFor {
  Scheduler& sched;
  SimDuration d;
  bool await_ready() const noexcept { return d <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    sched.After(d, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

/// One-shot promise/future pair. Single waiter; Set() may race with a
/// timeout (whichever happens first resumes the waiter). Set() cancels a
/// pending timeout, so an answered wait leaves no event behind; a Set()
/// after the timeout fired stores the value and resumes nobody.
template <typename T>
class Future {
 public:
  struct State {
    Scheduler* sched;
    std::optional<T> value;
    std::coroutine_handle<> waiter;
    Scheduler::TimerId timeout;  // armed by WithTimeout, cancelled by Set
  };

  explicit Future(std::shared_ptr<State> st) : st_(std::move(st)) {}

  /// Await with a timeout; returns nullopt on timeout.
  auto WithTimeout(SimDuration timeout) {
    struct Awaiter {
      std::shared_ptr<State> st;
      SimDuration timeout;
      bool await_ready() const noexcept { return st->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        st->waiter = h;
        st->timeout = st->sched->ScheduleAfter(
            timeout, [st = st] { std::exchange(st->waiter, nullptr).resume(); });
      }
      std::optional<T> await_resume() { return std::move(st->value); }
    };
    return Awaiter{st_, timeout};
  }

  /// Await without a timeout (used by tests and internal barriers).
  auto operator co_await() {
    struct Awaiter {
      std::shared_ptr<State> st;
      bool await_ready() const noexcept { return st->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) { st->waiter = h; }
      T await_resume() { return std::move(*st->value); }
    };
    return Awaiter{st_};
  }

 private:
  std::shared_ptr<State> st_;
};

template <typename T>
class Promise {
 public:
  explicit Promise(Scheduler* sched)
      : st_(std::allocate_shared<typename Future<T>::State>(
            detail::FramePoolAllocator<typename Future<T>::State>())) {
    st_->sched = sched;
  }

  Future<T> future() const { return Future<T>(st_); }

  /// Deliver the value. The waiter (if any, and not already timed out) is
  /// resumed via the scheduler at the current timestamp to bound recursion.
  void Set(T v) const {
    if (st_->value.has_value()) return;  // idempotent
    st_->value = std::move(v);
    st_->sched->Cancel(st_->timeout);  // stale (no-op) once it fired
    if (st_->waiter) {
      st_->sched->After(0, [st = st_] { std::exchange(st->waiter, nullptr).resume(); });
    }
  }

  const std::shared_ptr<typename Future<T>::State>& state() const { return st_; }

 private:
  std::shared_ptr<typename Future<T>::State> st_;
};

/// Join helper: spawn `n` subtasks and await all. Usage:
///   Join j(&sched, n); for (...) Spawn(Work(..., j.Arrive())); co_await j.Wait();
class Join {
 public:
  Join(Scheduler* sched, int n) : sched_(sched), remaining_(std::make_shared<int>(n)), promise_(sched) {
    if (n == 0) promise_.Set(true);
  }

  /// Returns a completion callback to invoke exactly once per subtask.
  std::function<void()> Arrive() {
    auto rem = remaining_;
    auto p = promise_;
    return [rem, p] {
      if (--*rem == 0) p.Set(true);
    };
  }

  Task<void> Wait() {
    co_await promise_.future();
  }

 private:
  Scheduler* sched_;
  std::shared_ptr<int> remaining_;
  Promise<bool> promise_;
};

}  // namespace cfs::sim
