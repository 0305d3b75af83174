// Hierarchical timer wheel + pooled event records: the scheduler's event
// queue (see DESIGN.md "Simulator performance").
//
// Replaces the std::priority_queue<Event, vector, greater<>> heap: O(log n)
// sift costs and per-event std::function heap traffic dominated simulator
// profiles once pending-event counts reached cluster scale (every in-flight
// RPC parks a timeout event; a 100-node bench keeps tens of thousands
// pending). The wheel gives O(1) insert, O(1) amortized pop, and recycles
// fixed-size event nodes through a slab free list so steady-state scheduling
// performs no allocation at all; callbacks live in a small-buffer-optimized
// move-only EventFn, so typical closures (coroutine resumptions, delivery
// thunks) stay inline in the node.
//
// Layout: 8 levels x 256 slots, keyed on the *absolute* event tick — the
// slot of an event at level L is byte L of its 64-bit virtual time. An event
// is filed at the highest byte in which its tick differs from the wheel
// cursor `wcur_` (the level-0 block holds the next 256 us, level 1 the rest
// of the current 64 Ki-us region, and so on). The cursor only moves forward
// and never passes a live event, which yields the key invariant: a live node
// at level L agrees with the cursor on every byte above L. Cascading is
// therefore local — whenever the cursor enters a region, the one slot it
// points at per level is redistributed downward — and a level-0 slot holds
// exactly one tick's events.
//
// Determinism: dispatch collects one tick's nodes and sorts them by the
// scheduler-assigned sequence number, so execution order is exactly
// (time, seq) — byte-identical to the heap it replaces (tests/
// schedule_hash_test.cc pins that with golden hashes). Cancellation is lazy
// (mark + sweep on contact) so cancelled timers cost nothing to remove and
// never perturb live ordering.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"

namespace cfs::sim {

constexpr uint32_t kNilIndex = 0xffffffffu;

/// Move-only type-erased callable with small-buffer optimization. Most
/// scheduler callbacks (coroutine resumptions, RPC delivery thunks) fit the
/// inline buffer, so scheduling an event allocates nothing; larger closures
/// fall back to one heap cell.
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 80;

  EventFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (buf_) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(static_cast<void*>(buf_)) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      Reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }
  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct dst from src, then destroy src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); }
    static void Relocate(void* dst, void* src) {
      Fn* s = std::launder(reinterpret_cast<Fn*>(src));
      new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void Destroy(void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Get(void* p) { return *reinterpret_cast<Fn**>(p); }
    static void Invoke(void* p) { (*Get(p))(); }
    static void Relocate(void* dst, void* src) { std::memcpy(dst, src, sizeof(Fn*)); }
    static void Destroy(void* p) { delete Get(p); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy};
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

/// One pending event. Nodes live in the wheel's slab and are recycled
/// through a free list; `gen` is bumped whenever a node leaves pending state
/// (execution or recycle), invalidating outstanding TimerIds.
struct EventNode {
  SimTime time = 0;
  uint64_t seq = 0;
  uint32_t next = kNilIndex;  // intrusive slot-list link / free-list link
  uint32_t gen = 0;
  uint32_t self = kNilIndex;  // own slab index
  bool cancelled = false;
  EventFn fn;
};

class TimerWheel {
 public:
  /// Cancellable handle returned by Insert. Stale ids (event already ran or
  /// was cancelled) are detected via the node generation counter.
  struct TimerId {
    uint32_t index = kNilIndex;
    uint32_t gen = 0;
    bool valid() const { return index != kNilIndex; }
  };

  static constexpr SimTime kNoLimit = INT64_MAX;

  TimerId Insert(SimTime t, uint64_t seq, EventFn fn) {
    if (Tick(t) < wcur_) RebuildFor(t);  // defensive; scheduler keeps Now() >= cursor
    uint32_t idx = AllocNode();
    EventNode& n = Node(idx);
    n.time = t;
    n.seq = seq;
    n.cancelled = false;
    n.fn = std::move(fn);
    live_++;
    Place(idx);
    return TimerId{idx, n.gen};
  }

  /// Lazily cancel a pending event: O(1) mark now, node reclaimed when the
  /// dispatch path next touches it. Returns false for stale ids (already
  /// executed, already cancelled, or recycled).
  bool Cancel(TimerId id) {
    if (!id.valid() || id.index >= num_nodes_) return false;
    EventNode& n = Node(id.index);
    if (n.gen != id.gen || n.cancelled) return false;
    n.cancelled = true;
    n.fn.Reset();  // release captured resources eagerly
    live_--;
    return true;
  }

  /// Pop the next event with time <= limit in (time, seq) order, or nullptr.
  /// The caller runs the callback and then hands the node back via Recycle.
  /// When nullptr is returned with a finite limit, the cursor has advanced
  /// to `limit` (there is provably nothing at or before it).
  EventNode* PopRunnable(SimTime limit) {
    for (;;) {
      while (ready_pos_ < ready_.size()) {
        uint32_t idx = ready_[ready_pos_];
        EventNode& n = Node(idx);
        if (n.time > limit) return nullptr;  // whole batch shares one tick
        ready_pos_++;
        if (n.cancelled) {
          FreeNode(idx);
          continue;
        }
        live_--;
        n.gen++;  // from here on the id is stale: too late to cancel
        return &n;
      }
      ready_.clear();
      ready_pos_ = 0;
      if (!FindNext(limit)) return nullptr;
    }
  }

  void Recycle(EventNode* n) { FreeNode(n->self); }

  size_t live() const { return live_; }
  bool empty() const { return live_ == 0; }

 private:
  static constexpr int kLevels = 8;
  static constexpr int kSlots = 256;
  static constexpr uint32_t kChunk = 512;

  struct Slot {
    uint32_t head = kNilIndex;
    uint32_t tail = kNilIndex;
  };

  static uint64_t Tick(SimTime t) { return static_cast<uint64_t>(t); }
  static int ByteOf(uint64_t tick, int level) {
    return static_cast<int>((tick >> (8 * level)) & 0xff);
  }

  EventNode& Node(uint32_t i) { return chunks_[i / kChunk][i % kChunk]; }

  uint32_t AllocNode() {
    if (free_head_ == kNilIndex) {
      uint32_t base = num_nodes_;
      chunks_.push_back(std::make_unique<EventNode[]>(kChunk));
      num_nodes_ += kChunk;
      for (uint32_t i = kChunk; i-- > 0;) {
        EventNode& n = chunks_.back()[i];
        n.self = base + i;
        n.next = free_head_;
        free_head_ = base + i;
      }
    }
    uint32_t idx = free_head_;
    free_head_ = Node(idx).next;
    return idx;
  }

  void FreeNode(uint32_t idx) {
    EventNode& n = Node(idx);
    n.fn.Reset();
    n.cancelled = false;
    n.gen++;
    n.next = free_head_;
    free_head_ = idx;
  }

  /// File a node at the highest byte where its tick differs from the cursor.
  int LevelFor(uint64_t tick) const {
    uint64_t x = tick ^ wcur_;
    if (x == 0) return 0;
    return (63 - std::countl_zero(x)) >> 3;
  }

  void Place(uint32_t idx) {
    uint64_t tick = Tick(Node(idx).time);
    int level = LevelFor(tick);
    PushAt(level, ByteOf(tick, level), idx);
  }

  void PushAt(int level, int slot, uint32_t idx) {
    Node(idx).next = kNilIndex;
    Slot& s = slots_[level][slot];
    if (s.tail == kNilIndex) {
      s.head = s.tail = idx;
      occ_[level][slot >> 6] |= uint64_t{1} << (slot & 63);
    } else {
      Node(s.tail).next = idx;
      s.tail = idx;
    }
  }

  bool Occupied(int level, int slot) const {
    return (occ_[level][slot >> 6] >> (slot & 63)) & 1;
  }

  /// Lowest occupied slot >= from at `level`, or -1.
  int NextOccupied(int level, int from) const {
    if (from >= kSlots) return -1;
    int w = from >> 6;
    uint64_t word = occ_[level][w] & (~uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0) return (w << 6) + std::countr_zero(word);
      if (++w >= kSlots / 64) return -1;
      word = occ_[level][w];
    }
  }

  /// Detach a slot's list (clearing its occupancy bit) and return the head.
  uint32_t DetachSlot(int level, int slot) {
    Slot& s = slots_[level][slot];
    uint32_t head = s.head;
    s.head = s.tail = kNilIndex;
    occ_[level][slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    return head;
  }

  /// Redistribute a slot the cursor points into: live nodes re-file at a
  /// strictly lower level (their byte here equals the cursor's), cancelled
  /// debris is reclaimed.
  void CascadeSlot(int level, int slot) {
    uint32_t i = DetachSlot(level, slot);
    while (i != kNilIndex) {
      uint32_t nx = Node(i).next;
      if (Node(i).cancelled) {
        FreeNode(i);
      } else {
        Place(i);
      }
      i = nx;
    }
  }

  bool SlotHasLive(int level, int slot) {
    for (uint32_t i = slots_[level][slot].head; i != kNilIndex; i = Node(i).next) {
      if (!Node(i).cancelled) return true;
    }
    return false;
  }

  void DrainCancelledSlot(int level, int slot) {
    uint32_t i = DetachSlot(level, slot);
    while (i != kNilIndex) {
      uint32_t nx = Node(i).next;
      FreeNode(i);
      i = nx;
    }
  }

  /// Collect the tick at level-0 slot `slot` into ready_, sorted by seq.
  void CollectTick(int slot) {
    uint32_t i = DetachSlot(0, slot);
    while (i != kNilIndex) {
      uint32_t nx = Node(i).next;
      if (Node(i).cancelled) {
        FreeNode(i);
      } else {
        ready_.push_back(i);
      }
      i = nx;
    }
    std::sort(ready_.begin(), ready_.end(),
              [this](uint32_t a, uint32_t b) { return Node(a).seq < Node(b).seq; });
  }

  /// Advance the cursor to the next live tick <= limit and fill ready_ with
  /// that tick's events. Returns false (cursor parked at `limit` when it is
  /// finite) if no live event is due.
  bool FindNext(SimTime limit) {
    uint64_t lim = Tick(limit < 0 ? 0 : limit);
    if (live_ == 0) {
      if (limit != kNoLimit && lim > wcur_) wcur_ = lim;
      return false;
    }
    if (lim < wcur_) return false;
    for (;;) {
      // The cursor just entered this position: redistribute every slot it
      // points into, coarsest level first (each cascade can feed the next).
      for (int level = kLevels - 1; level >= 1; level--) {
        int slot = ByteOf(wcur_, level);
        if (Occupied(level, slot)) CascadeSlot(level, slot);
      }
      // Scan the current level-0 block (one slot == one tick).
      int s = NextOccupied(0, ByteOf(wcur_, 0));
      while (s >= 0) {
        uint64_t t0 = (wcur_ & ~uint64_t{0xff}) | static_cast<uint64_t>(s);
        if (SlotHasLive(0, s)) {
          // Live level-0 nodes agree with the cursor above byte 0, so their
          // time is exactly t0.
          if (t0 > lim) {
            wcur_ = lim;  // same block: no live event in (wcur_, lim]
            return false;
          }
          wcur_ = t0;
          CollectTick(s);
          return true;
        }
        DrainCancelledSlot(0, s);
        s = NextOccupied(0, s + 1);
      }
      // Block exhausted: jump to the next occupied region. Finer levels are
      // strictly nearer in time than coarser ones (the cursor's own slots
      // were already cascaded), so take the first live slot bottom-up.
      bool advanced = false;
      for (int level = 1; level < kLevels && !advanced; level++) {
        int s2 = NextOccupied(level, ByteOf(wcur_, level) + 1);
        while (s2 >= 0) {
          if (SlotHasLive(level, s2)) {
            uint64_t low_mask = level == kLevels - 1
                                    ? ~uint64_t{0}
                                    : (uint64_t{1} << (8 * (level + 1))) - 1;
            uint64_t base =
                (wcur_ & ~low_mask) | (static_cast<uint64_t>(s2) << (8 * level));
            if (base > lim) {
              if (lim > wcur_) wcur_ = lim;
              return false;
            }
            wcur_ = base;
            advanced = true;
            break;
          }
          DrainCancelledSlot(level, s2);
          s2 = NextOccupied(level, s2 + 1);
        }
      }
      if (!advanced) {
        // live_ > 0 yet nothing found anywhere ahead of the cursor — only
        // reachable if an invariant broke; fail closed instead of spinning.
        return false;
      }
    }
  }

  /// Cursor retreat (insert below wcur_): re-place every pending node
  /// relative to the new cursor. The scheduler never triggers this (events
  /// clamp to Now() >= cursor); kept for direct wheel users.
  void RebuildFor(SimTime t) {
    std::vector<uint32_t> pending;
    for (int level = 0; level < kLevels; level++) {
      for (int slot = NextOccupied(level, 0); slot >= 0;
           slot = NextOccupied(level, slot + 1)) {
        uint32_t i = DetachSlot(level, slot);
        while (i != kNilIndex) {
          uint32_t nx = Node(i).next;
          if (Node(i).cancelled) {
            FreeNode(i);
          } else {
            pending.push_back(i);
          }
          i = nx;
        }
      }
    }
    wcur_ = Tick(t);
    for (uint32_t idx : pending) Place(idx);
  }

  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  uint32_t num_nodes_ = 0;
  uint32_t free_head_ = kNilIndex;
  Slot slots_[kLevels][kSlots];
  uint64_t occ_[kLevels][kSlots / 64] = {};
  /// Wheel cursor: <= every live event's tick; only moves forward (except
  /// the defensive RebuildFor path).
  uint64_t wcur_ = 0;
  size_t live_ = 0;
  /// Current tick's dispatch batch (indices, seq-sorted), consumed from
  /// ready_pos_. Same-tick events inserted during dispatch land in the wheel
  /// and are collected as a follow-up batch — their seqs are higher, so
  /// (time, seq) order is preserved.
  std::vector<uint32_t> ready_;
  size_t ready_pos_ = 0;
};

}  // namespace cfs::sim
