// Deterministic discrete-event engine.
//
// The entire simulated cluster — P2P protocol steps, CPU progression lanes,
// fluid-flow completions, rank-program coroutine resumptions — runs on one
// of these. Determinism contract: events at equal timestamps fire in
// scheduling order (FIFO tie-break via a monotonically increasing sequence
// number), so a given workload always produces bit-identical results.
//
// Hot-path design (see docs/PERFORMANCE.md):
//  * Event records live in a chunked slab pool with a free list. Chunks are
//    fixed-size arrays that never move, so record addresses are stable:
//    growth never relocates closure state, and a due callback is invoked in
//    place instead of being moved out first. A record holds the callback
//    (SBO InlineFn — no heap allocation for small captures) and its
//    sequence number; the priority queue orders lightweight {time, seq,
//    slot} entries only.
//  * The queue is a lazy sorted run plus a small overflow heap.
//    schedule_at just appends to an unsorted tail; the next head access
//    folds the tail in — a large burst is sorted once and merged into the
//    descending run (pops become pop_back, and an equal-timestamp batch is
//    one contiguous reverse-copy), while a trickle sifts into a small
//    4-ary min-heap that is merged into the run when it outgrows it.
//  * cancel() is O(1) and reclaims eagerly: the callback is destroyed and
//    the slot returned to the free list immediately; the stale queue entry
//    is recognized later by its mismatched sequence number (slots recycle,
//    sequence numbers never do), skipped when it reaches the head, and
//    compacted away once dead entries dominate the queue. Cancellation is
//    routine, not rare: FlowNet cancels a flow's pending completion every
//    time a rebalance re-times the flow.
//  * Same-timestamp batch draining: all entries due at the current time are
//    popped into a FIFO batch in one pass; zero-delay events scheduled
//    while the batch drains append to it directly, bypassing the heap.
//  * The engine also owns its world's CellPool: request states are pooled
//    cells, so a message's requests recycle instead of hitting the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "simbase/assert.hpp"
#include "simbase/cell_pool.hpp"
#include "simbase/inline_fn.hpp"
#include "simbase/units.hpp"

namespace han::sim {

/// Handle for a scheduled event; usable with Engine::cancel(). The slot
/// index makes cancellation O(1); the sequence number makes a handle for a
/// fired/cancelled event inert even after its slot has been recycled.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0xffffffffu;
  friend bool operator==(EventId a, EventId b) { return a.seq == b.seq; }
};

class Engine {
 public:
  using Callback = InlineFn<void(), 48>;

  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedule `f` to run at absolute simulated time `t` (>= now). Accepts
  /// any callable: a raw closure is constructed directly inside the pooled
  /// event record (no temporary wrapper, no relocation); a ready-made
  /// Callback is moved in.
  template <typename F>
  EventId schedule_at(Time t, F&& f) {
    HAN_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    const std::uint64_t seq = ++next_seq_;
    const std::uint32_t slot = acquire_slot();
    Event& rec = slot_ref(slot);
    rec.seq = seq;
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      rec.cb = std::forward<F>(f);
    } else {
      rec.cb.assign(std::forward<F>(f));
    }
    ++live_;
    if (t == now_ && due_head_ < due_.size()) {
      // The batch at `now` is still draining: this event belongs to it
      // (its seq exceeds everything already queued, so FIFO order holds).
      due_.push_back(Entry{t, seq, slot});
    } else {
      // Ordered lazily by fold_tail(). Skip the allocator's crawl through
      // tiny capacities — every real workload schedules dozens of events.
      if (tail_.size() == tail_.capacity() && tail_.capacity() < 32) {
        tail_.reserve(32);
      }
      tail_.push_back(Entry{t, seq, slot});
    }
    return EventId{seq, slot};
  }

  /// Schedule `f` to run `dt` seconds from now.
  template <typename F>
  EventId schedule_after(Time dt, F&& f) {
    return schedule_at(now_ + dt, std::forward<F>(f));
  }

  /// O(1) cancellation. The callback is destroyed and its pool slot
  /// reclaimed immediately; the queue entry is dropped lazily (recognized
  /// by its stale sequence number). Cancelling an already-fired or
  /// already-cancelled event is a no-op.
  void cancel(EventId id) {
    if (id.slot >= pool_size_ || slot_ref(id.slot).seq != id.seq) return;
    release_slot(id.slot);
    ++stale_;
    maybe_purge();
  }

  /// Run the next pending event. Returns false when the queue is empty.
  bool step();

  /// Run until no events remain.
  void run() {
    while (step()) {
    }
  }

  /// Run events with timestamp <= `deadline`; afterwards now() == deadline
  /// if the simulation reached it.
  void run_until(Time deadline);

  /// Number of live (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return live_; }
  std::uint64_t events_processed() const { return processed_; }

  /// Pool diagnostics (tests assert occupancy returns to zero and that
  /// slots recycle instead of growing the slab).
  std::size_t pool_in_use() const { return live_; }
  std::size_t pool_capacity() const { return pool_size_; }

  /// Pooled cells for the shared states of this engine's waitables
  /// (mpi::make_request); outlives the engine while cells are live.
  CellPool& cells() { return *cells_; }

 private:
  struct Event {
    Callback cb;
    std::uint64_t seq = 0;  // 0 = slot free; matches queue entries while live
    std::uint32_t next_free = kNoSlot;
  };
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // 256 events per chunk: big enough that chunk allocation is rare, small
  // enough that an idle engine stays cheap.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  static bool before(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  // Chunks hold raw storage; records are placement-constructed on first
  // use (slots are handed out sequentially, so a fresh chunk is never
  // swept eagerly) and destroyed en masse in ~Engine.
  Event& slot_ref(std::uint32_t slot) {
    auto* events = reinterpret_cast<Event*>(chunks_[slot >> kChunkShift].get());
    return events[slot & (kChunkSize - 1)];
  }
  const Event& slot_ref(std::uint32_t slot) const {
    auto* events =
        reinterpret_cast<const Event*>(chunks_[slot >> kChunkShift].get());
    return events[slot & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slot_ref(slot).next_free;
      return slot;
    }
    if ((pool_size_ & (kChunkSize - 1)) == 0) {
      chunks_.emplace_back(new std::byte[sizeof(Event) * kChunkSize]);
    }
    const std::uint32_t slot = pool_size_++;
    new (&slot_ref(slot)) Event();
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    Event& rec = slot_ref(slot);
    rec.cb = nullptr;  // destroy the capture eagerly
    rec.seq = 0;
    rec.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  bool stale(const Entry& e) const { return slot_ref(e.slot).seq != e.seq; }

  // --- Priority queue: sorted run + overflow heap + unsorted tail ---------
  // Invariant at head-access time (after fold_tail): every pending entry is
  // in `sorted_` (descending (t, seq); minimum at the back) or in `heap4_`
  // (4-ary min-heap). `tail_` holds arrivals since the last fold.
  bool queue_empty() const { return sorted_.empty() && heap4_.empty(); }
  const Entry& queue_top() const {
    if (heap4_.empty()) return sorted_.back();
    if (sorted_.empty()) return heap4_.front();
    return before(sorted_.back(), heap4_.front()) ? sorted_.back()
                                                  : heap4_.front();
  }
  Entry queue_pop();
  void fold_tail();
  void heap4_push(Entry e);
  Entry heap4_pop();
  void heap4_sift_down(std::size_t i);
  void radix_sort_tail();
  // Sorts `batch` (descending) and merges it into the run. `fifo_input`
  // marks a batch already in ascending-seq order (i.e. tail_), unlocking
  // the stable radix path.
  void merge_into_sorted(std::vector<Entry>& batch, bool fifo_input);
  void maybe_purge();
  bool refill_due();  // pop the next equal-time batch; false if queue empty
  void skip_stale_tops();

  CellPool* cells_ = CellPool::create();  // orphaned, not deleted, by ~Engine
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::size_t stale_ = 0;  // upper bound on dead entries still queued
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::uint32_t pool_size_ = 0;  // slots ever created
  std::uint32_t free_head_ = kNoSlot;
  std::vector<Entry> sorted_;
  std::vector<Entry> heap4_;
  std::vector<Entry> tail_;
  std::vector<Entry> scratch_;  // merge buffer, reused across folds
  // Current same-timestamp batch, drained FIFO from due_head_.
  std::vector<Entry> due_;
  std::size_t due_head_ = 0;
};

}  // namespace han::sim
