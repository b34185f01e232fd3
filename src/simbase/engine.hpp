// Deterministic discrete-event engine.
//
// The entire simulated cluster — P2P protocol steps, CPU progression lanes,
// fluid-flow completions, rank-program coroutine resumptions — runs on one
// of these. Determinism contract: events at equal timestamps fire in
// scheduling order (FIFO tie-break via a monotonically increasing sequence
// number), so a given workload always produces bit-identical results.
//
// Design (see docs/PERFORMANCE.md, "Event pool and queue"):
//  * Event records (the callback, an SBO InlineFn, and its sequence
//    number) live in a SlotPool: stable addresses, so a due callback runs
//    in place, and LIFO slot reuse, so the pool follows the peak number of
//    pending events.
//  * The queue is one 4-ary min-heap of {time, seq, slot} entries, keyed
//    on time alone: the smallest of four children is picked without
//    branches, and equal times need no tie-break inside the heap.
//  * Same-timestamp batches: all entries due at the next time are popped
//    into a batch at once and sorted by (time, seq), which restores the
//    FIFO order among them. An event scheduled at now() always joins the
//    batch, bypassing the heap, even when the batch has just drained (the
//    last event of a batch scheduling a zero-delay child is common). This
//    keeps the order, because once a batch at time T forms, no heap entry
//    has time T: every such entry was popped into it.
//  * cancel() is O(1): the callback is destroyed and the slot released at
//    once, and the queue entry goes stale (slots recycle, sequence numbers
//    never do). Stale entries are skipped when they reach the front, and
//    the heap is rebuilt without them once they dominate it.
//  * resequence() is O(1) too: it gives a pending event the sequence
//    number a cancel-and-reschedule at the same time would. Its queue
//    entry keeps the old key until the event's batch drains; there it
//    moves to the place the new number gives it.
//  * The engine also owns its world's CellPool: request states are pooled
//    cells, so a message's requests recycle instead of hitting the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "simbase/assert.hpp"
#include "simbase/cell_pool.hpp"
#include "simbase/inline_fn.hpp"
#include "simbase/slot_pool.hpp"
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
    const std::uint32_t slot = events_.acquire();
    Event& rec = events_[slot];
    rec.seq = rec.queued = seq;
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      rec.cb = std::forward<F>(f);
    } else {
      rec.cb.assign(std::forward<F>(f));
    }
    ++live_;
    if (t == now_) {
      // The event belongs to the batch at `now` (its seq exceeds everything
      // already queued, so FIFO order holds); a drained batch restarts.
      if (due_head_ == due_.size()) {
        due_.clear();
        due_head_ = 0;
      }
      due_.push_back(Entry{t, seq, slot});
    } else {
      heap_push(Entry{t, seq, slot});
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
    if (id.slot >= events_.capacity()) return;
    Event& rec = events_[id.slot];
    if (rec.seq != id.seq) return;
    rec.cb = nullptr;  // destroy the capture eagerly
    rec.seq = rec.queued = 0;
    events_.release(id.slot);
    --live_;
    ++stale_;
    maybe_purge();
  }

  /// Give a pending event the next sequence number, exactly as cancelling
  /// it and scheduling its callback again at the same time would, but in
  /// O(1): the callback stays in its record and the queue entry keeps its
  /// old key until the batch of its time drains, where the event takes the
  /// place of its new key. Returns the event's new id; the old one is no
  /// longer pending.
  EventId resequence(EventId id) {
    HAN_ASSERT_MSG(pending(id), "resequence of an event that is not pending");
    Event& rec = events_[id.slot];
    rec.seq = ++next_seq_;
    return EventId{rec.seq, id.slot};
  }

  /// Run the next pending event. Returns false when the queue is empty.
  bool step() { return step_until(std::numeric_limits<Time>::infinity()); }

  /// Run until no events remain.
  void run() {
    while (step()) {
    }
  }

  /// Run events with timestamp <= `deadline`; afterwards now() == deadline
  /// if the simulation reached it.
  void run_until(Time deadline) {
    while (step_until(deadline)) {
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Number of live (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return live_; }
  /// Whether `id`'s event is still live. A default EventId, a fired or
  /// cancelled event (including one whose slot was recycled) is not; an
  /// event is no longer pending while its own callback runs.
  bool pending(EventId id) const {
    return id.seq != 0 && id.slot < events_.capacity() &&
           events_[id.slot].seq == id.seq;
  }
  std::uint64_t events_processed() const { return processed_; }

  /// Event records ever created: slots recycle, so this follows the peak
  /// number of pending events, not how many were ever scheduled.
  std::size_t pool_capacity() const { return events_.capacity(); }

  /// Pooled cells for the shared states of this engine's waitables
  /// (mpi::make_request); outlives the engine while cells are live.
  CellPool& cells() { return *cells_; }

 private:
  struct Event {
    Callback cb;
    std::uint64_t seq = 0;     // 0 = slot free; the event's order key
    std::uint64_t queued = 0;  // its queue entry's key (< seq: resequenced)
  };
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Orphan {
    void operator()(CellPool* pool) const { pool->orphan(); }
  };

  static bool before(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
  bool stale(const Entry& e) const {
    return events_[e.slot].queued != e.seq;
  }

  void heap_push(Entry e);
  Entry heap_pop();
  void sift_down(std::size_t i);
  void maybe_purge();
  // Fire the next live event if it is due at or before `limit`; false,
  // with now() unchanged, if there is none.
  bool step_until(Time limit);

  // Declared before events_, so it is orphaned after the records are
  // destroyed: their closures may hold cells.
  std::unique_ptr<CellPool, Orphan> cells_{CellPool::create()};
  SlotPool<Event> events_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::size_t stale_ = 0;  // upper bound on dead entries still queued
  std::vector<Entry> heap_;  // 4-ary min-heap by t
  // Current same-timestamp batch, drained FIFO from due_head_.
  std::vector<Entry> due_;
  std::size_t due_head_ = 0;
};

}  // namespace han::sim
