#include "simbase/engine.hpp"

#include <algorithm>

namespace han::sim {

void Engine::heap_push(Entry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    if (!(e.t < heap_[p].t)) break;
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = e;
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t c = 4 * i + 1;
    if (c >= n) break;
    std::size_t best;
    if (c + 4 <= n) {
      // All four children exist: a tournament of conditional moves.
      const std::size_t a = heap_[c + 1].t < heap_[c].t ? c + 1 : c;
      const std::size_t b = heap_[c + 3].t < heap_[c + 2].t ? c + 3 : c + 2;
      best = heap_[b].t < heap_[a].t ? b : a;
    } else {
      best = c;
      for (std::size_t j = c + 1; j < n; ++j) {
        if (heap_[j].t < heap_[best].t) best = j;
      }
    }
    if (!(heap_[best].t < e.t)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

Engine::Entry Engine::heap_pop() {
  const Entry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return top;
}

// Rebuild the heap without its cancelled entries once they dominate it, so
// cancel-heavy workloads (retry timers, speculative protocol steps) stay
// O(live), not O(ever-scheduled). stale_ is an upper bound: it also counts
// entries that died in the due batch, hence the exact sweep here.
void Engine::maybe_purge() {
  if (stale_ < 64 || stale_ * 2 < heap_.size()) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return stale(e); }),
              heap_.end());
  for (std::size_t n = heap_.size(), i = n >= 2 ? (n - 2) / 4 + 1 : 0;
       i-- > 0;) {
    sift_down(i);
  }
  stale_ = 0;
}

bool Engine::step_until(Time limit) {
  // Entries in the current batch are due at now(); a partially drained
  // batch can sit beyond a smaller limit.
  if (due_head_ < due_.size() && now_ > limit) return false;
  for (;;) {
    for (; due_head_ < due_.size(); ++due_head_) {
      const Entry e = due_[due_head_];
      if (stale(e)) {  // cancelled while waiting in the batch
        if (stale_ > 0) --stale_;
        continue;
      }
      Event& rec = events_[e.slot];
      if (rec.seq == e.seq) break;
      // Resequenced since it was queued. The batch holds every event due
      // now, ordered by queued key, so the event moves to the place its
      // new number gives it.
      rec.queued = rec.seq;
      const Entry moved{e.t, rec.seq, e.slot};
      due_.insert(std::upper_bound(due_.begin() + due_head_ + 1, due_.end(),
                                   moved, before),
                  moved);
    }
    if (due_head_ < due_.size()) break;
    // The batch is spent. Pop the entire next equal-time batch before
    // firing any of it, and sort it by sequence number (the heap keys on
    // time alone): callbacks that schedule zero-delay events then append
    // to `due_` directly, preserving global FIFO order without re-touching
    // the heap. A cancelled head is dropped first, so an all-cancelled
    // time never advances now().
    while (!heap_.empty() && stale(heap_.front())) {
      heap_pop();
      if (stale_ > 0) --stale_;
    }
    if (heap_.empty() || heap_.front().t > limit) return false;
    due_.clear();
    due_head_ = 0;
    now_ = heap_.front().t;
    do {
      due_.push_back(heap_pop());
    } while (!heap_.empty() && heap_.front().t == now_);
    if (due_.size() > 1) std::sort(due_.begin(), due_.end(), before);
  }
  const std::uint32_t slot = due_[due_head_++].slot;
  // The batch announces future record accesses; their slots are scattered
  // (firing order != allocation order), so prefetch a few entries ahead.
  if (due_head_ + 4 < due_.size()) {
    __builtin_prefetch(&events_[due_[due_head_ + 4].slot]);
  }
  // Fire in place: record addresses are stable, and clearing `seq` first
  // makes a self-cancel inside the callback a no-op. The slot is released
  // only after the callback returns, so events it schedules cannot reuse
  // it mid-flight.
  Event& rec = events_[slot];
  rec.seq = 0;
  --live_;
  ++processed_;
  rec.cb();
  rec.cb = nullptr;
  events_.release(slot);
  return true;
}

}  // namespace han::sim
