#include "simbase/engine.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace han::sim {

namespace {

// Non-negative doubles compare like their bit patterns; the +0.0 folds a
// possible -0.0 into +0.0 so the two compare equal in key space too.
// (Simulated time is never negative: schedule_at asserts t >= now >= 0.)
inline std::uint64_t time_key(Time t) {
  const double d = t + 0.0;
  std::uint64_t k;
  std::memcpy(&k, &d, sizeof k);
  return k;
}

}  // namespace

Engine::~Engine() {
  // Records are placement-constructed (see acquire_slot); only slots that
  // were ever handed out exist.
  for (std::uint32_t s = 0; s < pool_size_; ++s) slot_ref(s).~Event();
  cells_->orphan();  // after the events: their closures may hold cells
}

void Engine::heap4_push(Entry e) {
  std::size_t i = heap4_.size();
  heap4_.push_back(e);
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    if (!before(e, heap4_[p])) break;
    heap4_[i] = heap4_[p];
    i = p;
  }
  heap4_[i] = e;
}

void Engine::heap4_sift_down(std::size_t i) {
  const std::size_t n = heap4_.size();
  const Entry e = heap4_[i];
  for (;;) {
    const std::size_t c = 4 * i + 1;
    if (c >= n) break;
    const std::size_t last = std::min(c + 4, n);
    std::size_t best = c;
    for (std::size_t j = c + 1; j < last; ++j) {
      if (before(heap4_[j], heap4_[best])) best = j;
    }
    if (!before(heap4_[best], e)) break;
    heap4_[i] = heap4_[best];
    i = best;
  }
  heap4_[i] = e;
}

Engine::Entry Engine::heap4_pop() {
  const Entry top = heap4_.front();
  heap4_.front() = heap4_.back();
  heap4_.pop_back();
  if (!heap4_.empty()) heap4_sift_down(0);
  return top;
}

Engine::Entry Engine::queue_pop() {
  if (heap4_.empty() ||
      (!sorted_.empty() && before(sorted_.back(), heap4_.front()))) {
    const Entry e = sorted_.back();
    sorted_.pop_back();
    return e;
  }
  return heap4_pop();
}

// Stable LSD radix sort of `tail_` by time key, ascending. Stability is
// what makes sorting by time alone sufficient: the tail is appended in
// ascending seq order, so equal times keep FIFO order without ever
// comparing sequence numbers. Byte positions where every key agrees are
// skipped — a simulation's pending times typically share exponent and
// low-mantissa bytes, leaving two or three real passes.
void Engine::radix_sort_tail() {
  const std::size_t n = tail_.size();
  scratch_.resize(n);
  std::array<std::array<std::uint32_t, 256>, 8> hist{};
  for (const Entry& e : tail_) {
    const std::uint64_t k = time_key(e.t);
    for (int b = 0; b < 8; ++b) ++hist[b][(k >> (8 * b)) & 0xffu];
  }
  Entry* src = tail_.data();
  Entry* dst = scratch_.data();
  for (int b = 0; b < 8; ++b) {
    auto& h = hist[b];
    bool uniform = false;
    for (int j = 0; j < 256; ++j) {
      if (h[j] == n) {
        uniform = true;
        break;
      }
      if (h[j] != 0) break;  // first non-empty bucket decides
    }
    if (uniform) continue;
    std::uint32_t pos = 0;
    std::array<std::uint32_t, 256> start;
    for (int j = 0; j < 256; ++j) {
      start[j] = pos;
      pos += h[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = time_key(src[i].t);
      dst[start[(k >> (8 * b)) & 0xffu]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != tail_.data()) tail_.swap(scratch_);
}

void Engine::merge_into_sorted(std::vector<Entry>& batch, bool fifo_input) {
  const auto later = [](const Entry& a, const Entry& b) {
    return before(b, a);
  };
  if (fifo_input) {
    // A burst often lands on one timestamp (synchronized completions); an
    // ascending-seq input then just needs reversing, no sort at all.
    bool one_time = true;
    for (const Entry& e : batch) {
      if (e.t != batch.front().t) {
        one_time = false;
        break;
      }
    }
    if (one_time) {
      std::reverse(batch.begin(), batch.end());
    } else if (batch.size() > 256) {
      radix_sort_tail();  // stable ascending by time...
      std::reverse(batch.begin(), batch.end());  // ...flipped to descending
    } else {
      std::sort(batch.begin(), batch.end(), later);
    }
  } else {
    std::sort(batch.begin(), batch.end(), later);
  }
  if (sorted_.empty()) {
    sorted_.swap(batch);
  } else {
    scratch_.clear();
    scratch_.reserve(sorted_.size() + batch.size());
    std::merge(sorted_.begin(), sorted_.end(), batch.begin(), batch.end(),
               std::back_inserter(scratch_), later);
    sorted_.swap(scratch_);
  }
  batch.clear();
}

// Fold arrivals since the last head access into the queue proper. A burst
// — the "schedule N, then run" pattern — is sorted once and merged into
// the run; a trickle sifts into the small overflow heap. The overflow heap
// itself is merged into the run once it outgrows it, so it stays shallow.
void Engine::fold_tail() {
  if (!tail_.empty()) {
    // Merge the tail directly only when it is a real burst relative to the
    // run — merging costs O(sorted), so small tails go through the heap
    // and ride its amortized threshold instead.
    if (tail_.size() <= 16 || tail_.size() * 8 < sorted_.size()) {
      for (const Entry& e : tail_) heap4_push(e);
      tail_.clear();
    } else {
      merge_into_sorted(tail_, /*fifo_input=*/true);
    }
  }
  if (heap4_.size() > 64 && heap4_.size() * 2 > sorted_.size()) {
    // Heap order is irrelevant (re-sorted), but heap4_ is not in seq
    // order, so it takes the comparator path.
    merge_into_sorted(heap4_, /*fifo_input=*/false);
  }
}

// Drop cancelled entries sitting at the head of the queue.
void Engine::skip_stale_tops() {
  while (!queue_empty() && stale(queue_top())) {
    queue_pop();
    if (stale_ > 0) --stale_;
  }
}

// Compact the queue when cancelled events dominate it, so cancel-heavy
// workloads (retry timers, speculative protocol steps) stay O(live), not
// O(ever-scheduled). stale_ is an upper bound: it also counts entries that
// died in the due batch, hence the exact recount here.
void Engine::maybe_purge() {
  const std::size_t queued = sorted_.size() + heap4_.size() + tail_.size();
  if (stale_ < 64 || stale_ * 2 < queued) return;
  const auto dead = [this](const Entry& e) { return stale(e); };
  sorted_.erase(std::remove_if(sorted_.begin(), sorted_.end(), dead),
                sorted_.end());  // keeps the descending order
  tail_.erase(std::remove_if(tail_.begin(), tail_.end(), dead), tail_.end());
  heap4_.erase(std::remove_if(heap4_.begin(), heap4_.end(), dead),
               heap4_.end());
  for (std::size_t n = heap4_.size(), i = n >= 2 ? (n - 2) / 4 + 1 : 0;
       i-- > 0;) {
    heap4_sift_down(i);
  }
  stale_ = 0;
}

bool Engine::refill_due() {
  due_.clear();
  due_head_ = 0;
  // Synchronized-completion fast path: everything pending arrived since the
  // last fold and lands on one timestamp (a barrier of flows finishing
  // together). The tail is already FIFO — it IS the batch, no sort, no
  // reverse, no copy. Guarded on stale_ == 0 so a fully-cancelled batch
  // cannot advance now_ (the fold path leaves now_ untouched in that case).
  if (stale_ == 0 && sorted_.empty() && heap4_.empty() && !tail_.empty()) {
    const Time t = tail_.front().t;
    bool one_time = true;
    for (const Entry& e : tail_) {
      if (e.t != t) {
        one_time = false;
        break;
      }
    }
    if (one_time) {
      due_.swap(tail_);
      now_ = t;
      return true;
    }
  }
  fold_tail();
  skip_stale_tops();
  if (queue_empty()) return false;
  const Time t = queue_top().t;
  // Pop the entire equal-time batch before firing any of it: callbacks
  // that schedule zero-delay events then append to `due_` directly,
  // preserving global FIFO order without re-touching the heap. The head
  // entry is live (stale tops were just skipped), so the batch is
  // guaranteed non-empty.
  if (heap4_.empty() || heap4_.front().t != t) {
    // Fast path: the whole batch sits contiguously at the back of the
    // sorted run, in descending seq order — copy it out reversed without
    // touching the (cache-scattered) event records; step() re-checks
    // staleness per entry anyway.
    std::size_t first = sorted_.size();
    while (first > 0 && sorted_[first - 1].t == t) --first;
    for (std::size_t i = sorted_.size(); i-- > first;) {
      due_.push_back(sorted_[i]);
    }
    sorted_.resize(first);
  } else {
    while (!queue_empty() && queue_top().t == t) {
      const Entry e = queue_pop();
      if (!stale(e)) {
        due_.push_back(e);
      } else if (stale_ > 0) {
        --stale_;
      }
    }
  }
  now_ = t;
  return true;
}

bool Engine::step() {
  for (;;) {
    if (due_head_ >= due_.size()) {
      if (!refill_due()) return false;
    }
    const Entry e = due_[due_head_++];
    // The batch announces future record accesses; their slots are scattered
    // (firing order != allocation order), so prefetch a few entries ahead.
    if (due_head_ + 4 < due_.size()) {
      __builtin_prefetch(&slot_ref(due_[due_head_ + 4].slot));
    }
    Event& rec = slot_ref(e.slot);
    if (rec.seq != e.seq) {
      if (stale_ > 0) --stale_;
      continue;  // cancelled while waiting in the batch
    }
    // Fire in place: chunk addresses are stable, and clearing `seq` first
    // makes a self-cancel inside the callback a no-op. The slot joins the
    // free list only after the callback returns, so events it schedules
    // cannot reuse it mid-flight.
    rec.seq = 0;
    --live_;
    ++processed_;
    rec.cb();
    rec.cb = nullptr;
    rec.next_free = free_head_;
    free_head_ = e.slot;
    return true;
  }
}

void Engine::run_until(Time deadline) {
  for (;;) {
    if (due_head_ < due_.size()) {
      // Entries in the current batch are due at now(); a partially
      // drained batch can sit beyond a smaller deadline.
      if (now_ > deadline) break;
      step();
      continue;
    }
    fold_tail();
    skip_stale_tops();
    if (queue_empty() || queue_top().t > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace han::sim
