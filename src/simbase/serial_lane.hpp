// SerialLane: FIFO execution lane for resources that process one operation
// at a time — a NIC injection engine, the single core of a single-threaded
// MPI process. Tasks run in submission order; each must invoke its release
// callback exactly once to free the lane.
//
// Hot-path note: tasks and the release callback are SBO InlineFn wrappers
// (the release closure is a single pointer and always lives inline), and
// the queue is a recycled ring rather than a deque — a lane wakeup in the
// steady state touches no allocator.
#pragma once

#include "simbase/inline_fn.hpp"
#include "simbase/ring_queue.hpp"

namespace han::sim {

class SerialLane {
 public:
  /// Invoked by a task to free the lane; must be called exactly once.
  using Release = InlineFn<void(), 16>;
  /// `task` runs when the lane frees up; it must eventually invoke the
  /// passed release callback exactly once. 16 bytes of inline capture
  /// covers the simulator's one task shape: a world pointer and the index
  /// of the pooled message record that holds everything else.
  using Task = InlineFn<void(Release), 16>;

  void submit(Task task) {
    queue_.push_back(std::move(task));
    if (!busy_) pump();
  }

  bool busy() const { return busy_; }

 private:
  void pump() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    Task t = queue_.pop_front();
    t(Release([this] { pump(); }));
  }

  bool busy_ = false;
  RingQueue<Task> queue_;
};

}  // namespace han::sim
