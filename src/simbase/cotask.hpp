// C++20 coroutine plumbing for simulated rank programs.
//
// A rank program is an eagerly-started, self-destroying coroutine (CoTask).
// It suspends on Waitable objects (request completion, timers); completions
// resume waiters through the Engine as zero-delay events, which keeps the
// C++ call stack flat no matter how deep the simulated dependency chains go
// and preserves deterministic FIFO ordering among same-time resumptions.
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "simbase/assert.hpp"
#include "simbase/engine.hpp"

namespace han::sim {

/// Fire-and-forget coroutine, started explicitly via start(). The frame is
/// destroyed automatically when the body returns; an optional completion
/// hook fires first (used by SimWorld to count live rank programs). Lazy
/// start guarantees the hook is installed even for bodies that complete
/// synchronously.
class CoTask {
 public:
  struct promise_type {
    std::function<void()> on_done;

    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {
      if (on_done) on_done();
    }
    void unhandled_exception() { std::terminate(); }
  };

  /// Begin execution. Call exactly once; the handle must not be touched
  /// afterwards (the frame self-destroys on completion).
  void start(std::function<void()> on_done = nullptr) {
    HAN_ASSERT(handle_ && !started_);
    started_ = true;
    handle_.promise().on_done = std::move(on_done);
    handle_.resume();
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
  bool started_ = false;
};

/// One-shot completion object supporting multiple coroutine waiters and
/// plain callback subscribers. Completion resumes/invokes everyone via the
/// engine at the current simulated time: waiters first, then callbacks,
/// each in subscription order. Subscribed callbacks are stored as the
/// engine's SBO callback type. The first waiter and the first callback
/// live inline in the object and later ones in a separate overflow record:
/// nearly every waitable has at most one of each, so subscribing and
/// completing stay allocation-free and the object stays small.
class Waitable {
 public:
  explicit Waitable(Engine& engine) : engine_(&engine) {}
  Waitable(const Waitable&) = delete;
  Waitable& operator=(const Waitable&) = delete;

  bool done() const { return done_; }

  /// Subscribe a callback; fires immediately (as a 0-delay event) if the
  /// waitable is already complete.
  void on_complete(Engine::Callback cb) {
    if (done_) {
      engine_->schedule_after(0.0, std::move(cb));
    } else if (!first_callback_) {
      first_callback_ = std::move(cb);
    } else {
      overflow().callbacks.push_back(std::move(cb));
    }
  }

  /// Mark complete and wake all waiters. Idempotence is a bug here:
  /// completing twice indicates a broken protocol, so we assert.
  void complete() {
    HAN_ASSERT_MSG(!done_, "Waitable completed twice");
    done_ = true;
    if (first_waiter_) {
      engine_->schedule_after(0.0, [h = first_waiter_] { h.resume(); });
    }
    if (more_) {
      for (auto h : more_->waiters) {
        engine_->schedule_after(0.0, [h] { h.resume(); });
      }
    }
    if (first_callback_) {
      engine_->schedule_after(0.0, std::move(first_callback_));
    }
    if (more_) {
      for (auto& cb : more_->callbacks) {
        engine_->schedule_after(0.0, std::move(cb));
      }
      more_.reset();
    }
  }

  auto operator co_await() {
    struct Awaiter {
      Waitable* w;
      bool await_ready() const noexcept { return w->done_; }
      void await_suspend(std::coroutine_handle<> h) {
        if (!w->first_waiter_) {
          w->first_waiter_ = h;
        } else {
          w->overflow().waiters.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  Engine& engine() { return *engine_; }

 private:
  // Subscribers past the first waiter and the first callback.
  struct Overflow {
    std::vector<std::coroutine_handle<>> waiters;
    std::vector<Engine::Callback> callbacks;
  };
  Overflow& overflow() {
    if (!more_) more_ = std::make_unique<Overflow>();
    return *more_;
  }

  Engine* engine_;
  std::coroutine_handle<> first_waiter_;
  Engine::Callback first_callback_;
  std::unique_ptr<Overflow> more_;
  bool done_ = false;  // last: a derived class's fields share the padding
};

/// Awaitable timer: `co_await Delay{engine, dt};`
struct Delay {
  Engine& engine;
  Time dt;

  bool await_ready() const noexcept { return dt <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.schedule_after(dt, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

}  // namespace han::sim
