// Nonblocking-operation handles.
//
// A Request wraps a Waitable; rank programs `co_await *req`, schedules
// subscribe completion callbacks. Requests are shared_ptr-owned because a
// completion may outlive the issuing scope (e.g. an eagerly-buffered send).
// Every request's shared state (control block plus RequestState) is one
// cell of its engine's CellPool, so creating and dropping requests at
// message rate recycles cells instead of allocating.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simbase/cell_pool.hpp"
#include "simbase/cotask.hpp"

namespace han::mpi {

class RequestState : public sim::Waitable {
 public:
  using sim::Waitable::Waitable;

 private:
  friend class WaitAll;
  // Unfinished requests left, while this request is a WaitAll gate.
  std::uint32_t gated_ = 0;
};

using Request = std::shared_ptr<RequestState>;

inline Request make_request(sim::Engine& engine) {
  return std::allocate_shared<RequestState>(
      sim::CellAllocator<RequestState>(engine.cells()), engine);
}

/// Awaitable that completes when every request in the set completes.
/// Usage: `co_await wait_all(engine, {r1, r2});`
class WaitAll {
 public:
  WaitAll(sim::Engine& engine, std::vector<Request> reqs)
      : gate_(make_request(engine)) {
    for (auto& r : reqs) {
      if (!r->done()) ++gate_->gated_;
    }
    if (gate_->gated_ == 0) {
      gate_->complete();
      return;
    }
    for (auto& r : reqs) {
      if (r->done()) continue;
      r->on_complete([gate = gate_] {
        if (--gate->gated_ == 0) gate->complete();
      });
    }
  }

  auto operator co_await() { return gate_->operator co_await(); }
  Request gate() const { return gate_; }

 private:
  Request gate_;
};

inline WaitAll wait_all(sim::Engine& engine, std::vector<Request> reqs) {
  return WaitAll(engine, std::move(reqs));
}

}  // namespace han::mpi
