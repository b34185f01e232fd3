#include "han/task/scheduler.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "coll/module.hpp"
#include "coll/ring/ring.hpp"
#include "han/task/stripe.hpp"

namespace han::task {

mpi::Request dispatch(sim::Engine& engine, const TaskNode& n) {
  const mpi::Comm& c = *n.comm;
  switch (n.op) {
    case Op::Bcast:
      return striped_ibcast(engine, n.mod, c, n.me, n.root, n.recv, n.dtype,
                            n.cfg, n.sf);
    case Op::Reduce:
      return striped_ireduce(engine, n.mod, c, n.me, n.root, n.send, n.recv,
                             n.dtype, n.rop, n.cfg, n.sf);
    case Op::Allreduce:
      return n.mod->iallreduce(c, n.me, n.send, n.recv, n.dtype, n.rop,
                               n.cfg);
    case Op::Gather:
      return n.mod->igather(c, n.me, n.root, n.send, n.recv, n.cfg);
    case Op::Scatter:
      return n.mod->iscatter(c, n.me, n.root, n.send, n.recv, n.cfg);
    case Op::Allgather:
      return n.mod->iallgather(c, n.me, n.send, n.recv, n.cfg);
    case Op::ReduceScatter:
      if (n.stride) {
        return static_cast<coll::RingModule*>(n.mod)->ireduce_scatter_strided(
            c, n.me, n.send, n.recv, *n.stride, n.dtype, n.rop, n.cfg);
      }
      return n.mod->ireduce_scatter(c, n.me, n.send, n.recv, n.dtype, n.rop,
                                    n.cfg);
    case Op::Barrier:
      return n.mod->ibarrier(c, n.me);
  }
  HAN_ASSERT_MSG(false, "task node has an unknown op");
  return nullptr;
}

/// Per-run execution state: one rank's run of one shape. Pooled by the
/// scheduler; the completion callbacks point at it.
struct TaskScheduler::Exec {
  TaskScheduler* owner = nullptr;
  std::shared_ptr<const GraphShape> shape;
  RankView view;
  mpi::BufView send, recv;
  std::vector<std::vector<std::byte>> temps;
  int window = 1;
  int trace_rank = 0;
  mpi::Request done;

  std::vector<int> deps_left;
  std::vector<char> issued;
  std::vector<int> step_done;
  int frontier = 0;
  int remaining = 0;

  coll::CollRuntime& rt() const { return *owner->rt_; }
  Metrics& m() const { return owner->metrics_; }

  void init() {
    const GraphShape& s = *shape;
    const int n = static_cast<int>(s.nodes.size());
    deps_left.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      deps_left[i] = s.deps_begin[i + 1] - s.deps_begin[i];
    }
    issued.assign(static_cast<std::size_t>(n), 0);
    step_done.assign(s.step_total.size(), 0);
    remaining = n;
    frontier = 0;
    advance_frontier();

    Metrics& mx = m();
    if (mx.inflight == nullptr) {
      obs::MetricsRegistry& reg = rt().world().metrics();
      mx.inflight = &reg.gauge("han.task.inflight");
      mx.issued = &reg.counter("han.task.issued");
      mx.completed = &reg.counter("han.task.completed");
      mx.graphs = &reg.counter("han.task.graphs");
      mx.nodes = &reg.counter("han.task.nodes");
    }
    for (const ShapeNode& node : s.nodes) {
      auto& slot = mx.per_op[static_cast<int>(node.op)];
      if (slot == nullptr) {
        slot = &rt().world().metrics().counter(std::string("han.task.op.") +
                                               op_name(node.op));
      }
    }
    mx.graphs->add(1.0);
    mx.nodes->add(static_cast<double>(n));
  }

  void advance_frontier() {
    const std::vector<int>& total = shape->step_total;
    const int steps = static_cast<int>(total.size());
    while (frontier < steps && step_done[frontier] == total[frontier]) {
      ++frontier;
    }
  }

  bool issuable(int i) const {
    const int prev = shape->fifo_prev[i];
    return !issued[i] && deps_left[i] == 0 &&
           shape->nodes[i].step < frontier + window &&
           (prev < 0 || issued[prev]);
  }

  mpi::Request issue(int i) {
    return dispatch(rt().world().engine(),
                    bind_node(*shape, i, view, send, recv, temps));
  }

  /// Issue everything currently issuable, in emission order. A single
  /// forward pass suffices: issuing node i can only unblock (via the
  /// per-comm FIFO) nodes emitted after it.
  void pump() {
    Metrics& mx = m();
    for (int i = 0; i < static_cast<int>(shape->nodes.size()); ++i) {
      if (!issuable(i)) continue;
      issued[i] = 1;
      mx.issued->add(1.0);
      mx.per_op[static_cast<int>(shape->nodes[i].op)]->add(1.0);
      const double t0 = rt().world().now();
      mx.inflight->add(t0, 1.0);
      mpi::Request req = issue(i);
      HAN_ASSERT_MSG(req != nullptr, "task issue returned a null request");
      req->on_complete([self = this, i, t0] { self->finish(i, t0); });
    }
  }

  void finish(int i, double t0) {
    Metrics& mx = m();
    const double now = rt().world().now();
    mx.inflight->add(now, -1.0);
    mx.completed->add(1.0);
    const ShapeNode& node = shape->nodes[i];
    if (sim::Tracer* tr = rt().tracer()) {
      const std::string name = std::string("task.") + level_name(node.level) +
                               "." + op_name(node.op);
      tr->span(trace_rank, "han.task", name, t0, now,
               rt().world().rank(trace_rank).node);
    }
    ++step_done[node.step];
    advance_frontier();
    const GraphShape& s = *shape;
    for (int k = s.dependents_begin[i]; k < s.dependents_begin[i + 1]; ++k) {
      --deps_left[s.dependents[k]];
    }
    if (--remaining == 0) {
      const mpi::Request d = std::move(done);
      owner->release(*this);
      d->complete();
      return;
    }
    pump();
  }
};

namespace {

/// The run-invariant scheduling tables of a validated shape.
void tabulate(GraphShape& s) {
  const int n = static_cast<int>(s.nodes.size());
  s.dependents_begin.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int d : s.deps) ++s.dependents_begin[d + 1];
  for (int i = 0; i < n; ++i) {
    s.dependents_begin[i + 1] += s.dependents_begin[i];
  }
  s.dependents.resize(s.deps.size());
  std::vector<int> fill(s.dependents_begin.begin(),
                        s.dependents_begin.end() - 1);
  for (int i = 0; i < n; ++i) {
    for (int d : s.deps_of(i)) s.dependents[fill[d]++] = i;
  }
  // Per-comm FIFO threading: a shape's tiers are its communicators.
  s.fifo_prev.assign(static_cast<std::size_t>(n), -1);
  std::vector<int> last;
  int steps = 0;
  for (int i = 0; i < n; ++i) {
    const ShapeNode& node = s.nodes[i];
    if (node.tier >= static_cast<int>(last.size())) {
      last.resize(static_cast<std::size_t>(node.tier) + 1, -1);
    }
    s.fifo_prev[i] = last[node.tier];
    last[node.tier] = i;
    steps = std::max(steps, node.step + 1);
  }
  s.step_total.assign(static_cast<std::size_t>(steps), 0);
  for (const ShapeNode& node : s.nodes) ++s.step_total[node.step];
}

}  // namespace

TaskScheduler::TaskScheduler(coll::CollRuntime& rt) : rt_(&rt) {}

TaskScheduler::~TaskScheduler() = default;

TaskScheduler::Exec& TaskScheduler::acquire() {
  if (idle_.empty()) {
    pool_.push_back(std::make_unique<Exec>());
    pool_.back()->owner = this;
    return *pool_.back();
  }
  Exec& e = *idle_.back();
  idle_.pop_back();
  return e;
}

void TaskScheduler::release(Exec& e) {
  e.shape.reset();
  e.temps.clear();
  idle_.push_back(&e);
}

std::shared_ptr<const GraphShape> TaskScheduler::compile(
    GraphShape shape, const RankView& view) {
  const std::string defect = validate_shape(shape, view);
  HAN_ASSERT_MSG(defect.empty(), defect.c_str());
  tabulate(shape);
  return std::make_shared<const GraphShape>(std::move(shape));
}

mpi::Request TaskScheduler::run(std::shared_ptr<const GraphShape> shape,
                                const RankView& view, mpi::BufView send,
                                mpi::BufView recv, int window,
                                int trace_rank) {
  HAN_ASSERT_MSG(window >= 1, "scheduler window must be >= 1");
  copy_through(*shape, send, recv);
  mpi::Request done = mpi::make_request(rt_->world().engine());
  if (shape->empty()) {
    done->complete();  // degenerate: nothing to run
    return done;
  }
  Exec& e = acquire();
  for (std::size_t bytes : shape->temps) e.temps.emplace_back(bytes);
  e.shape = std::move(shape);
  e.view = view;
  e.send = send;
  e.recv = recv;
  e.window = window;
  e.trace_rank = trace_rank;
  e.done = done;
  e.init();
  e.pump();
  return done;
}

}  // namespace han::task
