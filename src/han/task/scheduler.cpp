#include "han/task/scheduler.hpp"

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

namespace {

/// Per-run execution state, kept alive by the completion callbacks.
struct Exec : std::enable_shared_from_this<Exec> {
  coll::CollRuntime* rt = nullptr;
  TaskScheduler::Metrics* m = nullptr;  // the scheduler's interned handles
  TaskGraph g;
  int window = 1;
  int trace_rank = 0;
  mpi::Request done;

  std::vector<int> deps_left;
  std::vector<char> issued;
  std::vector<std::vector<int>> dependents;
  std::vector<int> ctx_prev;  // previous node on the same comm, -1 if none
  std::vector<long> step_total, step_done;
  int frontier = 0;
  int remaining = 0;

  void init() {
    const int n = static_cast<int>(g.nodes.size());
    deps_left.assign(n, 0);
    issued.assign(n, 0);
    dependents.assign(n, {});
    ctx_prev.assign(n, -1);
    const int steps = g.max_step() + 1;
    step_total.assign(steps, 0);
    step_done.assign(steps, 0);
    remaining = n;

    // Per-comm FIFO threading: a graph touches a handful of communicators
    // (intra/mid/inter), so a flat {ctx, last node} vector with a linear
    // scan beats a hash map on every shape we build.
    std::vector<std::pair<int, int>> last_on_ctx;
    for (int i = 0; i < n; ++i) {
      const TaskNode& node = g.nodes[i];
      deps_left[i] = static_cast<int>(node.deps.size());
      for (int d : node.deps) dependents[d].push_back(i);
      ++step_total[node.step];
      if (node.comm != nullptr) {
        const int ctx = node.comm->context();
        bool found = false;
        for (auto& [c, last] : last_on_ctx) {
          if (c == ctx) {
            ctx_prev[i] = last;
            last = i;
            found = true;
            break;
          }
        }
        if (!found) last_on_ctx.emplace_back(ctx, i);
      }
    }
    while (frontier < steps && step_done[frontier] == step_total[frontier]) {
      ++frontier;
    }

    if (m->inflight == nullptr) {
      obs::MetricsRegistry& reg = rt->world().metrics();
      m->inflight = &reg.gauge("han.task.inflight");
      m->issued = &reg.counter("han.task.issued");
      m->completed = &reg.counter("han.task.completed");
      m->graphs = &reg.counter("han.task.graphs");
      m->nodes = &reg.counter("han.task.nodes");
    }
    for (const TaskNode& node : g.nodes) {
      auto& slot = m->per_op[static_cast<int>(node.op)];
      if (slot == nullptr) {
        slot = &rt->world().metrics().counter(std::string("han.task.op.") +
                                              op_name(node.op));
      }
    }
    m->graphs->add(1.0);
    m->nodes->add(static_cast<double>(n));
  }

  bool issuable(int i) const {
    return !issued[i] && deps_left[i] == 0 &&
           g.nodes[i].step < frontier + window &&
           (ctx_prev[i] < 0 || issued[ctx_prev[i]]);
  }

  /// Issue everything currently issuable, in emission order. A single
  /// forward pass suffices: issuing node i can only unblock (via the
  /// per-comm FIFO) nodes emitted after it.
  void pump() {
    for (int i = 0; i < static_cast<int>(g.nodes.size()); ++i) {
      if (!issuable(i)) continue;
      issued[i] = 1;
      m->issued->add(1.0);
      m->per_op[static_cast<int>(g.nodes[i].op)]->add(1.0);
      const double t0 = rt->world().now();
      m->inflight->add(t0, 1.0);
      mpi::Request req = dispatch(rt->world().engine(), g.nodes[i]);
      HAN_ASSERT_MSG(req != nullptr, "task issue returned a null request");
      req->on_complete([self = shared_from_this(), i, t0] {
        self->finish(i, t0);
      });
    }
  }

  void finish(int i, double t0) {
    const double now = rt->world().now();
    m->inflight->add(now, -1.0);
    m->completed->add(1.0);
    if (sim::Tracer* tr = rt->tracer()) {
      const TaskNode& node = g.nodes[i];
      const std::string name = std::string("task.") + level_name(node.level) +
                               "." + op_name(node.op);
      tr->span(trace_rank, "han.task", name, t0, now,
               rt->world().rank(trace_rank).node);
    }
    ++step_done[g.nodes[i].step];
    const int steps = static_cast<int>(step_total.size());
    while (frontier < steps && step_done[frontier] == step_total[frontier]) {
      ++frontier;
    }
    for (int j : dependents[i]) --deps_left[j];
    if (--remaining == 0) {
      g.temps.clear();
      done->complete();
      return;
    }
    pump();
  }
};

}  // namespace

mpi::Request TaskScheduler::run(TaskGraph graph, int window, int trace_rank) {
  HAN_ASSERT_MSG(window >= 1, "scheduler window must be >= 1");
  const std::string defect = validate_graph(graph);
  HAN_ASSERT_MSG(defect.empty(), defect.c_str());
  mpi::Request done = mpi::make_request(rt_->world().engine());
  if (graph.empty()) {
    done->complete();  // degenerate: nothing to run
    return done;
  }
  auto exec = std::make_shared<Exec>();
  exec->rt = rt_;
  exec->m = &metrics_;
  exec->g = std::move(graph);
  exec->window = window;
  exec->trace_rank = trace_rank;
  exec->done = done;
  exec->init();
  exec->pump();
  return done;
}

}  // namespace han::task
