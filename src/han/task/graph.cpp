#include "han/task/graph.hpp"

#include <cstring>

#include "han/hierarchy.hpp"

namespace han::task {

const char* level_name(Level level) {
  switch (level) {
    case Level::Intra: return "intra";
    case Level::Mid: return "mid";
    case Level::Inter: return "inter";
  }
  return "?";
}

const char* op_name(Op op) {
  switch (op) {
    case Op::Bcast: return "bcast";
    case Op::Reduce: return "reduce";
    case Op::Allreduce: return "allreduce";
    case Op::Gather: return "gather";
    case Op::Scatter: return "scatter";
    case Op::Allgather: return "allgather";
    case Op::ReduceScatter: return "reduce_scatter";
    case Op::Barrier: return "barrier";
  }
  return "?";
}

const mpi::Comm* RankView::comm(int tier) const {
  return h->comm(level[tier], me);
}

int RankView::rank(int tier) const { return h->rank(level[tier], me); }

int RankView::root_rank(int tier, int stripe) const {
  return h->rank(level[tier], stripe == 0 ? root : stripe);
}

int GraphShape::add(const ShapeNode& node, std::initializer_list<int> prereqs) {
  nodes.push_back(node);
  for (int d : prereqs) {
    if (d >= 0) deps.push_back(d);
  }
  deps_begin.push_back(static_cast<int>(deps.size()));
  return static_cast<int>(nodes.size()) - 1;
}

BufRef GraphShape::temp(bool allocate, std::size_t bytes, mpi::Datatype t) {
  if (!allocate || bytes == 0) return BufRef::timing_only(bytes, t);
  temps.push_back(bytes);
  return {Arena::Temp, static_cast<int>(temps.size()) - 1, 0, bytes, t};
}

namespace {

mpi::BufView bind_buf(const BufRef& r, mpi::BufView send, mpi::BufView recv,
                      std::vector<std::vector<std::byte>>& temps) {
  std::byte* base = nullptr;
  switch (r.arena) {
    case Arena::None: break;
    case Arena::Send: base = send.data; break;
    case Arena::Recv: base = recv.data; break;
    case Arena::Temp:
      base = temps[static_cast<std::size_t>(r.temp)].data();
      break;
  }
  return {base == nullptr ? nullptr : base + r.offset, r.bytes, r.dtype};
}

/// Kahn's algorithm plus the per-node checks, over node accessors:
/// `has_call(i)` (module and communicator named), `step(i)`, `deps(i)`.
template <typename HasCall, typename Step, typename Deps>
std::string validate_nodes(int n, HasCall has_call, Step step, Deps deps) {
  std::vector<int> indegree(n, 0);
  for (int i = 0; i < n; ++i) {
    if (!has_call(i)) {
      return "node " + std::to_string(i) + " has no module / comm";
    }
    if (step(i) < 0) {
      return "node " + std::to_string(i) + " has negative step " +
             std::to_string(step(i));
    }
    for (int d : deps(i)) {
      if (d < 0 || d >= n) {
        return "node " + std::to_string(i) + " depends on out-of-range node " +
               std::to_string(d);
      }
      if (d == i) return "node " + std::to_string(i) + " depends on itself";
      ++indegree[i];
    }
  }
  // Kahn's algorithm: every node must be reachable from the dep-free set.
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<std::vector<int>> dependents(n);
  for (int i = 0; i < n; ++i) {
    for (int d : deps(i)) dependents[d].push_back(i);
  }
  int visited = 0;
  while (!ready.empty()) {
    const int i = ready.back();
    ready.pop_back();
    ++visited;
    for (int j : dependents[i]) {
      if (--indegree[j] == 0) ready.push_back(j);
    }
  }
  if (visited != n) {
    return "dependency cycle among " + std::to_string(n - visited) +
           " of " + std::to_string(n) + " nodes";
  }
  return "";
}

}  // namespace

TaskNode bind_node(const GraphShape& shape, int i, const RankView& view,
                   mpi::BufView send, mpi::BufView recv,
                   std::vector<std::vector<std::byte>>& temps) {
  const ShapeNode& s = shape.nodes[static_cast<std::size_t>(i)];
  TaskNode n;
  n.op = s.op;
  n.level = s.level;
  n.step = s.step;
  n.mod = s.mod;
  n.comm = view.comm(s.tier);
  n.me = view.rank(s.tier);
  n.root = s.stripe == ShapeNode::kRootless ? 0
                                            : view.root_rank(s.tier, s.stripe);
  n.send = bind_buf(s.send, send, recv, temps);
  n.recv = bind_buf(s.recv, send, recv, temps);
  n.dtype = s.dtype;
  n.rop = s.rop;
  n.cfg = s.cfg;
  n.sf = s.sf;
  n.stride = s.stride;
  return n;
}

TaskGraph bind(const GraphShape& shape, const RankView& view,
               mpi::BufView send, mpi::BufView recv) {
  TaskGraph g;
  for (std::size_t bytes : shape.temps) g.temps.emplace_back(bytes);
  g.nodes.reserve(shape.nodes.size());
  for (int i = 0; i < static_cast<int>(shape.nodes.size()); ++i) {
    TaskNode n = bind_node(shape, i, view, send, recv, g.temps);
    const std::span<const int> deps = shape.deps_of(i);
    n.deps.assign(deps.begin(), deps.end());
    g.add(std::move(n));
  }
  copy_through(shape, send, recv);
  return g;
}

void copy_through(const GraphShape& shape, mpi::BufView send,
                  mpi::BufView recv) {
  if (shape.copy && send.has_data() && recv.has_data()) {
    std::memcpy(recv.data, send.data, send.bytes);
  }
}

std::string validate_graph(const TaskGraph& graph) {
  return validate_nodes(
      static_cast<int>(graph.nodes.size()),
      [&](int i) {
        return graph.nodes[i].mod != nullptr && graph.nodes[i].comm != nullptr;
      },
      [&](int i) { return graph.nodes[i].step; },
      [&](int i) -> const std::vector<int>& { return graph.nodes[i].deps; });
}

std::string validate_shape(const GraphShape& shape, const RankView& view) {
  return validate_nodes(
      static_cast<int>(shape.nodes.size()),
      [&](int i) {
        const ShapeNode& n = shape.nodes[i];
        return n.mod != nullptr && n.tier >= 0 && n.tier < view.tiers &&
               view.comm(n.tier) != nullptr;
      },
      [&](int i) { return shape.nodes[i].step; },
      [&](int i) { return shape.deps_of(i); });
}

}  // namespace han::task
