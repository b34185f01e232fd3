#include "han/task/graph.hpp"

#include <algorithm>

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

mpi::BufView TaskGraph::temp(bool data_mode, std::size_t bytes,
                             mpi::Datatype t) {
  if (!data_mode || bytes == 0) return mpi::BufView::timing_only(bytes, t);
  return mpi::BufView{temps.emplace_back(bytes).data(), bytes, t};
}

int TaskGraph::max_step() const {
  int m = -1;
  for (const TaskNode& n : nodes) m = std::max(m, n.step);
  return m;
}

std::string validate_graph(const TaskGraph& graph) {
  const int n = static_cast<int>(graph.nodes.size());
  std::vector<int> indegree(n, 0);
  for (int i = 0; i < n; ++i) {
    const TaskNode& node = graph.nodes[i];
    if (node.mod == nullptr || node.comm == nullptr) {
      return "node " + std::to_string(i) + " has no module / comm";
    }
    if (node.step < 0) {
      return "node " + std::to_string(i) + " has negative step " +
             std::to_string(node.step);
    }
    for (int d : node.deps) {
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
    for (int d : graph.nodes[i].deps) dependents[d].push_back(i);
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

}  // namespace han::task
