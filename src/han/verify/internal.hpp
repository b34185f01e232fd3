// Shared graph machinery for the verify analyses: memoized reachability,
// the flat wait-for graph with its iterative Tarjan SCC, and shortest-cycle
// witness extraction. Internal to src/han/verify/ — not part of the public
// API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

namespace han::verify::internal {

/// Flat (CSR) digraph: the out-edges of vertex v are
/// targets[offsets[v] .. offsets[v + 1]), in the order they were added.
/// Tarjan's component numbering and the BFS witness follow that order, so
/// it is part of every cycle report.
struct FlatGraph {
  std::vector<int> offsets{0};
  std::vector<int> targets;

  int size() const { return static_cast<int>(offsets.size()) - 1; }
  std::span<const int> out(int v) const {
    return {targets.data() + offsets[v],
            static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
  }

  /// Graph on vertices [0, n) from (source, target) pairs; every vertex
  /// keeps its out-edges in list order (stable counting sort by source).
  static FlatGraph from_edges(int n,
                              std::span<const std::pair<int, int>> edges) {
    FlatGraph g;
    g.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& e : edges) ++g.offsets[e.first + 1];
    for (int v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
    g.targets.resize(edges.size());
    std::vector<int> fill(g.offsets.begin(), g.offsets.end() - 1);
    for (const auto& e : edges) g.targets[fill[e.first]++] = e.second;
    return g;
  }
};

/// Memoizing forward-reachability oracle over an event digraph.
class ReachOracle {
 public:
  explicit ReachOracle(const std::vector<std::vector<int>>& adj)
      : adj_(&adj), words_((adj.size() + 63) / 64) {}

  bool reaches(int from, int to) {
    const std::vector<std::uint64_t>& bits = closure(from);
    return get_bit(bits, to);
  }

 private:
  const std::vector<std::uint64_t>& closure(int from) {
    auto it = cache_.find(from);
    if (it != cache_.end()) return it->second;
    std::vector<std::uint64_t> bits(words_, 0);
    std::vector<int> stack{from};
    set_bit(bits, from);
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (int w : (*adj_)[v]) {
        if (!get_bit(bits, w)) {
          set_bit(bits, w);
          stack.push_back(w);
        }
      }
    }
    return cache_.emplace(from, std::move(bits)).first->second;
  }

  static void set_bit(std::vector<std::uint64_t>& bits, int i) {
    bits[static_cast<std::size_t>(i) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(i) % 64);
  }
  static bool get_bit(const std::vector<std::uint64_t>& bits, int i) {
    return (bits[static_cast<std::size_t>(i) / 64] >>
            (static_cast<std::size_t>(i) % 64)) & 1u;
  }

  const std::vector<std::vector<int>>* adj_;
  std::size_t words_;
  std::map<int, std::vector<std::uint64_t>> cache_;
};

/// Iterative Tarjan SCC; returns the component id of every node, with
/// components numbered in deterministic (reverse topological) order.
inline std::vector<int> tarjan_scc(const FlatGraph& g, int* num_components) {
  const int n = g.size();
  std::vector<int> index(n, -1), low(n, 0), comp(n, -1);
  std::vector<char> on_stack(n, 0);
  std::vector<int> stack;
  int next_index = 0, next_comp = 0;

  struct Frame {
    int v;
    int edge;  // next out-edge position in g.targets
  };
  std::vector<Frame> frames;
  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    frames.push_back({root, g.offsets[root]});
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < g.offsets[f.v + 1]) {
        const int w = g.targets[f.edge++];
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w, g.offsets[w]});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        const int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
        if (low[v] == index[v]) {
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            comp[w] = next_comp;
            if (w == v) break;
          }
          ++next_comp;
        }
      }
    }
  }
  *num_components = next_comp;
  return comp;
}

/// Shortest cycle through `start` staying inside its SCC (BFS). The SCC is
/// nontrivial, so a cycle exists.
inline std::vector<int> witness_cycle(const FlatGraph& g,
                                      const std::vector<int>& comp,
                                      int start) {
  const int n = g.size();
  std::vector<int> parent(n, -2);
  std::vector<int> queue{start};
  parent[start] = -1;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int v = queue[qi];
    for (int w : g.out(v)) {
      if (comp[w] != comp[start]) continue;
      if (w == start) {
        std::vector<int> cycle{start};
        for (int x = v; x != -1; x = parent[x]) cycle.push_back(x);
        std::reverse(cycle.begin() + 1, cycle.end());
        return cycle;
      }
      if (parent[w] == -2) {
        parent[w] = v;
        queue.push_back(w);
      }
    }
  }
  return {start};  // unreachable for a nontrivial SCC
}

}  // namespace han::verify::internal
