// TaskGraph-level deadlock analysis, parameterized by the scheduler
// window. Models the TaskScheduler's issue rules (data deps, per-comm
// FIFO, step window) per rank plus rendezvous-conservative cross-rank
// collective-instance matching, then searches the combined wait-for graph
// for cycles. The edge list of everything but the window gates is built
// once per case; each analyzed window appends its barrier successors and
// sorts the list into a flat graph. See verify.hpp for the model and
// docs/VERIFICATION.md for the algorithm.
#include "han/verify/verify.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "han/task/graph.hpp"
#include "han/verify/internal.hpp"

namespace han::verify {

namespace {

using internal::FlatGraph;

std::string graph_op_name(int op) {
  if (op >= 0 && op <= static_cast<int>(task::Op::Barrier)) {
    return task::op_name(static_cast<task::Op>(op));
  }
  return "op" + std::to_string(op);
}

}  // namespace

GraphSummary summarize(const task::TaskGraph& graph, int world_rank) {
  GraphSummary s;
  s.world_rank = world_rank;
  s.nodes.reserve(graph.nodes.size());
  for (const task::TaskNode& node : graph.nodes) {
    GraphNodeSummary n;
    n.step = node.step;
    n.op = static_cast<int>(node.op);
    n.deps = node.deps;
    if (node.comm != nullptr) {
      n.ctx = node.comm->context();
      n.members.assign(node.comm->world_ranks().begin(),
                       node.comm->world_ranks().end());
    }
    s.nodes.push_back(std::move(n));
  }
  return s;
}

std::vector<Report> analyze_task_graphs(
    const std::vector<GraphSummary>& graphs, std::span<const int> windows,
    const Options& opts) {
  if (windows.empty()) return {};

  // Deterministic rank order; a rank is addressed by its position in it.
  const int num_ranks = static_cast<int>(graphs.size());
  std::vector<int> order(graphs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return graphs[a].world_rank < graphs[b].world_rank;
  });
  auto rank_at = [&](int p) -> const GraphSummary& {
    return graphs[order[p]];
  };
  auto position_of = [&](int world_rank) {
    const auto it = std::lower_bound(
        order.begin(), order.end(), world_rank,
        [&](int gi, int r) { return graphs[gi].world_rank < r; });
    return it != order.end() && graphs[*it].world_rank == world_rank
               ? static_cast<int>(it - order.begin())
               : -1;
  };

  // Event layout: per rank, 2 events per node (issue = base + 2j,
  // completion = base + 2j + 1) followed by one "steps <= s all complete"
  // barrier event per pipeline step.
  Report common;
  std::vector<int> node_base(graphs.size(), 0);
  std::vector<int> barrier_base(graphs.size(), 0);
  std::vector<int> num_steps(graphs.size(), 0);
  int num_events = 0;
  for (int p = 0; p < num_ranks; ++p) {
    const GraphSummary& g = rank_at(p);
    int max_step = -1;
    for (const GraphNodeSummary& n : g.nodes) {
      max_step = std::max(max_step, n.step);
    }
    num_steps[p] = max_step + 1;
    node_base[p] = num_events;
    num_events += 2 * static_cast<int>(g.nodes.size());
    barrier_base[p] = num_events;
    num_events += num_steps[p];
    common.actions += static_cast<int>(g.nodes.size());
  }
  auto issue_ev = [&](int p, int j) { return node_base[p] + 2 * j; };
  auto comp_ev = [&](int p, int j) { return node_base[p] + 2 * j + 1; };

  // The shared edges: every wait-for edge but the barrier successors,
  // which are the only ones that depend on the window. A vertex's
  // out-edges keep the order the scheduler rules add them in: per rank
  // issue -> completion, data deps and completion -> own step's barrier,
  // then the per-context FIFO and instance edges below. `at_step` maps
  // barrier event B(s) to the issue events of the rank's step-s nodes, in
  // node order: the gate targets of B(s - w) at window w.
  std::vector<std::pair<int, int>> edges;
  std::vector<std::pair<int, int>> at_step;
  struct CtxNode {
    int ctx, pos, node;
  };
  std::vector<CtxNode> ctx_nodes;
  edges.reserve(static_cast<std::size_t>(common.actions) * 4);
  at_step.reserve(static_cast<std::size_t>(common.actions));
  ctx_nodes.reserve(static_cast<std::size_t>(common.actions));
  for (int p = 0; p < num_ranks; ++p) {
    const GraphSummary& g = rank_at(p);
    for (int j = 0; j < static_cast<int>(g.nodes.size()); ++j) {
      const GraphNodeSummary& n = g.nodes[j];
      edges.emplace_back(issue_ev(p, j), comp_ev(p, j));
      for (int d : n.deps) edges.emplace_back(comp_ev(p, d), issue_ev(p, j));
      if (n.ctx >= 0) ctx_nodes.push_back({n.ctx, p, j});
      // Window gating: node at step s cannot issue until every step
      // <= s - window completed on this rank (B(s - window) -> issue,
      // added per window); B(s) waits on the node's completion.
      edges.emplace_back(comp_ev(p, j), barrier_base[p] + n.step);
      at_step.emplace_back(barrier_base[p] + n.step, issue_ev(p, j));
    }
  }

  // Per context in ascending order, each rank's nodes on it in node order.
  std::sort(ctx_nodes.begin(), ctx_nodes.end(),
            [](const CtxNode& x, const CtxNode& y) {
              return std::tie(x.ctx, x.pos, x.node) <
                     std::tie(y.ctx, y.pos, y.node);
            });
  // Per-comm FIFO (mirrors the scheduler): a rank issues its nodes on one
  // context in node order.
  for (std::size_t i = 1; i < ctx_nodes.size(); ++i) {
    const CtxNode& a = ctx_nodes[i - 1];
    const CtxNode& b = ctx_nodes[i];
    if (a.ctx == b.ctx && a.pos == b.pos) {
      edges.emplace_back(issue_ev(a.pos, a.node), issue_ev(b.pos, b.node));
    }
  }

  // Cross-rank collective-instance matching: the k-th node on context c
  // forms one instance across the member ranks; a rank's part cannot
  // complete before every member issued theirs.
  struct Member {
    int rank, pos;
    const CtxNode* seq;  // this rank's nodes on the context
    int count;
  };
  auto members_of = [&](const CtxNode& c) -> const std::vector<int>& {
    return rank_at(c.pos).nodes[c.node].members;
  };
  std::vector<Member> present;
  for (auto first = ctx_nodes.begin(), last = first; first != ctx_nodes.end();
       first = last) {
    const int ctx = first->ctx;
    last = std::find_if(first, ctx_nodes.end(),
                        [&](const CtxNode& c) { return c.ctx != ctx; });
    // Member ranks we have a graph for (a member absent from `graphs` is
    // outside the analysis scope, e.g. a partial sweep). Members come from
    // the context's first node that names any.
    const auto named = std::find_if(first, last, [&](const CtxNode& c) {
      return !members_of(c).empty();
    });
    if (named == last) continue;
    present.clear();
    for (int r : members_of(*named)) {
      const int pos = position_of(r);
      if (pos < 0) continue;
      const auto [lo, hi] = std::equal_range(
          first, last, CtxNode{ctx, pos, 0},
          [](const CtxNode& x, const CtxNode& y) { return x.pos < y.pos; });
      present.push_back({r, pos, ctx_nodes.data() + (lo - ctx_nodes.begin()),
                         static_cast<int>(hi - lo)});
    }
    if (present.empty()) continue;
    const Member& m0 = present.front();
    int min_count = m0.count;
    for (const Member& m : present) {
      min_count = std::min(min_count, m.count);
      if (m.count != m0.count) {
        Finding f;
        f.code = Diag::CollectiveCountMismatch;
        f.severity = Severity::Error;
        f.rank_a = m0.rank;
        f.rank_b = m.rank;
        f.message = "context " + std::to_string(ctx) + ": rank " +
                    std::to_string(m0.rank) + " runs " +
                    std::to_string(m0.count) +
                    " collectives but member rank " + std::to_string(m.rank) +
                    " runs " + std::to_string(m.count);
        common.findings.push_back(std::move(f));
      }
    }
    // Op-sequence agreement over the common prefix.
    for (int k = 0; k < min_count; ++k) {
      const int op0 = rank_at(m0.pos).nodes[m0.seq[k].node].op;
      for (const Member& m : present) {
        const int j = m.seq[k].node;
        const int op = rank_at(m.pos).nodes[j].op;
        if (op != op0) {
          Finding f;
          f.code = Diag::CollectiveOrderMismatch;
          f.severity = Severity::Error;
          f.rank_a = m0.rank;
          f.index_a = m0.seq[k].node;
          f.rank_b = m.rank;
          f.index_b = j;
          f.message = "context " + std::to_string(ctx) + " collective " +
                      std::to_string(k) + ": rank " +
                      std::to_string(m0.rank) + " issues " +
                      graph_op_name(op0) + " but rank " +
                      std::to_string(m.rank) + " issues " +
                      graph_op_name(op);
          common.findings.push_back(std::move(f));
        }
      }
    }
    common.match_edges += min_count;
    for (int k = 0; k < min_count; ++k) {
      for (const Member& m : present) {
        for (const Member& m2 : present) {
          if (m2.rank == m.rank) continue;
          edges.emplace_back(issue_ev(m2.pos, m2.seq[k].node),
                             comp_ev(m.pos, m.seq[k].node));
        }
      }
    }
  }

  // Windows in ascending order (clamped to >= 1). A window with no wait
  // cycle stays clean at every wider window (docs/VERIFICATION.md), so
  // the tightest clean window's report serves all wider ones.
  std::vector<int> clamped(windows.begin(), windows.end());
  for (int& w : clamped) w = std::max(w, 1);
  std::vector<int> ascending = clamped;
  std::sort(ascending.begin(), ascending.end());
  ascending.erase(std::unique(ascending.begin(), ascending.end()),
                  ascending.end());
  std::vector<Report> reports(ascending.size(), common);
  if (opts.check_deadlock) {
    const FlatGraph gates = FlatGraph::from_edges(num_events, at_step);
    const std::size_t num_shared = edges.size();
    auto describe = [&](int ev, Finding* f) {
      // Recover (rank, node/barrier) from the event id.
      for (int p = 0; p < num_ranks; ++p) {
        const GraphSummary& g = rank_at(p);
        if (ev >= node_base[p] && ev < barrier_base[p]) {
          const int j = (ev - node_base[p]) / 2;
          const bool completion = ((ev - node_base[p]) % 2) != 0;
          f->cycle.push_back({g.world_rank, j, completion});
          const GraphNodeSummary& n = g.nodes[j];
          return "rank " + std::to_string(g.world_rank) + " task " +
                 std::to_string(j) + " (" + graph_op_name(n.op) + " step " +
                 std::to_string(n.step) +
                 (n.ctx >= 0 ? " ctx " + std::to_string(n.ctx) : "") +
                 (completion ? ") completion" : ") issue");
        }
        if (ev >= barrier_base[p] && ev < barrier_base[p] + num_steps[p]) {
          return "rank " + std::to_string(g.world_rank) + " step " +
                 std::to_string(ev - barrier_base[p]) + " barrier";
        }
      }
      return std::string("event ") + std::to_string(ev);
    };
    for (std::size_t i = 0; i < ascending.size(); ++i) {
      const int window = ascending[i];
      // The window-w graph: the shared edges plus each barrier B(b)'s
      // successors, the issue events of the step-(b + w) nodes and then
      // B(b + 1).
      edges.resize(num_shared);
      for (int p = 0; p < num_ranks; ++p) {
        for (int s = 0; s < num_steps[p]; ++s) {
          const int b = barrier_base[p] + s;
          // Compared without adding: s + window overflows for windows
          // near INT_MAX.
          if (window < num_steps[p] - s) {
            for (int v : gates.out(b + window)) edges.emplace_back(b, v);
          }
          if (s + 1 < num_steps[p]) edges.emplace_back(b, b + 1);
        }
      }
      const FlatGraph wait = FlatGraph::from_edges(num_events, edges);

      int num_comp = 0;
      const std::vector<int> comp = internal::tarjan_scc(wait, &num_comp);
      std::vector<int> scc_size(num_comp, 0), scc_min(num_comp, num_events);
      for (int v = 0; v < num_events; ++v) {
        ++scc_size[comp[v]];
        scc_min[comp[v]] = std::min(scc_min[comp[v]], v);
      }
      int reported = 0;
      for (int c = 0; c < num_comp && reported < 4; ++c) {
        if (scc_size[c] < 2) continue;
        ++reported;
        const std::vector<int> cyc =
            internal::witness_cycle(wait, comp, scc_min[c]);
        Finding f;
        f.code = Diag::GraphWaitCycle;
        f.severity = Severity::Error;
        std::string msg = "window " + std::to_string(window) +
                          ": wait cycle of " + std::to_string(cyc.size()) +
                          " events: ";
        for (std::size_t e = 0; e < cyc.size(); ++e) {
          if (e > 0) msg += " -> ";
          msg += describe(cyc[e], &f);
        }
        f.message = std::move(msg);
        reports[i].findings.push_back(std::move(f));
      }
      if (reported == 0) break;  // reports[i + 1 ..] already equal common
    }
  }

  std::vector<Report> out;
  out.reserve(clamped.size());
  for (int w : clamped) {
    out.push_back(reports[std::lower_bound(ascending.begin(), ascending.end(),
                                           w) -
                          ascending.begin()]);
  }
  return out;
}

Report analyze_task_graphs(const std::vector<GraphSummary>& graphs,
                           int window, const Options& opts) {
  return std::move(
      analyze_task_graphs(graphs, std::span<const int>(&window, 1), opts)
          .front());
}

}  // namespace han::verify
