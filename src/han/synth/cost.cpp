#include "han/synth/cost.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace han::synth {

namespace {

int ceil_log2(int n) {
  int bits = 0;
  for (int v = n - 1; v > 0; v >>= 1) ++bits;
  return std::max(bits, 1);
}

constexpr int kChainLen = static_cast<int>(kChain.size());

/// Replay the ladder builder's emission on the abstract machine and
/// return the makespan. Lane 0 is the shared intra lane (sr/sb and — the
/// memory bus serializes them — the mid stages mr/mb); lanes 1..k are the
/// per-leader inter lanes (stripe owner of segment i is i % k).
double walk(const SynthSpec& spec, int u, std::size_t seg_len, int window,
            int k, int nodes, int ppn, int numa, int sf) {
  // Affine per-task costs in abstract units; the log factor is the tree
  // depth of the level's collective, the byte slopes encode that the
  // inter fabric is the scarcer resource and the cross-domain bus sits
  // between it and the intra fabric.
  const double intra =
      ppn > 1 ? (1.0 + static_cast<double>(seg_len) / 65536.0) *
                    ceil_log2(ppn)
              : 0.0;
  // Rail striping moves the slices in parallel on disjoint rails: the
  // byte term divides by sf, the latency term is paid once (all slices
  // launch together). sf = 1 reproduces the pre-rail expression exactly.
  const double inter =
      (4.0 + static_cast<double>(seg_len) / (16384.0 * sf)) *
      ceil_log2(nodes);
  const double mid =
      numa > 1 ? (1.0 + static_cast<double>(seg_len) / 32768.0) *
                     ceil_log2(numa)
               : 0.0;

  // Which chain position each spec stage feeds from (nearest earlier
  // chain element present in the spec; -1 at the chain head).
  bool present[kChainLen] = {};
  for (const StageSlot& slot : spec.stages) {
    const int p = chain_pos(slot.role);
    if (p >= 0) present[p] = true;
  }

  std::vector<double> lane_free(1 + static_cast<std::size_t>(k), 0.0);
  // fin[p][i]: finish time of chain stage p on segment i (0 when the
  // stage is absent or degenerate — dependents then see no constraint,
  // matching the flat walk's behavior for skipped levels).
  std::vector<std::vector<double>> fin(
      kChainLen, std::vector<double>(static_cast<std::size_t>(u), 0.0));
  const int last = u - 1 + spec.max_lag();
  // Frontier gating: a task at step t may start only once every task of
  // steps <= t - window has finished (the TaskScheduler's window rule,
  // conservative against its forward-pump refinement).
  std::vector<double> step_max(static_cast<std::size_t>(last) + 1, 0.0);
  std::vector<double> gate(static_cast<std::size_t>(last) + 1, 0.0);

  double makespan = 0.0;
  for (int t = 0; t <= last; ++t) {
    gate[t] = t > 0 ? std::max(gate[t - 1], step_max[t - 1]) : 0.0;
    for (const StageSlot& slot : spec.stages) {
      const int i = t - slot.lag;
      if (i < 0 || i >= u) continue;
      const int p = chain_pos(slot.role);
      const bool is_intra = slot.role == "sr" || slot.role == "sb";
      const bool is_mid = slot.role == "mr" || slot.role == "mb";
      const double cost = is_intra ? intra : is_mid ? mid : inter;
      if (cost == 0.0) continue;  // degenerate level: no task emitted
      const std::size_t lane =
          is_intra || is_mid ? 0 : 1 + static_cast<std::size_t>(i % k);
      double start = lane_free[lane];
      if (t >= window) start = std::max(start, gate[t - window + 1]);
      for (int q = p - 1; q >= 0; --q) {
        if (present[q]) {
          start = std::max(start, fin[q][i]);
          break;
        }
      }
      const double done = start + cost;
      lane_free[lane] = done;
      fin[p][i] = done;
      step_max[t] = std::max(step_max[t], done);
      makespan = std::max(makespan, done);
    }
  }
  return makespan;
}

}  // namespace

std::vector<std::size_t> pareto_frontier(std::span<const CostPoint> points) {
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const CostPoint& pa = points[a];
    const CostPoint& pb = points[b];
    return pa.lat != pb.lat ? pa.lat < pb.lat : pa.bw < pb.bw;
  });
  // A point survives iff its bw is below every bw at a smaller lat and
  // equal to the smallest bw at its own lat.
  std::vector<char> keep(points.size(), 0);
  double best_below = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < order.size();) {
    const double lat = points[order[g]].lat;
    const double group_min = points[order[g]].bw;
    std::size_t end = g;
    for (; end < order.size() && points[order[end]].lat == lat; ++end) {
      const double bw = points[order[end]].bw;
      keep[order[end]] = bw == group_min && bw < best_below;
    }
    best_below = std::min(best_below, group_min);
    g = end;
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (keep[i]) out.push_back(i);
  }
  return out;
}

CostPoint symbolic_cost(const SynthSpec& spec, const core::HanConfig& cfg,
                        int nodes, int ppn, std::size_t msg_bytes,
                        int numa, int rails) {
  const std::size_t m = std::max<std::size_t>(msg_bytes, 1);
  const std::size_t fs = std::max<std::size_t>(cfg.fs, 1);
  const int u = static_cast<int>((m + fs - 1) / fs);
  const std::size_t seg = (m + static_cast<std::size_t>(u) - 1) /
                          static_cast<std::size_t>(u);
  const int k = std::max(1, std::min(spec.leaders, ppn));
  const int sf = std::max(1, std::min(spec.sf, std::max(1, rails)));

  CostPoint c;
  c.lat =
      walk(spec, std::min(u, 2), seg, cfg.window, k, nodes, ppn, numa, sf);
  c.bw = walk(spec, u, seg, cfg.window, k, nodes, ppn, numa, sf);
  return c;
}

}  // namespace han::synth
