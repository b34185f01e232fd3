// Pipeline stage lists as the graph builders and the cost model step them.
//
// A HAN collective's stepped pipeline is fully described by an ordered
// stage list — synth::canonical_chain's (or a cfg.sched spec's) roles and
// lags: stage s contributes the task for segment (t - lag_s) at step t.
// The list order is the per-step emission order (which fixes the FIFO
// order on the NIC / copy lanes, so it is semantically meaningful).
// task/builders.cpp maps each role onto a ladder tier (ladder_stages) and
// each emitted (step, stage, seg) to a task record;
// autotune/costmodel.cpp steps the same chain to sum benchmarked task
// costs along the critical path — the executor and the predictor can
// never disagree about structure.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "coll/builders.hpp"
#include "han/synth/spec.hpp"
#include "han/task/graph.hpp"

namespace han::task {

/// One stage resolved onto a ladder: the op and level of its tasks, its
/// lag, and the ladder tier (0 = innermost) it runs on.
struct StageSpec {
  Op op;
  Level level;
  int lag;  // segment index at step t is t - lag
  int tier;
};

/// Steps 0 .. shape_steps-1 of a u-segment pipeline (stages: any list of
/// records with a `lag`).
template <typename Stage>
int shape_steps(const std::vector<Stage>& stages, int u) {
  int max_lag = 0;
  for (const Stage& s : stages) max_lag = std::max(max_lag, s.lag);
  return u + max_lag;
}

/// Invoke fn(step, stage, seg) for every task of the stepped pipeline, in
/// step order and, within a step, in stage-list order.
template <typename Stage, typename Fn>
void for_each_task(const std::vector<Stage>& stages, int u, Fn&& fn) {
  const int last = shape_steps(stages, u) - 1;
  for (int t = 0; t <= last; ++t) {
    for (const Stage& s : stages) {
      const int seg = t - s.lag;
      if (seg >= 0 && seg < u) fn(t, s, seg);
    }
  }
}

/// Map a chain's roles onto a resolved ladder's tiers: s* runs on tier 0,
/// m* on the Mid tier, i* on the Inter tier. A role whose tier the ladder
/// lacks drops out (its dependents fall through to the nearest emitted
/// stage).
inline std::vector<StageSpec> ladder_stages(
    const std::vector<synth::StageSlot>& chain, std::span<const Level> tiers) {
  std::vector<StageSpec> out;
  out.reserve(chain.size());
  for (const synth::StageSlot& slot : chain) {
    int tier = -1;
    if (slot.role[0] == 's') {
      tier = 0;
    } else {
      const Level want = slot.role[0] == 'm' ? Level::Mid : Level::Inter;
      for (int l = 1; l < static_cast<int>(tiers.size()) && tier < 0; ++l) {
        if (tiers[l] == want) tier = l;
      }
    }
    if (tier < 0) continue;
    out.push_back({slot.role[1] == 'r' ? Op::Reduce : Op::Bcast, tiers[tier],
                   slot.lag, tier});
  }
  return out;
}

/// Bcast non-leader on the flat ladder: the intra stage alone, at lag 0.
inline std::vector<StageSpec> bcast_follower_shape() {
  return {{Op::Bcast, Level::Intra, 0, 0}};
}

/// Reduce-scatter ring path: the node region is cut into slices of
/// min(fs, region); slice k's strided inter-node ring overlaps slice
/// k+1's intra reduces. fn(k, off, len) per slice, in order.
template <typename Fn>
void for_each_ring_slice(std::size_t region, std::size_t fs,
                         mpi::Datatype dtype, Fn&& fn) {
  const coll::Segmenter sl(region, std::min(fs, region), dtype);
  for (int k = 0; k < sl.count(); ++k) fn(k, sl.offset(k), sl.length(k));
}

}  // namespace han::task
