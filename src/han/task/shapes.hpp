// Pipeline shapes shared by the graph builders and the cost model.
//
// A HAN collective's stepped pipeline is fully described by an ordered
// stage list: stage s contributes the task for segment (t - lag_s) at
// step t. The list order is the per-step emission order (which fixes the
// FIFO order on the NIC / copy lanes, so it is semantically meaningful).
// task/builders.cpp maps each emitted (step, stage, seg) to a task
// record; autotune/costmodel.cpp walks the identical emission to sum
// benchmarked task costs along the critical path — the executor and the
// predictor can never disagree about structure.
#pragma once

#include <cstddef>
#include <vector>

#include "coll/builders.hpp"
#include "han/task/graph.hpp"

namespace han::task {

struct StageSpec {
  const char* role;  // "sr" | "ir" | "ib" | "sb" | "mr" | "mb"
  Op op;
  Level level;
  int lag;            // segment index at step t is t - lag
  bool enabled = true;
  int tier = 0;       // ladder level index (0 = innermost) for n-level shapes
};

inline int shape_steps(const std::vector<StageSpec>& stages, int u) {
  int max_lag = 0;
  for (const StageSpec& s : stages) {
    if (s.enabled && s.lag > max_lag) max_lag = s.lag;
  }
  return u + max_lag;  // steps run 0 .. u-1+max_lag
}

/// Invoke fn(step, stage, seg) for every task of the stepped pipeline, in
/// step order and, within a step, in stage-list order.
template <typename Fn>
void for_each_task(const std::vector<StageSpec>& stages, int u, Fn&& fn) {
  const int last = shape_steps(stages, u) - 1;
  for (int t = 0; t <= last; ++t) {
    for (const StageSpec& s : stages) {
      const int seg = t - s.lag;
      if (s.enabled && seg >= 0 && seg < u) fn(t, s, seg);
    }
  }
}

// --- canonical HAN shapes --------------------------------------------------
// Stage order within a step mirrors the paper's task sequences (and the
// seed implementation's issue order exactly).

/// Bcast leader (Fig. 1): ib(0); sbib(1..u-1); sb(u-1).
inline std::vector<StageSpec> bcast_shape(bool has_intra) {
  return {{"sb", Op::Bcast, Level::Intra, 1, has_intra},
          {"ib", Op::Bcast, Level::Inter, 0, true}};
}

/// Bcast non-leader: the intra stage alone.
inline std::vector<StageSpec> bcast_follower_shape() {
  return {{"sb", Op::Bcast, Level::Intra, 0, true}};
}

/// Reduce leader: sr(0); irsr(1..u-1); ir(u-1).
inline std::vector<StageSpec> reduce_shape(bool has_intra) {
  return {{"ir", Op::Reduce, Level::Inter, 1, true},
          {"sr", Op::Reduce, Level::Intra, 0, has_intra}};
}

/// Allreduce leader (Fig. 5): the 4-stage sr → ir → ib → sb pipeline.
inline std::vector<StageSpec> allreduce_shape(bool has_intra) {
  return {{"sr", Op::Reduce, Level::Intra, 0, has_intra},
          {"ir", Op::Reduce, Level::Inter, 1, true},
          {"ib", Op::Bcast, Level::Inter, 2, true},
          {"sb", Op::Bcast, Level::Intra, 3, has_intra}};
}

/// Reduce-scatter tree path, pipeline part: sr ⊕ ir reducing the whole
/// vector to up-root 0 (the inter scatter + intra scatter tails are
/// appended by the builder / walked by the model separately).
inline std::vector<StageSpec> reduce_scatter_tree_shape(bool has_intra) {
  return reduce_shape(has_intra);
}

// --- n-level ladder shapes -------------------------------------------------
// Generalizations of the canonical shapes to a communicator ladder of
// depth d (hierarchy.hpp). Stage roles follow the seed's naming: level 0
// is "s*" (shared/leaf), the top level is "i*" (inter), every level in
// between is "m*" (mid). Depth 2 reproduces the canonical shapes above —
// including their per-step emission order — exactly; depth 3 reproduces
// the retired bcast3/allreduce3 shapes exactly.

inline const char* ladder_role(int l, int top, bool bcast) {
  if (l == 0) return bcast ? "sb" : "sr";
  if (l == top) return bcast ? "ib" : "ir";
  return bcast ? "mb" : "mr";
}

/// Rooted bcast over a depth-d ladder: ib(t) → mb(t-1) → … → sb(t-(d-1)).
/// Depth 2 keeps the canonical {sb, ib} per-step emission order of
/// bcast_shape (frozen by the seed goldens); deeper ladders emit top-down.
inline std::vector<StageSpec> bcast_ladder_shape(
    const std::vector<Level>& level, const std::vector<bool>& enabled) {
  const int d = static_cast<int>(level.size());
  if (d == 2) {
    return {{"sb", Op::Bcast, level[0], 1, enabled[0], 0},
            {"ib", Op::Bcast, level[1], 0, enabled[1], 1}};
  }
  std::vector<StageSpec> s;
  for (int l = d - 1; l >= 0; --l) {
    s.push_back({ladder_role(l, d - 1, /*bcast=*/true), Op::Bcast, level[l],
                 d - 1 - l, enabled[l], l});
  }
  return s;
}

/// Rooted reduce over a depth-d ladder: the mirror pipeline, emitted
/// top-down like reduce_shape: ir(t-(d-1)) … mr(t-1), sr(t) — stage at
/// level l lags by l. Depth 2 is reduce_shape exactly.
inline std::vector<StageSpec> reduce_ladder_shape(
    const std::vector<Level>& level, const std::vector<bool>& enabled) {
  const int d = static_cast<int>(level.size());
  std::vector<StageSpec> s;
  for (int l = d - 1; l >= 0; --l) {
    s.push_back({ladder_role(l, d - 1, /*bcast=*/false), Op::Reduce, level[l],
                 l, enabled[l], l});
  }
  return s;
}

/// Allreduce over a depth-d ladder: the reduce stages ascend the ladder
/// (sr → mr → … → ir, level l lagging l), then the bcast stages descend
/// (ib → mb → … → sb, level l lagging 2d-1-l). Depth 2 is the paper's
/// 4-stage sr → ir → ib → sb (allreduce_shape) exactly; depth 3 is the
/// retired allreduce3 6-stage pipeline exactly.
inline std::vector<StageSpec> allreduce_ladder_shape(
    const std::vector<Level>& level, const std::vector<bool>& enabled) {
  const int d = static_cast<int>(level.size());
  std::vector<StageSpec> s;
  for (int l = 0; l < d; ++l) {
    s.push_back({ladder_role(l, d - 1, /*bcast=*/false), Op::Reduce, level[l],
                 l, enabled[l], l});
  }
  for (int l = d - 1; l >= 0; --l) {
    s.push_back({ladder_role(l, d - 1, /*bcast=*/true), Op::Bcast, level[l],
                 2 * d - 1 - l, enabled[l], l});
  }
  return s;
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
