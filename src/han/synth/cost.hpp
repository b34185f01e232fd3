// Symbolic pruning costs for schedule synthesis (docs/SYNTHESIS.md).
//
// The synthesizer cannot afford to simulate every candidate, so each
// SynthSpec x HanConfig pair is first walked on an abstract node machine:
// one serial intra lane (the low communicator runs one collective at a
// time) and one serial inter lane per leader stripe (each leader drives
// its own up communicator). Task costs are affine in the segment length,
// scaled by the log-depth of the level's tree — abstract units, only the
// relative ordering matters. The walk replays the exact emission the
// ladder builder performs for a spec (same stage order, same lags, same
// dependency chain, same frontier/window gating as the TaskScheduler), in
// the spirit of autotune/costmodel.cpp's step-signature walks: the pruner
// and the builder cannot disagree about structure.
//
// Two points summarize a candidate: `lat` (makespan of a 2-segment
// pipeline — dominated by fill/drain and intra-step dependency chains)
// and `bw` (makespan at full segmentation — steady-state throughput).
// Candidates are pruned to the (lat, bw) pareto frontier; the survivors
// are ranked by the deterministic simulator, never by this model.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "han/config.hpp"
#include "han/synth/spec.hpp"

namespace han::synth {

struct CostPoint {
  double lat = 0.0;  // fill-sensitive makespan (u = 2), abstract units
  double bw = 0.0;   // steady-state makespan (u = ceil(m / fs))

  friend bool operator==(const CostPoint&, const CostPoint&) = default;

  /// Strict pareto dominance: at least as good on both axes, better on one.
  bool dominates(const CostPoint& o) const {
    return lat <= o.lat && bw <= o.bw && (lat < o.lat || bw < o.bw);
  }
};

/// Indices of the points no other point dominates, in ascending order.
/// Equal points do not dominate each other, so all copies of a frontier
/// point survive. A sort by (lat, bw) and one sweep: O(n log n). Costs
/// must not be NaN.
std::vector<std::size_t> pareto_frontier(std::span<const CostPoint> points);

/// Walk one candidate on the abstract machine. `nodes`/`ppn` give the
/// topology; cfg contributes fs (segment count) and window (step gating).
/// `numa` is the NUMA domain count per node: mid stages ("mr"/"mb",
/// docs/HIERARCHY.md) cost a cross-domain hop on the shared intra lane
/// (the memory bus serializes them with sr/sb), and cost nothing when
/// numa <= 1 — a flat walk is byte-identical to before the parameter
/// existed. `rails` is the machine's NIC count: a spec's rail stripe
/// (spec.sf, clamped to rails) divides the inter stages' byte term —
/// slices move in parallel on disjoint rails while the latency term is
/// paid once. At rails = 1 the walk is byte-identical to the pre-rail
/// model.
CostPoint symbolic_cost(const SynthSpec& spec, const core::HanConfig& cfg,
                        int nodes, int ppn, std::size_t msg_bytes,
                        int numa = 1, int rails = 1);

}  // namespace han::synth
