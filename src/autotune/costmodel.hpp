// The paper's cost models (equations 1-4).
//
// Cost of a collective = the longest completion among processes (the IMB /
// OSU definition). For Bcast (eq. 3):
//     max_i( T_i(ib(0)) + (u-1) * T_i(sbib(s)) + T_i(sb(u-1)) )
// For Allreduce (eq. 4):
//     max_i( T_i(sr(0)) + T_i(irsr(1)) + T_i(ibirsr(2))
//            + (u-3) * T_i(sbibirsr(s)) + T_i(sbibir) + T_i(sbib)
//            + T_i(sb) )
// where T_i are *benchmarked task costs* (taskbench.hpp), not analytic
// network parameters — the paper's central autotuning idea.
#pragma once

#include "autotune/taskbench.hpp"

namespace han::tune {

struct BcastTaskCosts {
  PerLeader ib0;          // T_i(ib(0))
  PerLeader sb0;          // T_i(sb(0)) ~= T_i(sb(u-1))
  PerLeader sbib_stable;  // T_i(sbib(s))
};

/// Benchmarked solo costs of the mid-level ladder tasks (derived n-level
/// hierarchies, docs/HIERARCHY.md): one mid-comm bcast/reduce of an fs
/// segment, timed per node leader like the flat tasks.
struct MidTaskCosts {
  PerLeader mb;  // T_i(mb(0))
  PerLeader mr;  // T_i(mr(0))
};

/// Eq. 3 on a depth-`depth` ladder. `u` = segment count of the modeled
/// message. The cost is a symbolic walk of the canonical bcast chain
/// (synth::canonical_chain) — the stage list the graph builders execute,
/// in the scheduler's lock-step pipeline, so exactly eq. 3 at depth 2. At
/// depth 3 (a NUMA ladder) a step's cost is the flat composite of its
/// ib/sb part plus the solo mid cost `mid->mb` whenever the mid stage is
/// active — it rides the cross-domain memory bus, not the NIC, so no
/// overlap is assumed. `mid` is read only at depth 3.
double bcast_model_cost(const BcastTaskCosts& costs, int u, int depth = 2,
                        const MidTaskCosts* mid = nullptr);

struct AllreduceTaskCosts {
  PerLeader sr0;              // T_i(sr(0))
  PerLeader irsr;             // T_i(irsr(1))
  PerLeader ibirsr;           // T_i(ibirsr(2))
  PerLeader sbibirsr_stable;  // T_i(sbibirsr(s))
  PerLeader sbibir;           // drain tasks
  PerLeader sbib;
  PerLeader sb;

  /// Extract from an instrumented pipeline trace (steps + 3 entries).
  static AllreduceTaskCosts from_trace(const PipelineTrace& trace);
};

/// Eq. 4 with the obvious clamping for u < 4 (fewer fill/drain steps than
/// the pipeline depth) — a symbolic walk of the canonical allreduce chain;
/// see bcast_model_cost for the depth semantics. At depth 3 the mid
/// reduce and mid bcast share the bus, priced as the mean of `mid->mr`
/// and `mid->mb`.
double allreduce_model_cost(const AllreduceTaskCosts& costs, int u,
                            int depth = 2, const MidTaskCosts* mid = nullptr);

/// Affine cost fit t(bytes) = base + per_byte * bytes from two sampled
/// points. The simulated fabric is linear in message size past the eager
/// threshold, so two samples pin the whole size axis — the reduce-scatter
/// model uses these for its scatter/ring tails, whose operand sizes (m,
/// the node region, a slice vector) are not multiples of fs.
struct AffineFit {
  double base = 0.0;
  double per_byte = 0.0;

  double at(std::size_t bytes) const {
    return base + per_byte * static_cast<double>(bytes);
  }
  static AffineFit from_points(std::size_t b1, double t1, std::size_t b2,
                               double t2);
};

/// Benchmarked task costs of the hierarchical reduce-scatter. The tree
/// path walks the flat reduce chain sr ⊕ ir (a reduce-only trace); the
/// ring path needs only sr plus the strided-ring and scatter fits.
struct ReduceScatterTaskCosts {
  PerLeader sr0;            // T_i(sr(0)): intra reduce of one fs segment
  PerLeader irsr_stable;    // T_i(irsr(s)): steady ir ∥ sr step (tree)
  PerLeader ir_tail;        // T_i(ir): drain step (tree)
  AffineFit inter_scatter;  // tree tail: inter scatter of the whole vector
  AffineFit intra_reduce;   // ring: one intra reduce vs piece size (the
                            // ring path's pieces are min(fs, region), not
                            // fs, so a fit beats a single sample)
  AffineFit inter_ring;     // ring reduce-scatter of a slice vector
  AffineFit intra_scatter;  // ss: scatter of the node region
};

/// Model cost of a reduce-scatter of `msg_bytes` under `cfg` on a
/// (nodes, ppn) hierarchy. Tree path:
///     max_i( sr(0) + (u-1)*irsr(s) + ir ) + isc(m) + ss(m/n)
/// Ring path (slices of min(fs, region) pipelining sr against the ring):
///     max_i( u*sr(0) ) + ring(n*slice) + ss(m/n)
double reduce_scatter_model_cost(const ReduceScatterTaskCosts& costs,
                                 const core::HanConfig& cfg,
                                 std::size_t msg_bytes, int nodes, int ppn);

}  // namespace han::tune
