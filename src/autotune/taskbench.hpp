// Task benchmarking (paper §III-A2/§III-B2): measure the cost of HAN's
// tasks — ib, sb, concurrent ib+sb, delayed-start sbib pipelines, and the
// allreduce task chain — instead of whole collectives.
//
// The key methodological points reproduced from the paper:
//  * ib(0) and sb(0) are timed with a simple synchronized loop.
//  * sbib must NOT be timed from a synchronized start: each leader is
//    delayed by its measured T_i(ib(0)) to reproduce the staggered entry
//    (Fig. 2's red vs green bars).
//  * The pipeline needs a few segments to fill; per-step costs stabilize
//    afterwards (Fig. 3), and the stabilized value feeds the cost model.
//
// Every benchmark is a list of stages, each a task::TaskNode (module, op,
// level, config, stripe factor) with a lag, run by one private runner
// that issues the nodes through the scheduler's task::dispatch — the
// executor's own issue path. For each iteration every rank arrives at one
// SyncDomain (a leader then waits its delay, sbib only) and runs the
// steps of the stepped pipeline: at step t it issues, in stage order, the
// node of every stage whose segment t - lag lies in [0, u). Intra stages
// run on every rank, inter stages on the node leaders, mid stages on
// ranks whose mid comm has two or more members. A rank awaits a lone
// request directly and several through wait_all, and skips a step with
// none; a leader records the step's duration at its top-level rank. The
// loop benchmarks are one-step stage lists averaged over their
// iterations; the pipelines are one iteration of `steps` segments.
//
// All benchmarks run in the caller's SimWorld; the simulated time they
// consume is the "tuning cost" the paper's Fig. 8 accounts.
//
// Memo: a TaskBench simulates each distinct run once. Its key is
// everything the runner reads: the hierarchy, every stage (its TaskNode
// under the defaulted ==, and its lag), the segment bytes, u, iters and
// the leader delays bit for bit. Configurations that differ only in axes
// a task never reads (fs for an intra scatter, the mid axes for a flat
// task) share its run. A repeat returns the stored trace without touching
// the world: it charges no simulated seconds (an identical measurement is
// not paid for twice), leaves the clock, tune.taskbench.runs and
// tune.taskbench.seconds alone, and counts tune.taskbench.reused. The memo
// lives as long as the TaskBench (one world, one comm, one tuning
// session); there is no process-wide cache.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "han/han.hpp"

namespace han::tune {

/// Per-leader (per-node) task costs, indexed by up-comm rank.
struct PerLeader {
  std::vector<double> t;  // seconds

  double max() const;
  double avg() const;
};

/// Per-step, per-leader costs of an instrumented pipeline run:
/// steps[i].t[leader] is the duration of step i on that leader.
struct PipelineTrace {
  std::vector<PerLeader> steps;

  /// Stabilized per-step cost per leader: mean of the last `tail` steps.
  PerLeader stabilized(int tail = 3) const;
};

class TaskBench {
 public:
  /// `han` supplies submodules and hierarchical comms over `comm`.
  TaskBench(mpi::SimWorld& world, core::HanModule& han,
            const mpi::Comm& comm);

  /// Simulated seconds consumed by all benchmarks so far (tuning cost).
  double elapsed_cost() const { return cost_; }

  // --- Bcast tasks (root = rank 0) --------------------------------------

  /// T_i(ib(0)): inter-node bcast of one segment, synchronized start.
  PerLeader bench_ib(const core::HanConfig& cfg, std::size_t seg_bytes,
                     int iters = 3);

  /// T_i(sb(0)): intra-node bcast of one segment on every node.
  PerLeader bench_sb(const core::HanConfig& cfg, std::size_t seg_bytes,
                     int iters = 3);

  /// Concurrent ib(0)+sb(0) from a synchronized start (Fig. 2 green bars —
  /// demonstrates imperfect overlap; not used by the model).
  PerLeader bench_concurrent_ib_sb(const core::HanConfig& cfg,
                                   std::size_t seg_bytes, int iters = 3);

  /// Delayed-start sbib pipeline of `steps` segments (Fig. 2 red bars /
  /// Fig. 3 trend). Leaders start staggered by `delay_by` (typically the
  /// measured T_i(ib(0))).
  PipelineTrace bench_sbib_pipeline(const core::HanConfig& cfg,
                                    std::size_t seg_bytes, int steps,
                                    const PerLeader& delay_by);

  // --- Allreduce tasks ---------------------------------------------------

  /// T_i(sr(0)): intra-node reduce of one segment.
  PerLeader bench_sr(const core::HanConfig& cfg, std::size_t seg_bytes,
                     int iters = 3);

  /// Instrumented leader pipeline of the allreduce task chain over
  /// `steps + 3` steps: step 0 = sr(0), 1 = irsr, 2 = ibirsr,
  /// 3.. = sbibirsr, tail = sbibir, sbib, sb.
  PipelineTrace bench_allreduce_pipeline(const core::HanConfig& cfg,
                                         std::size_t seg_bytes, int steps);

  // --- Mid-level ladder tasks (derived hierarchies) ----------------------

  /// T_i(mb(0)): one mid-level (cross-domain, in-node) bcast of a segment
  /// over every rank's mid sub-comm of the ladder `cfg` selects
  /// (docs/HIERARCHY.md), timed per node leader. Requires a ladder of
  /// depth >= 3. The zero-copy switchover is resolved against `seg_bytes`
  /// — the builders resolve it against the whole message, so modeled
  /// zcs > 0 configs are approximate.
  PerLeader bench_mb(const core::HanConfig& cfg, std::size_t seg_bytes,
                     int iters = 3);

  /// T_i(mr(0)): the mirror mid-level reduce.
  PerLeader bench_mr(const core::HanConfig& cfg, std::size_t seg_bytes,
                     int iters = 3);

  // --- Reduce-scatter tasks ----------------------------------------------

  /// Instrumented sr ⊕ ir reduce pipeline (the front half of the allreduce
  /// chain — reduce-scatter's tree path) over `steps + 1` steps:
  /// step 0 = sr(0), 1.. = irsr, tail = ir drain.
  PipelineTrace bench_reduce_pipeline(const core::HanConfig& cfg,
                                      std::size_t seg_bytes, int steps);

  /// Inter-node scatter of `bytes` from up-root 0 (the tree path's isc
  /// tail). One point of the AffineFit the model extrapolates with.
  PerLeader bench_inter_scatter(const core::HanConfig& cfg,
                                std::size_t bytes, int iters = 3);

  /// Ring reduce-scatter of `bytes` across the node leaders (the ring
  /// path's inter task).
  PerLeader bench_inter_ring_rs(const core::HanConfig& cfg,
                                std::size_t bytes, int iters = 3);

  /// Intra-node scatter of `bytes` from the node leader (the ss tail).
  PerLeader bench_intra_scatter(const core::HanConfig& cfg,
                                std::size_t bytes, int iters = 3);

  int leader_count() const { return leaders_; }

  mpi::SimWorld& world() { return *world_; }

 private:
  /// One stage of a benchmarked pipeline: `node` names the module call
  /// (the runner fills in comm, ranks and buffers per rank), issued for
  /// segment t - lag at step t.
  struct Stage {
    task::TaskNode node;
    int lag = 0;

    friend bool operator==(const Stage&, const Stage&) = default;
  };

  /// Everything the runner reads: the memo's key. The delays are bit
  /// patterns, so only a bitwise-equal delay vector matches.
  struct RunKey {
    const core::Hierarchy* hc = nullptr;
    std::vector<Stage> stages;
    std::size_t bytes = 0;
    int u = 0, iters = 0;
    std::optional<std::vector<std::uint64_t>> delay_bits;

    friend bool operator==(const RunKey&, const RunKey&) = default;
  };
  struct RunKeyHash {
    std::size_t operator()(const RunKey& k) const;
  };

  /// The runner (see the file comment): `iters` synchronized iterations
  /// of the stage list over `u` segments of `bytes` on `hc`, charged to
  /// the tuning cost unless the memo already holds the same run. Returns
  /// iters x steps entries, iteration-major.
  PipelineTrace run(const core::Hierarchy& hc,
                    const std::vector<Stage>& stages, std::size_t bytes,
                    int u, int iters, const PerLeader* delay_by = nullptr);

  /// The first `count` stages of the canonical flat allreduce chain as a
  /// pipeline of `steps` segments: 4 is the whole chain, 2 its sr ⊕ ir
  /// half.
  PipelineTrace allreduce_chain(const core::HanConfig& cfg,
                                std::size_t seg_bytes, int steps, int count);

  mpi::SimWorld* world_;
  core::HanModule* han_;
  const mpi::Comm* comm_;
  int leaders_ = 0;
  double cost_ = 0.0;
  /// Every trace run() simulated, flattened step-major (steps x leaders).
  std::unordered_map<RunKey, std::vector<double>, RunKeyHash> memo_;
};

}  // namespace han::tune
