// Plan builders for the classic collective algorithms.
//
// These are the fine-grained algorithms the submodules (tuned, Libnbc,
// ADAPT) assemble into MPI collectives: segmented tree broadcast/reduce,
// recursive-doubling allreduce, linear gather/scatter, and a dissemination
// barrier. The ring-pattern family is in coll/ring/ring_builders.hpp, the
// shared-memory SM and SOLO builders in coll/sm and coll/solo.
// Builders are pure: a Plan is a function of (builder, comm size,
// BuildSpec) alone, with no simulator state — which is what lets
// CollRuntime build each distinct one once and replay it.
#pragma once

#include <compare>
#include <cstdint>

#include "coll/plan.hpp"
#include "coll/types.hpp"

namespace han::coll {

/// Every input of a plan build. Builders read only the fields they need;
/// the rest stay at their defaults so equal plans get equal specs.
struct BuildSpec {
  Algorithm alg = Algorithm::Binomial;
  int root = 0;
  std::size_t bytes = 0;
  std::size_t segment = 0;  // 0 (or >= bytes) → single segment
  mpi::Datatype dtype = mpi::Datatype::Byte;
  mpi::ReduceOp op = mpi::ReduceOp::Sum;
  bool avx = false;            // reduction arithmetic rate class
  sim::Time action_pre_delay = 0.0;  // per-action progression cost (Libnbc)
  sim::Time op_setup = 0.0;    // one-time per-rank setup (ADAPT machinery)
  int rail = -1;  // fabric rail for the plan's sends; -1 = machine policy
  // Machine constants the shared-memory builders (SM, SOLO) bake in.
  double copy_bandwidth = 0.0;   // core copy rate, bytes/s
  sim::Time flag_latency = 0.0;  // shm flag propagation
  // Strided reduce-scatter geometry: chunk c is the `block`-byte range at
  // offset c * `stride` of slot 0.
  std::size_t stride = 0;
  std::size_t block = 0;

  friend auto operator<=>(const BuildSpec&, const BuildSpec&) = default;
};

/// The named plan builders CollRuntime::start runs; each is a
/// `Plan(int comm_size, const BuildSpec&)` declared next to its family.
enum class PlanBuilder : std::uint8_t {
  TreeBcast,
  TreeReduce,
  RecdoubAllreduce,
  LinearGather,
  LinearScatter,
  DisseminationBarrier,
  RingReduceScatter,
  RingReduceScatterStrided,
  RingAllgather,
  RingAllreduce,
  SmBcast,
  SmReduce,
  SmBarrier,
  SoloBcast,
  SoloReduce,
};

/// Run `builder` for a size-`comm_size` communicator.
Plan build_plan(PlanBuilder builder, int comm_size, const BuildSpec& spec);

/// Message segmentation helper. Segment byte counts are aligned to the
/// datatype size; the segment count is capped (kMaxInternalSegments) so
/// flat-communicator pipelines on thousands of ranks stay tractable.
class Segmenter {
 public:
  static constexpr int kMaxInternalSegments = 256;

  Segmenter(std::size_t bytes, std::size_t segment, mpi::Datatype dtype);

  int count() const { return count_; }
  std::size_t offset(int i) const;
  std::size_t length(int i) const;

 private:
  std::size_t bytes_;
  std::size_t segment_;
  int count_;
};

/// Rooted broadcast over a Linear/Chain/Binary/Binomial tree, segmented.
/// Slots: 0 = the user buffer on every rank.
Plan build_tree_bcast(int comm_size, const BuildSpec& spec);

/// Rooted reduction over a tree, segmented. Slots: 0 = sendbuf,
/// 1 = recvbuf (significant at the root). Reduction order over children is
/// fixed (deterministic for non-associative datatypes).
Plan build_tree_reduce(int comm_size, const BuildSpec& spec);

/// Allreduce via recursive doubling (handles non-power-of-two sizes with
/// the standard fold-in/fold-out pre/post steps). Slots: 0 = sendbuf,
/// 1 = recvbuf.
Plan build_recdoub_allreduce(int comm_size, const BuildSpec& spec);

/// Rooted gather, linear (root receives from everyone). Slots:
/// 0 = sendbuf (`bytes` per rank), 1 = recvbuf (`bytes * comm_size`,
/// significant at the root).
Plan build_linear_gather(int comm_size, const BuildSpec& spec);

/// Rooted scatter, linear. Slots: 0 = sendbuf (`bytes * comm_size` at the
/// root), 1 = recvbuf (`bytes` per rank).
Plan build_linear_scatter(int comm_size, const BuildSpec& spec);

/// Dissemination barrier (ceil(log2 n) rounds of zero-byte messages).
Plan build_dissemination_barrier(int comm_size, const BuildSpec& spec);

// The ring-pattern family (ring reduce-scatter, ring allgather, ring
// allreduce) lives in coll/ring/ring_builders.hpp.

namespace detail {

/// Apply BuildSpec's per-action pre-delay and one-time per-rank setup cost
/// to a finished plan (shared by the tree and ring builder families).
void finalize_plan(Plan& plan, const BuildSpec& spec);

}  // namespace detail

}  // namespace han::coll
