// Declarative TaskGraph builders for the HAN collectives.
//
// Each builder emits the shape of one rank role's task graph for one
// collective operation — the graph the TaskScheduler executes and
// (structurally) the one the cost model walks. An empty shape means the
// operation is a local no-op, apart from the send→recv copy a degenerate
// reduce or allreduce makes at issue (the seed programs' synchronous
// degenerate paths).
//
// Bcast, reduce and allreduce are level-recursive: they resolve the
// communicator ladder derived from the machine's topology descriptor
// (hierarchy.hpp) and emit the kind's canonical stage chain on it
// (synth::canonical_chain, one stage per live level and direction), so a
// flat machine gets the paper's 2-level shapes bit-identically and a NUMA
// machine gets the 3-level ladder that used to live in han3.cpp.
//
// Bcast and allreduce are also the only builders of synthesized schedules
// (docs/SYNTHESIS.md): a cfg.sched id swaps the canonical chain for the
// spec's own (emission order, lags), its leader count k stripes
// segment i onto the ladder rooted at local rank i % k, and its rail
// stripe composes with cfg.sf. The multi-leader allreduce is the
// canonical spec with k > 1.
#pragma once

#include <cstdint>
#include <vector>

#include "han/han.hpp"
#include "han/synth/spec.hpp"
#include "han/task/graph.hpp"

namespace han::task {

/// One rank's collective call: the inputs a shape is resolved from. Bcast
/// passes its buffer as both send and recv; rootless kinds pass root 0.
struct Call {
  coll::CollKind kind = coll::CollKind::Bcast;
  const mpi::Comm* comm = nullptr;
  int me = 0;
  int root = 0;
  mpi::BufView send{}, recv{};
  mpi::Datatype dtype = mpi::Datatype::Byte;
  mpi::ReduceOp op = mpi::ReduceOp::Sum;
};

/// The rank-independent half of a call's resolution: the hierarchy its
/// pipeline runs on, the config and (bcast/allreduce) the parsed
/// schedule. Resolved once per (comm, kind, config); `cfg` must outlive
/// the front.
struct Front {
  coll::CollKind kind = coll::CollKind::Bcast;
  const core::HanConfig* cfg = nullptr;
  const core::Hierarchy* h = nullptr;
  bool has_spec = false;
  synth::SynthSpec spec;
};

Front resolve_front(core::HanModule& m, const mpi::Comm& comm,
                    coll::CollKind kind, const core::HanConfig& cfg);

/// The per-rank half: rank `me`'s view under `f`, for an op rooted at
/// `root`. Its role — every per-rank input build_shape branches on other
/// than communicators, ranks and buffer addresses — is written to `role`
/// (cleared first): the ladder kinds' stripe count and every stripe's
/// member/enabled bits per tier; the flat kinds' has_intra, has_inter,
/// leader, me_up == 0 and me == root bits and node width. Allocates
/// nothing once `role` has grown.
RankView resolve_rank(const Front& f, int me, int root,
                      std::vector<std::uint8_t>& role);

/// The shape every rank of `v`'s role runs for `call`. It reads the
/// call's sizes, datatypes and reduction, never its ranks or addresses.
GraphShape build_shape(core::HanModule& m, const Front& f, const RankView& v,
                       const Call& call);

// Each builder returns the calling rank's bound TaskGraph: resolve,
// build_shape and bind in one step.

TaskGraph build_bcast(core::HanModule& m, const mpi::Comm& comm, int me,
                      int root, mpi::BufView buf, mpi::Datatype dtype,
                      const core::HanConfig& cfg);

TaskGraph build_reduce(core::HanModule& m, const mpi::Comm& comm, int me,
                       int root, mpi::BufView send, mpi::BufView recv,
                       mpi::Datatype dtype, mpi::ReduceOp op,
                       const core::HanConfig& cfg);

TaskGraph build_allreduce(core::HanModule& m, const mpi::Comm& comm, int me,
                          mpi::BufView send, mpi::BufView recv,
                          mpi::Datatype dtype, mpi::ReduceOp op,
                          const core::HanConfig& cfg);

TaskGraph build_reduce_scatter(core::HanModule& m, const mpi::Comm& comm,
                               int me, mpi::BufView send, mpi::BufView recv,
                               mpi::Datatype dtype, mpi::ReduceOp op,
                               const core::HanConfig& cfg);

TaskGraph build_gather(core::HanModule& m, const mpi::Comm& comm, int me,
                       int root, mpi::BufView send, mpi::BufView recv,
                       const core::HanConfig& cfg);

TaskGraph build_scatter(core::HanModule& m, const mpi::Comm& comm, int me,
                        int root, mpi::BufView send, mpi::BufView recv,
                        const core::HanConfig& cfg);

TaskGraph build_allgather(core::HanModule& m, const mpi::Comm& comm, int me,
                          mpi::BufView send, mpi::BufView recv,
                          const core::HanConfig& cfg);

TaskGraph build_barrier(core::HanModule& m, const mpi::Comm& comm, int me);

}  // namespace han::task
