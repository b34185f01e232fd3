// Declarative TaskGraph builders for the HAN collectives.
//
// Each builder returns the calling rank's task graph for one collective
// operation — the graph the TaskScheduler executes and (structurally) the
// one the cost model walks. An empty graph means the operation is a local
// no-op; any required send→recv copy has already been performed by the
// builder (matching the seed programs' synchronous degenerate paths).
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

#include "han/han.hpp"
#include "han/task/graph.hpp"

namespace han::task {

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
