// SOLO: the experimental one-sided intra-node collective module.
//
// Open MPI's SOLO prototype exposes user buffers through MPI one-sided
// windows: peers read the source buffer directly (a single copy, no shm
// staging) and reductions use AVX kernels. The window synchronization
// epoch costs several microseconds per operation, which is why SM beats
// SOLO on small messages while SOLO "performs significantly better as the
// communication size increases" (paper §III).
#pragma once

#include "coll/module.hpp"

namespace han::coll {

class SoloModule : public CollModule {
 public:
  using CollModule::CollModule;

  std::string_view name() const override { return "solo"; }
  bool intra_node_only() const override { return true; }
  bool nonblocking_capable() const override { return false; }
  bool reduce_uses_avx() const override { return true; }

  std::vector<Algorithm> bcast_algorithms() const override {
    return {Algorithm::Linear};
  }

  mpi::Request ibcast(const mpi::Comm& comm, int me, int root,
                      mpi::BufView buf, mpi::Datatype dtype,
                      const CollConfig& cfg) override;
  mpi::Request ireduce(const mpi::Comm& comm, int me, int root,
                       mpi::BufView send, mpi::BufView recv,
                       mpi::Datatype dtype, mpi::ReduceOp op,
                       const CollConfig& cfg) override;
  mpi::Request iallreduce(const mpi::Comm& comm, int me, mpi::BufView send,
                          mpi::BufView recv, mpi::Datatype dtype,
                          mpi::ReduceOp op, const CollConfig& cfg) override;

  /// Per-operation window synchronization cost (exposed for the
  /// autotuner's heuristics and for tests).
  static constexpr sim::Time window_sync_cost() { return 9.0e-6; }
};

// SOLO plan builders. They read root, bytes, copy_bandwidth, flag_latency
// and (reduce) dtype/op from the spec.

/// Every reader copies straight from the root's exposed buffer. Slots:
/// 0 = the user buffer.
Plan build_solo_bcast(int comm_size, const BuildSpec& spec);

/// Binomial tree of one-sided AVX cross-reduces. Slots: 0 = sendbuf,
/// 1 = recvbuf (significant at the root).
Plan build_solo_reduce(int comm_size, const BuildSpec& spec);

}  // namespace han::coll
