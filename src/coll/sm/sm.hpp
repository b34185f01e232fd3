// SM: the shared-memory intra-node collective module.
//
// Open MPI's coll/sm exchanges data through a flag-synchronized shared
// buffer: the sender copies fragments in, readers poll flags and copy out.
// We model the fragment pipeline's large-message penalty as an efficiency
// curve on the copy rate (small fragments serialize through a few shm
// slots) and the flag signalling as cross-rank dependency latency. Copy-out
// traffic is mostly L3-served (every reader hits the same hot fragment), so
// it charges the memory bus at a discounted factor.
//
// Behaviour the paper relies on (§III): SM has excellent small-message
// latency but loses to SOLO as segments grow; its reductions are scalar
// (no AVX), which is why HAN's tuner avoids SM/Libnbc allreduce being
// competitive with vendor MPIs on small messages (§IV-A2).
#pragma once

#include "coll/module.hpp"

namespace han::coll {

class SmModule : public CollModule {
 public:
  using CollModule::CollModule;

  std::string_view name() const override { return "sm"; }
  bool intra_node_only() const override { return true; }
  bool nonblocking_capable() const override { return false; }

  std::vector<Algorithm> bcast_algorithms() const override {
    return {Algorithm::Linear};  // flag-synced star; no algorithm choice
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
  mpi::Request ibarrier(const mpi::Comm& comm, int me) override;

  /// Copy-rate efficiency of the shm fragment pipeline at `bytes`.
  static double copy_efficiency(std::size_t bytes);
};

// SM plan builders. They read root, bytes, copy_bandwidth, flag_latency
// and (reduce) dtype/op from the spec.

/// Root stages into shm; every reader copies out after the flag. Slots:
/// 0 = the user buffer.
Plan build_sm_bcast(int comm_size, const BuildSpec& spec);

/// Binomial tree of shm publishes and scalar cross-reduces. Slots:
/// 0 = sendbuf, 1 = recvbuf (significant at the root).
Plan build_sm_reduce(int comm_size, const BuildSpec& spec);

/// Flag dissemination: ceil(log2 n) rounds of one flag hop each.
Plan build_sm_barrier(int comm_size, const BuildSpec& spec);

}  // namespace han::coll
