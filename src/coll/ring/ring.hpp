// "ring": the ring-pattern collective module.
//
// HAN's inter-node submodules so far (Libnbc, ADAPT) are tree-shaped: their
// cost grows with the tree depth but every byte crosses the wire O(log n)
// or O(n) times. The ring module trades latency (n-1 steps) for bandwidth
// optimality (each rank sends exactly bytes/n per step), which wins for the
// large messages that dominate data-parallel training. Reduce-scatter and
// allgather are the primitives; allreduce is their composition.
#pragma once

#include <array>

#include "coll/module.hpp"

namespace han::coll {

class RingModule : public CollModule {
 public:
  RingModule(mpi::SimWorld& world, CollRuntime& rt);

  std::string_view name() const override { return "ring"; }
  bool nonblocking_capable() const override { return true; }
  bool reduce_uses_avx() const override { return true; }
  std::vector<Algorithm> bcast_algorithms() const override {
    return {Algorithm::Ring};
  }

  mpi::Request ireduce_scatter(const mpi::Comm& comm, int me,
                               mpi::BufView send, mpi::BufView recv,
                               mpi::Datatype dtype, mpi::ReduceOp op,
                               const CollConfig& cfg) override;
  /// Reduce-scatter of the strided chunk set {send[c*stride ..
  /// +recv.bytes) : c in comm}: rank r receives the fully reduced chunk r
  /// in recv. HAN's hierarchical reduce-scatter uses this to ring one
  /// region slice between node leaders while the intra level reduces the
  /// next (CollConfig::segment pipelines within chunks as usual).
  mpi::Request ireduce_scatter_strided(const mpi::Comm& comm, int me,
                                       mpi::BufView send, mpi::BufView recv,
                                       std::size_t stride,
                                       mpi::Datatype dtype, mpi::ReduceOp op,
                                       const CollConfig& cfg);
  mpi::Request iallgather(const mpi::Comm& comm, int me, mpi::BufView send,
                          mpi::BufView recv, const CollConfig& cfg) override;
  mpi::Request iallreduce(const mpi::Comm& comm, int me, mpi::BufView send,
                          mpi::BufView recv, mpi::Datatype dtype,
                          mpi::ReduceOp op, const CollConfig& cfg) override;

 private:
  enum EntryPoint {
    kReduceScatter,
    kReduceScatterStrided,
    kAllgather,
    kAllreduce,
    kEntryPoints,
  };
  /// Count one call (ring.<entry point>, ring.bytes). The counters are
  /// interned on first use: creating them up front would add zero-valued
  /// metrics to every report.
  void count_op(EntryPoint entry, std::size_t bytes);

  std::array<obs::Counter*, kEntryPoints> calls_{};
  obs::Counter* bytes_ = nullptr;
};

}  // namespace han::coll
