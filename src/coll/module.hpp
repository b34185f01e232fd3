// CollModule: the submodule interface HAN composes (paper §III).
//
// Mirrors Open MPI's mca_coll component model: each module advertises which
// collectives/algorithms it supports, whether its operations are
// nonblocking-capable (required for HAN's inter-node level) and whether it
// is restricted to intra-node communicators (SM, SOLO). Every operation is
// nonblocking and called independently by each rank of the communicator,
// exactly like the MPI_I* entry points.
#pragma once

#include <string_view>
#include <vector>

#include "coll/runtime.hpp"
#include "coll/types.hpp"

namespace han::coll {

class CollModule {
 public:
  CollModule(mpi::SimWorld& world, CollRuntime& rt)
      : world_(&world), rt_(&rt) {}
  virtual ~CollModule() = default;
  CollModule(const CollModule&) = delete;
  CollModule& operator=(const CollModule&) = delete;

  virtual std::string_view name() const = 0;

  /// True when the module's operations progress asynchronously and can be
  /// overlapped (HAN requires this at the inter-node level).
  virtual bool nonblocking_capable() const { return false; }

  /// True when the module only works on single-node communicators.
  virtual bool intra_node_only() const { return false; }

  /// True when reductions run at AVX rate (paper §IV-A2: only SOLO and
  /// ADAPT vectorize their reduction kernels).
  virtual bool reduce_uses_avx() const { return false; }

  /// Algorithms selectable through CollConfig::alg (paper Table II's
  /// ibalg/iralg). One-element vector => no algorithm choice.
  virtual std::vector<Algorithm> bcast_algorithms() const {
    return {Algorithm::Binomial};
  }
  virtual std::vector<Algorithm> reduce_algorithms() const {
    return bcast_algorithms();
  }

  // --- nonblocking collective operations --------------------------------
  // Every rank of `comm` must call with matching arguments; `me` is the
  // caller's comm rank. Unsupported operations abort (programming error:
  // the registry/HAN only routes supported combinations).

  virtual mpi::Request ibcast(const mpi::Comm& comm, int me, int root,
                              mpi::BufView buf, mpi::Datatype dtype,
                              const CollConfig& cfg);

  virtual mpi::Request ireduce(const mpi::Comm& comm, int me, int root,
                               mpi::BufView send, mpi::BufView recv,
                               mpi::Datatype dtype, mpi::ReduceOp op,
                               const CollConfig& cfg);

  virtual mpi::Request iallreduce(const mpi::Comm& comm, int me,
                                  mpi::BufView send, mpi::BufView recv,
                                  mpi::Datatype dtype, mpi::ReduceOp op,
                                  const CollConfig& cfg);

  /// Gather `send` (same byte count on every rank) into `recv` at root.
  virtual mpi::Request igather(const mpi::Comm& comm, int me, int root,
                               mpi::BufView send, mpi::BufView recv,
                               const CollConfig& cfg);

  /// Scatter `send` at root (comm_size equal blocks) into each `recv`.
  virtual mpi::Request iscatter(const mpi::Comm& comm, int me, int root,
                                mpi::BufView send, mpi::BufView recv,
                                const CollConfig& cfg);

  virtual mpi::Request iallgather(const mpi::Comm& comm, int me,
                                  mpi::BufView send, mpi::BufView recv,
                                  const CollConfig& cfg);

  /// Reduce-scatter with equal blocks (MPI_Reduce_scatter_block semantics):
  /// every rank contributes `send` (comm_size equal blocks) and receives the
  /// reduction of its own block into `recv` (one block).
  virtual mpi::Request ireduce_scatter(const mpi::Comm& comm, int me,
                                       mpi::BufView send, mpi::BufView recv,
                                       mpi::Datatype dtype, mpi::ReduceOp op,
                                       const CollConfig& cfg);

  virtual mpi::Request ibarrier(const mpi::Comm& comm, int me);

 protected:
  mpi::SimWorld& world() const { return *world_; }
  CollRuntime& rt() const { return *rt_; }
  [[noreturn]] void unsupported(const char* what) const;
  /// Spec of a shared-memory (SM/SOLO) plan: root, bytes and the machine's
  /// core copy rate and shm flag latency.
  BuildSpec shm_spec(int root, std::size_t bytes) const;

 private:
  mpi::SimWorld* world_;
  CollRuntime* rt_;
};

}  // namespace han::coll
