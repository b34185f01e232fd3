// TreeCollModule: shared implementation of the P2P tree-algorithm modules.
//
// Libnbc and ADAPT (and the inter-node parts of the vendor comparators)
// differ in their supported algorithm sets, internal segmentation, setup
// and progression costs, and reduction vectorization — not in the schedule
// shapes. This base turns a parameter block into a full CollModule.
#pragma once

#include <string>

#include "coll/builders.hpp"
#include "coll/module.hpp"

namespace han::coll {

struct TreeModuleParams {
  std::string name;
  std::vector<Algorithm> bcast_algs{Algorithm::Binomial};
  std::vector<Algorithm> reduce_algs{Algorithm::Binomial};
  Algorithm default_alg = Algorithm::Binomial;
  bool nonblocking = false;
  bool segmentation = false;          // honour CollConfig::segment
  std::size_t default_segment = 0;    // used when segmentation && cfg 0
  bool avx_reduce = false;
  sim::Time action_pre_delay = 0.0;   // per-action progression cost
  sim::Time op_setup = 0.0;           // per-rank, per-operation setup
};

class TreeCollModule : public CollModule {
 public:
  TreeCollModule(mpi::SimWorld& world, CollRuntime& rt,
                 TreeModuleParams params)
      : CollModule(world, rt), params_(std::move(params)) {}

  std::string_view name() const override { return params_.name; }
  bool nonblocking_capable() const override { return params_.nonblocking; }
  bool reduce_uses_avx() const override { return params_.avx_reduce; }
  std::vector<Algorithm> bcast_algorithms() const override {
    return params_.bcast_algs;
  }
  std::vector<Algorithm> reduce_algorithms() const override {
    return params_.reduce_algs;
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
  mpi::Request igather(const mpi::Comm& comm, int me, int root,
                       mpi::BufView send, mpi::BufView recv,
                       const CollConfig& cfg) override;
  mpi::Request iscatter(const mpi::Comm& comm, int me, int root,
                        mpi::BufView send, mpi::BufView recv,
                        const CollConfig& cfg) override;
  mpi::Request iallgather(const mpi::Comm& comm, int me, mpi::BufView send,
                          mpi::BufView recv, const CollConfig& cfg) override;
  mpi::Request ibarrier(const mpi::Comm& comm, int me) override;

 protected:
  /// Resolve config against the module's capabilities: algorithm fallback
  /// to the default, segmentation honoured only when supported.
  BuildSpec resolve(const CollConfig& cfg, std::span<const Algorithm> algs,
                    int root, std::size_t bytes, mpi::Datatype dtype) const;

  const TreeModuleParams& params() const { return params_; }

 private:
  TreeModuleParams params_;
};

/// Libnbc analogue: the legacy round-based nonblocking module. Binomial
/// trees only, no internal segmentation, per-round progression cost,
/// scalar reductions.
TreeModuleParams libnbc_params();

/// ADAPT analogue: event-driven nonblocking module. Chain/binary/binomial,
/// internal segmentation (the paper's ibs/irs), AVX reductions, higher
/// per-operation setup (its event machinery hurts small messages).
TreeModuleParams adapt_params();

}  // namespace han::coll
