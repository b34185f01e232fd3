#include "coll/tuned/tuned.hpp"

namespace han::coll {

namespace {

TreeModuleParams tuned_params() {
  TreeModuleParams p;
  p.name = "tuned";
  p.bcast_algs = {Algorithm::Linear, Algorithm::Chain, Algorithm::Binary,
                  Algorithm::Binomial};
  p.reduce_algs = {Algorithm::Linear, Algorithm::Chain, Algorithm::Binary,
                   Algorithm::Binomial};
  p.default_alg = Algorithm::Binomial;
  p.nonblocking = false;  // blocking decision-function module
  p.segmentation = true;
  p.avx_reduce = false;
  p.action_pre_delay = 0.0;
  p.op_setup = 0.2e-6;
  return p;
}

}  // namespace

TunedModule::TunedModule(mpi::SimWorld& world, CollRuntime& rt)
    : TreeCollModule(world, rt, tuned_params()) {}

CollConfig TunedModule::decide_bcast(int comm_size, std::size_t bytes) {
  // Approximation of ompi_coll_tuned_bcast_intra_dec_fixed: binomial for
  // small messages, segmented binary mid-range, segmented chain for large.
  CollConfig cfg;
  if (bytes < (2u << 10) || comm_size <= 4) {
    cfg.alg = Algorithm::Binomial;
    cfg.segment = 0;
  } else if (bytes < (8u << 20)) {
    cfg.alg = Algorithm::Binary;
    cfg.segment = 32 << 10;  // the infamous small fixed segments
  } else {
    cfg.alg = Algorithm::Chain;
    cfg.segment = 64 << 10;
  }
  return cfg;
}

CollConfig TunedModule::decide_reduce(int comm_size, std::size_t bytes) {
  CollConfig cfg;
  if (bytes < (8u << 10) || comm_size <= 4) {
    cfg.alg = Algorithm::Binomial;
    cfg.segment = 0;
  } else if (bytes < (8u << 20)) {
    cfg.alg = Algorithm::Binary;
    cfg.segment = 32 << 10;
  } else {
    cfg.alg = Algorithm::Chain;
    cfg.segment = 64 << 10;
  }
  return cfg;
}

bool TunedModule::allreduce_uses_ring(int comm_size, std::size_t bytes) {
  // Ring is bandwidth-optimal but needs 2(n-1) steps; tuned switches to it
  // for large messages. We keep it only on communicators small enough for
  // the schedule to stay tractable in the simulator (see DESIGN.md).
  return bytes >= (1u << 20) && comm_size <= 1024 && comm_size >= 4;
}

mpi::Request TunedModule::ibcast(const mpi::Comm& comm, int me, int root,
                                 mpi::BufView buf, mpi::Datatype dtype,
                                 const CollConfig& cfg) {
  const CollConfig decided = cfg.alg != Algorithm::Default
                                 ? cfg
                                 : decide_bcast(comm.size(), buf.bytes);
  return TreeCollModule::ibcast(comm, me, root, buf, dtype, decided);
}

mpi::Request TunedModule::ireduce(const mpi::Comm& comm, int me, int root,
                                  mpi::BufView send, mpi::BufView recv,
                                  mpi::Datatype dtype, mpi::ReduceOp op,
                                  const CollConfig& cfg) {
  const CollConfig decided = cfg.alg != Algorithm::Default
                                 ? cfg
                                 : decide_reduce(comm.size(), send.bytes);
  return TreeCollModule::ireduce(comm, me, root, send, recv, dtype, op,
                                 decided);
}

mpi::Request TunedModule::iallreduce(const mpi::Comm& comm, int me,
                                     mpi::BufView send, mpi::BufView recv,
                                     mpi::Datatype dtype, mpi::ReduceOp op,
                                     const CollConfig& cfg) {
  if (allreduce_uses_ring(comm.size(), send.bytes)) {
    BuildSpec spec;
    spec.bytes = send.bytes;
    spec.dtype = dtype;
    spec.op = op;
    spec.op_setup = 0.2e-6;
    return rt().start(comm, me, PlanBuilder::RingAllreduce, spec,
                      {send, recv});
  }
  return TreeCollModule::iallreduce(comm, me, send, recv, dtype, op, cfg);
}

}  // namespace han::coll
