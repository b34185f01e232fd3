#include "coll/tree_module.hpp"

#include <algorithm>


namespace han::coll {

BuildSpec TreeCollModule::resolve(const CollConfig& cfg,
                                  std::span<const Algorithm> algs, int root,
                                  std::size_t bytes,
                                  mpi::Datatype dtype) const {
  BuildSpec spec;
  spec.alg = params_.default_alg;
  if (cfg.alg != Algorithm::Default &&
      std::find(algs.begin(), algs.end(), cfg.alg) != algs.end()) {
    spec.alg = cfg.alg;
  }
  spec.root = root;
  spec.bytes = bytes;
  spec.segment = 0;
  if (params_.segmentation) {
    spec.segment = cfg.segment != 0 ? cfg.segment : params_.default_segment;
  }
  spec.dtype = dtype;
  spec.avx = params_.avx_reduce;
  spec.action_pre_delay = params_.action_pre_delay;
  spec.op_setup = params_.op_setup;
  spec.rail = cfg.rail;
  return spec;
}

mpi::Request TreeCollModule::ibcast(const mpi::Comm& comm, int me, int root,
                                    mpi::BufView buf, mpi::Datatype dtype,
                                    const CollConfig& cfg) {
  const BuildSpec spec =
      resolve(cfg, params_.bcast_algs, root, buf.bytes, dtype);
  return rt().start(comm, me, PlanBuilder::TreeBcast, spec, {buf});
}

mpi::Request TreeCollModule::ireduce(const mpi::Comm& comm, int me, int root,
                                     mpi::BufView send, mpi::BufView recv,
                                     mpi::Datatype dtype, mpi::ReduceOp op,
                                     const CollConfig& cfg) {
  BuildSpec spec = resolve(cfg, params_.reduce_algs, root, send.bytes, dtype);
  spec.op = op;
  return rt().start(comm, me, PlanBuilder::TreeReduce, spec, {send, recv});
}

mpi::Request TreeCollModule::iallreduce(const mpi::Comm& comm, int me,
                                        mpi::BufView send, mpi::BufView recv,
                                        mpi::Datatype dtype, mpi::ReduceOp op,
                                        const CollConfig& cfg) {
  BuildSpec spec = resolve(cfg, params_.reduce_algs, 0, send.bytes, dtype);
  spec.op = op;
  // Libnbc/ADAPT style: recursive doubling (their default for commutative
  // operations); algorithm choice only affects the rooted trees.
  return rt().start(comm, me, PlanBuilder::RecdoubAllreduce, spec,
                    {send, recv});
}

mpi::Request TreeCollModule::igather(const mpi::Comm& comm, int me, int root,
                                     mpi::BufView send, mpi::BufView recv,
                                     const CollConfig& cfg) {
  BuildSpec spec = resolve(cfg, params_.bcast_algs, root, send.bytes,
                           mpi::Datatype::Byte);
  return rt().start(comm, me, PlanBuilder::LinearGather, spec, {send, recv});
}

mpi::Request TreeCollModule::iscatter(const mpi::Comm& comm, int me, int root,
                                      mpi::BufView send, mpi::BufView recv,
                                      const CollConfig& cfg) {
  BuildSpec spec = resolve(cfg, params_.bcast_algs, root, recv.bytes,
                           mpi::Datatype::Byte);
  return rt().start(comm, me, PlanBuilder::LinearScatter, spec, {send, recv});
}

mpi::Request TreeCollModule::iallgather(const mpi::Comm& comm, int me,
                                        mpi::BufView send, mpi::BufView recv,
                                        const CollConfig& cfg) {
  BuildSpec spec = resolve(cfg, params_.bcast_algs, 0, send.bytes,
                           mpi::Datatype::Byte);
  return rt().start(comm, me, PlanBuilder::RingAllgather, spec, {send, recv});
}

mpi::Request TreeCollModule::ibarrier(const mpi::Comm& comm, int me) {
  BuildSpec spec;
  spec.action_pre_delay = params_.action_pre_delay;
  spec.op_setup = params_.op_setup;
  return rt().start(comm, me, PlanBuilder::DisseminationBarrier, spec,
                    {mpi::BufView::timing_only(0)});
}

TreeModuleParams libnbc_params() {
  TreeModuleParams p;
  p.name = "libnbc";
  p.bcast_algs = {Algorithm::Binomial};
  p.reduce_algs = {Algorithm::Binomial};
  p.default_alg = Algorithm::Binomial;
  p.nonblocking = true;
  p.segmentation = false;  // Libnbc schedules operate on whole messages
  p.avx_reduce = false;    // paper §IV-A2: Libnbc reductions are scalar
  p.action_pre_delay = 0.25e-6;  // round-based progression cost
  p.op_setup = 0.5e-6;           // schedule construction
  return p;
}

TreeModuleParams adapt_params() {
  TreeModuleParams p;
  p.name = "adapt";
  p.bcast_algs = {Algorithm::Chain, Algorithm::Binary, Algorithm::Binomial};
  p.reduce_algs = {Algorithm::Chain, Algorithm::Binary, Algorithm::Binomial};
  p.default_alg = Algorithm::Binary;
  p.nonblocking = true;
  p.segmentation = true;           // the paper's ibs/irs
  p.default_segment = 64 << 10;
  p.avx_reduce = true;             // ADAPT vectorizes reductions
  p.action_pre_delay = 0.05e-6;    // event-driven: cheap progression
  p.op_setup = 1.2e-6;             // event machinery: costly setup
  return p;
}

}  // namespace han::coll
