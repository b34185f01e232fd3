#include "coll/ring/ring.hpp"

#include "coll/builders.hpp"
#include "simbase/assert.hpp"

namespace han::coll {

namespace {

// Ring neighbours are fixed, so setup is cheap (no tree construction);
// progression is event-driven like ADAPT's.
constexpr sim::Time kRingOpSetup = 0.8e-6;
constexpr sim::Time kRingActionDelay = 0.05e-6;
// Default pipelining slice for reduce-scatter (overridable via
// CollConfig::segment, the paper's irs knob).
constexpr std::size_t kRingDefaultSegment = 64 << 10;

BuildSpec ring_spec(std::size_t bytes, mpi::Datatype dtype, mpi::ReduceOp op) {
  BuildSpec spec;
  spec.alg = Algorithm::Ring;
  spec.bytes = bytes;
  spec.dtype = dtype;
  spec.op = op;
  spec.avx = true;
  spec.action_pre_delay = kRingActionDelay;
  spec.op_setup = kRingOpSetup;
  return spec;
}

}  // namespace

RingModule::RingModule(mpi::SimWorld& world, CollRuntime& rt)
    : CollModule(world, rt) {}

void RingModule::count_op(EntryPoint entry, std::size_t bytes) {
  static constexpr const char* kNames[kEntryPoints] = {
      "ring.reduce_scatter", "ring.reduce_scatter_strided", "ring.allgather",
      "ring.allreduce"};
  obs::Counter*& calls = calls_[entry];
  if (calls == nullptr) calls = &world().metrics().counter(kNames[entry]);
  calls->add(1.0);
  if (bytes_ == nullptr) bytes_ = &world().metrics().counter("ring.bytes");
  bytes_->add(static_cast<double>(bytes));
}

mpi::Request RingModule::ireduce_scatter(const mpi::Comm& comm, int me,
                                         mpi::BufView send, mpi::BufView recv,
                                         mpi::Datatype dtype, mpi::ReduceOp op,
                                         const CollConfig& cfg) {
  HAN_ASSERT(send.bytes >= recv.bytes);
  count_op(kReduceScatter, send.bytes);
  BuildSpec spec = ring_spec(send.bytes, dtype, op);
  spec.segment = cfg.segment != 0 ? cfg.segment : kRingDefaultSegment;
  spec.rail = cfg.rail;
  return rt().start(comm, me, PlanBuilder::RingReduceScatter, spec,
                    {send, recv});
}

mpi::Request RingModule::ireduce_scatter_strided(
    const mpi::Comm& comm, int me, mpi::BufView send, mpi::BufView recv,
    std::size_t stride, mpi::Datatype dtype, mpi::ReduceOp op,
    const CollConfig& cfg) {
  const int n = comm.size();
  HAN_ASSERT(send.bytes >= (n - 1) * stride + recv.bytes);
  count_op(kReduceScatterStrided, send.bytes);
  BuildSpec spec = ring_spec(send.bytes, dtype, op);
  spec.segment = cfg.segment != 0 ? cfg.segment : kRingDefaultSegment;
  spec.rail = cfg.rail;
  spec.stride = stride;
  spec.block = recv.bytes;
  return rt().start(comm, me, PlanBuilder::RingReduceScatterStrided, spec,
                    {send, recv});
}

mpi::Request RingModule::iallgather(const mpi::Comm& comm, int me,
                                    mpi::BufView send, mpi::BufView recv,
                                    const CollConfig& cfg) {
  (void)cfg;
  count_op(kAllgather, send.bytes);
  const BuildSpec spec =
      ring_spec(send.bytes, mpi::Datatype::Byte, mpi::ReduceOp::Sum);
  return rt().start(comm, me, PlanBuilder::RingAllgather, spec, {send, recv});
}

mpi::Request RingModule::iallreduce(const mpi::Comm& comm, int me,
                                    mpi::BufView send, mpi::BufView recv,
                                    mpi::Datatype dtype, mpi::ReduceOp op,
                                    const CollConfig& cfg) {
  (void)cfg;
  count_op(kAllreduce, send.bytes);
  const BuildSpec spec = ring_spec(send.bytes, dtype, op);
  return rt().start(comm, me, PlanBuilder::RingAllreduce, spec, {send, recv});
}

}  // namespace han::coll
