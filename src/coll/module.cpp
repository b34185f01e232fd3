#include "coll/module.hpp"

#include <cstdio>
#include <cstdlib>

namespace han::coll {

void CollModule::unsupported(const char* what) const {
  std::fprintf(stderr, "coll module '%.*s' does not support %s\n",
               static_cast<int>(name().size()), name().data(), what);
  std::abort();
}

BuildSpec CollModule::shm_spec(int root, std::size_t bytes) const {
  BuildSpec spec;
  spec.root = root;
  spec.bytes = bytes;
  spec.copy_bandwidth = world().profile().core_copy_bandwidth;
  spec.flag_latency = world().profile().shm_latency;
  return spec;
}

mpi::Request CollModule::ibcast(const mpi::Comm&, int, int, mpi::BufView,
                                mpi::Datatype, const CollConfig&) {
  unsupported("ibcast");
}

mpi::Request CollModule::ireduce(const mpi::Comm&, int, int, mpi::BufView,
                                 mpi::BufView, mpi::Datatype, mpi::ReduceOp,
                                 const CollConfig&) {
  unsupported("ireduce");
}

mpi::Request CollModule::iallreduce(const mpi::Comm&, int, mpi::BufView,
                                    mpi::BufView, mpi::Datatype, mpi::ReduceOp,
                                    const CollConfig&) {
  unsupported("iallreduce");
}

mpi::Request CollModule::igather(const mpi::Comm&, int, int, mpi::BufView,
                                 mpi::BufView, const CollConfig&) {
  unsupported("igather");
}

mpi::Request CollModule::iscatter(const mpi::Comm&, int, int, mpi::BufView,
                                  mpi::BufView, const CollConfig&) {
  unsupported("iscatter");
}

mpi::Request CollModule::iallgather(const mpi::Comm&, int, mpi::BufView,
                                    mpi::BufView, const CollConfig&) {
  unsupported("iallgather");
}

mpi::Request CollModule::ireduce_scatter(const mpi::Comm&, int, mpi::BufView,
                                         mpi::BufView, mpi::Datatype,
                                         mpi::ReduceOp, const CollConfig&) {
  unsupported("ireduce_scatter");
}

mpi::Request CollModule::ibarrier(const mpi::Comm&, int) {
  unsupported("ibarrier");
}

}  // namespace han::coll
