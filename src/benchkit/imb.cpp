#include "benchkit/imb.hpp"

#include <algorithm>

namespace han::benchkit {

using mpi::BufView;

std::vector<std::size_t> size_ladder(std::size_t min_bytes,
                                     std::size_t max_bytes) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = min_bytes; s <= max_bytes; s *= 2) {
    sizes.push_back(s);
  }
  return sizes;
}

namespace {

enum class Op { Bcast, Allreduce };

std::vector<ImbPoint> imb_run(vendor::MpiStack& stack, Op op,
                              const ImbOptions& options) {
  std::vector<ImbPoint> points;
  mpi::SimWorld& w = stack.world();

  for (std::size_t bytes : options.sizes) {
    const int iters = bytes >= options.large_threshold
                          ? options.iterations_large
                          : options.iterations;
    const int rounds = options.warmup + iters;
    const std::vector<double> worst = mpi::time_rounds(
        w, rounds, [&](int me, int /*round*/) {
          if (op == Op::Bcast) {
            return stack.ibcast(me, options.root, BufView::timing_only(bytes),
                                mpi::Datatype::Byte);
          }
          return stack.iallreduce(me, BufView::timing_only(bytes),
                                  BufView::timing_only(bytes),
                                  mpi::Datatype::Float, mpi::ReduceOp::Sum);
        });

    ImbPoint p;
    p.bytes = bytes;
    p.iterations = iters;
    p.min_sec = 1e300;
    double sum = 0.0;
    for (int r = options.warmup; r < rounds; ++r) {
      const double t = worst[r];
      sum += t;
      p.min_sec = std::min(p.min_sec, t);
      p.max_sec = std::max(p.max_sec, t);
    }
    p.avg_sec = sum / iters;
    points.push_back(p);
  }
  return points;
}

}  // namespace

std::vector<ImbPoint> imb_bcast(vendor::MpiStack& stack,
                                const ImbOptions& options) {
  return imb_run(stack, Op::Bcast, options);
}

std::vector<ImbPoint> imb_allreduce(vendor::MpiStack& stack,
                                    const ImbOptions& options) {
  return imb_run(stack, Op::Allreduce, options);
}

}  // namespace han::benchkit
