// Ablation: paper §III-B — "previous studies use inter-node allreduce to
// transfer segments across nodes. We choose to break the inter-node
// allreduce into two explicit operations, the reduce ir and the broadcast
// ib, to further increase the pipeline and improve the performance for
// large messages."
//
// Compares HAN's 4-stage sr→ir→ib→sb pipeline against a 3-stage variant
// whose middle stage is a monolithic inter-node allreduce (recursive
// doubling among leaders), per segment.
#include "autotune/search.hpp"
#include "bench_util.hpp"
#include "coll_support.hpp"

namespace han::bench {

/// The fused variant: per segment, sr → inter-allreduce → sb.
double measure_fused(core::HanWorld& hw, std::size_t msg, std::size_t fs) {
  core::Hierarchy& hc = hw.han.flat_hierarchy(hw.world.world_comm());
  auto sync = std::make_shared<mpi::SyncDomain>(hw.world.engine(),
                                                hw.world.world_size());
  auto worst = std::make_shared<double>(0.0);

  hw.world.run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](core::HanWorld& hw2, core::Hierarchy& hc2,
              std::shared_ptr<mpi::SyncDomain> sync2,
              std::shared_ptr<double> worst2, std::size_t msg2, std::size_t fs2,
              int pr) -> sim::CoTask {
      using coll::CollConfig;
      const coll::Segmenter segs(msg2, fs2, mpi::Datatype::Byte);
      const int u = segs.count();
      const mpi::Comm& low = hc2.low(pr);
      const int me_low = hc2.low_rank(pr);
      const bool leader = me_low == 0;
      coll::CollModule& smod = hw2.mods.sm();
      coll::CollModule& imod = hw2.mods.adapt();

      co_await *sync2->arrive();
      const double t0 = hw2.world.now();
      // 3-stage pipeline: steps t issue sr(t), inter-allreduce(t-1),
      // sb(t-2) concurrently per task.
      for (int t = 0; t <= u + 1; ++t) {
        std::vector<mpi::Request> task;
        if (t <= u - 1) {
          task.push_back(smod.ireduce(low, me_low, 0,
                                      mpi::BufView::timing_only(segs.length(t)),
                                      mpi::BufView::timing_only(segs.length(t)),
                                      mpi::Datatype::Byte, mpi::ReduceOp::Sum,
                                      CollConfig{}));
        }
        if (leader && t >= 1 && t - 1 <= u - 1) {
          task.push_back(imod.iallreduce(
              *hc2.up(pr), hc2.up_rank(pr),
              mpi::BufView::timing_only(segs.length(t - 1)),
              mpi::BufView::timing_only(segs.length(t - 1)),
              mpi::Datatype::Byte, mpi::ReduceOp::Sum, CollConfig{}));
        }
        if (t >= 2 && t - 2 <= u - 1) {
          task.push_back(smod.ibcast(low, me_low, 0,
                                     mpi::BufView::timing_only(segs.length(t - 2)),
                                     mpi::Datatype::Byte, CollConfig{}));
        }
        if (!task.empty()) {
          co_await mpi::wait_all(hw2.world.engine(), std::move(task));
        }
      }
      *worst2 = std::max(*worst2, hw2.world.now() - t0);
    }(hw, hc, sync, worst, msg, fs, rank.world_rank);
  });
  return *worst;
}

}  // namespace han::bench

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {16, 8}, {64, 12});

  bench::print_header(
      "Ablation — split ir+ib vs monolithic inter-node allreduce",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn));

  core::HanWorld hw(machine::make_aries(scale.nodes, scale.ppn));
  bench::Obs obs(args, "abl_split_interallreduce");
  obs.attach(hw.world, &hw.rt);
  tune::Searcher searcher(hw.world, hw.han, hw.world.world_comm());

  sim::Table t({"bytes", "fs", "split ir+ib us", "fused allreduce us",
                "split speedup"});
  for (std::size_t msg : {1u << 20, 4u << 20, 16u << 20}) {
    const std::size_t fs = 512 << 10;
    core::HanConfig split_cfg;
    split_cfg.fs = fs;
    split_cfg.imod = "adapt";
    split_cfg.smod = "sm";
    split_cfg.ibalg = coll::Algorithm::Chain;
    split_cfg.iralg = coll::Algorithm::Chain;
    split_cfg.ibs = 64 << 10;
    split_cfg.irs = 64 << 10;
    const double t_split = searcher.measure_collective(
        coll::CollKind::Allreduce, msg, split_cfg);
    const double t_fused = bench::measure_fused(hw, msg, fs);
    t.begin_row()
        .cell(sim::format_bytes(msg))
        .cell(sim::format_bytes(fs))
        .cell(t_split * 1e6)
        .cell(t_fused * 1e6)
        .cell(bench::speedup(t_fused, t_split), 2);
  }
  t.print("inter-level decomposition ablation");
  std::printf(
      "\nExpected: splitting wins for large messages (deeper pipeline, "
      "full-duplex ir/ib overlap).\n");
  obs.emit(hw.world);
  return 0;
}
