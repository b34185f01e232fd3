// Fig. 6 reproduction: the overlap between ib (inter-node broadcast) and
// ir (inter-node reduce). They ride opposite directions of the full-duplex
// fabric, so running them concurrently should cost far less than their
// sum — the property HAN's allreduce exploits by splitting the inter-node
// allreduce into explicit ir + ib with the same algorithm and root.
#include "bench_util.hpp"
#include "coll_support.hpp"

namespace han::bench {

struct OverlapResult {
  double ib_max = 0.0;
  double ir_max = 0.0;
  double both_max = 0.0;
};

OverlapResult measure_overlap(core::HanWorld& hw, const core::HanConfig& cfg,
                              std::size_t seg) {
  using coll::CollConfig;
  core::Hierarchy& hc = hw.han.flat_hierarchy(hw.world.world_comm());
  coll::CollModule* imod = hw.han.inter_module(cfg);
  const CollConfig ibcfg{cfg.ibalg, cfg.ibs};
  const CollConfig ircfg{cfg.iralg, cfg.irs};

  OverlapResult result;
  auto run_phase = [&](int phase, double* out) {
    auto sync = std::make_shared<mpi::SyncDomain>(hw.world.engine(),
                                                  hw.world.world_size());
    auto worst = std::make_shared<double>(0.0);
    hw.world.run([&](mpi::Rank& rank) -> sim::CoTask {
      return [](core::HanWorld& hw3, core::Hierarchy& hc2,
                coll::CollModule* imod2,
                CollConfig ibcfg2, CollConfig ircfg2,
                std::shared_ptr<mpi::SyncDomain> sync2,
                std::shared_ptr<double> worst3, std::size_t seg2, int phase2,
                int pr) -> sim::CoTask {
        co_await *sync2->arrive();
        if (hc2.low_rank(pr) != 0) co_return;
        const mpi::Comm& up = *hc2.up(pr);
        const int me = hc2.up_rank(pr);
        const double t0 = hw3.world.now();
        std::vector<mpi::Request> task;
        if (phase2 == 0 || phase2 == 2) {
          task.push_back(imod2->ibcast(up, me, 0,
                                      mpi::BufView::timing_only(seg2),
                                      mpi::Datatype::Byte, ibcfg2));
        }
        if (phase2 == 1 || phase2 == 2) {
          task.push_back(imod2->ireduce(up, me, 0,
                                       mpi::BufView::timing_only(seg2),
                                       mpi::BufView::timing_only(seg2),
                                       mpi::Datatype::Byte,
                                       mpi::ReduceOp::Sum, ircfg2));
        }
        co_await mpi::wait_all(hw3.world.engine(), std::move(task));
        *worst3 = std::max(*worst3, hw3.world.now() - t0);
      }(hw, hc, imod, ibcfg, ircfg, sync, worst, seg, phase,
        rank.world_rank);
    });
    *out = *worst;
  };
  run_phase(0, &result.ib_max);
  run_phase(1, &result.ir_max);
  run_phase(2, &result.both_max);
  return result;
}

/// The production path of the same property: a full HAN allreduce, whose
/// task graph pipelines ir against ib across segments (paper Fig. 5). Run
/// through HanModule so the emitted report carries the scheduler's
/// han.task.* counters alongside the isolated two-task measurement above.
double han_allreduce(core::HanWorld& hw, const core::HanConfig& cfg,
                     std::size_t msg) {
  auto worst = std::make_shared<double>(0.0);
  hw.world.run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](core::HanWorld& hw2, core::HanConfig cfg2, std::size_t msg2,
              std::shared_ptr<double> worst2, int pr) -> sim::CoTask {
      const double t0 = hw2.world.now();
      mpi::Request r = hw2.han.iallreduce_cfg(
          hw2.world.world_comm(), pr, mpi::BufView::timing_only(msg2),
          mpi::BufView::timing_only(msg2), mpi::Datatype::Byte,
          mpi::ReduceOp::Sum, cfg2);
      co_await *r;
      *worst2 = std::max(*worst2, hw2.world.now() - t0);
    }(hw, cfg, msg, worst, rank.world_rank);
  });
  return *worst;
}

}  // namespace han::bench

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {16, 8}, {64, 12});
  const std::size_t seg = args.get_bytes("--segment", 512 << 10);

  bench::print_header(
      "Fig. 6 — overlap between ib and ir on the full-duplex network",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn) +
          " segment=" + sim::format_bytes(seg));

  core::HanWorld hw(machine::make_aries(scale.nodes, scale.ppn));
  bench::Obs obs(args, "fig06_ib_ir_overlap");
  obs.attach(hw.world, &hw.rt);

  sim::Table t({"config", "ib us", "ir us", "ib+ir concurrent us",
                "serial/concurrent", "vs perfect overlap"});
  for (const auto& cfg : bench::fig_configs(seg)) {
    const bench::OverlapResult r = bench::measure_overlap(hw, cfg, seg);
    t.begin_row()
        .cell(cfg.imod + "/" + coll::algorithm_name(cfg.ibalg))
        .cell(r.ib_max * 1e6)
        .cell(r.ir_max * 1e6)
        .cell(r.both_max * 1e6)
        .cell((r.ib_max + r.ir_max) / r.both_max, 2)
        .cell(r.both_max / std::max(r.ib_max, r.ir_max), 2);
  }
  t.print("ib/ir overlap per configuration");
  std::printf(
      "\nExpected: serial/concurrent well above 1 (high overlap via "
      "opposite full-duplex directions).\n");

  // End-to-end: the pipelined HAN allreduce exploiting the same overlap,
  // executed through the task graphs (emits han.task.* counters).
  {
    core::HanConfig cfg;
    cfg.fs = seg;
    cfg.imod = "adapt";
    cfg.smod = "sm";
    cfg.ibalg = coll::Algorithm::Binary;
    cfg.iralg = coll::Algorithm::Binary;
    cfg.ibs = 64 << 10;
    cfg.irs = 64 << 10;
    const std::size_t msg = 8 * seg;  // 8-segment pipeline
    const double t_han = bench::han_allreduce(hw, cfg, msg);
    std::printf(
        "\nHAN task-graph allreduce of %s (fs=%s): %.1f us — ir/ib stages "
        "overlap per segment via the scheduler.\n",
        sim::format_bytes(msg).c_str(), sim::format_bytes(seg).c_str(),
        t_han * 1e6);
  }
  obs.emit(hw.world);
  return 0;
}
