// Ablation: what the paper's §III-A2 argues — neither the perfect-overlap
// model (sbib = max(ib, sb)) nor the no-overlap model (sbib = ib + sb)
// predicts MPI_Bcast correctly; HAN's benchmarked-sbib model does.
//
// For each configuration we build three eq.-3 estimates that differ only
// in the sbib(s) term and compare them against the measured 4MB bcast.
#include "autotune/search.hpp"
#include "bench_util.hpp"
#include "coll_support.hpp"

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {16, 8}, {64, 12});
  const std::size_t msg = args.get_bytes("--bytes", 4 << 20);
  const std::size_t seg = args.get_bytes("--segment", 256 << 10);

  bench::print_header(
      "Ablation — overlap models: benchmarked sbib vs max(ib,sb) vs ib+sb",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn) + " message=" +
          sim::format_bytes(msg) + " segment=" + sim::format_bytes(seg));

  core::HanWorld hw(machine::make_aries(scale.nodes, scale.ppn));
  bench::Obs obs(args, "abl_overlap_models");
  obs.attach(hw.world, &hw.rt);
  tune::TaskBench tb(hw.world, hw.han, hw.world.world_comm());
  tune::Searcher searcher(hw.world, hw.han, hw.world.world_comm());

  sim::Table t({"config", "measured us", "HAN model us", "err %",
                "perfect-overlap us", "err %", "no-overlap us", "err %"});

  for (auto cfg : bench::fig_configs(seg)) {
    cfg.fs = seg;
    const int u = static_cast<int>((msg + seg - 1) / seg);

    const tune::PerLeader ib = tb.bench_ib(cfg, seg);
    const tune::PerLeader sb = tb.bench_sb(cfg, seg);
    const tune::PipelineTrace trace = tb.bench_sbib_pipeline(cfg, seg, 8, ib);

    tune::BcastTaskCosts han_costs{ib, sb, trace.stabilized()};
    tune::BcastTaskCosts perfect = han_costs;
    tune::BcastTaskCosts serial = han_costs;
    for (std::size_t l = 0; l < ib.t.size(); ++l) {
      perfect.sbib_stable.t[l] = std::max(ib.t[l], sb.t[l]);
      serial.sbib_stable.t[l] = ib.t[l] + sb.t[l];
    }

    const double measured =
        searcher.measure_collective(coll::CollKind::Bcast, msg, cfg);
    const double est_han = tune::bcast_model_cost(han_costs, u);
    const double est_perfect = tune::bcast_model_cost(perfect, u);
    const double est_serial = tune::bcast_model_cost(serial, u);
    auto err = [&](double est) { return 100.0 * (est - measured) / measured; };

    t.begin_row()
        .cell(cfg.imod + "/" + coll::algorithm_name(cfg.ibalg))
        .cell(measured * 1e6)
        .cell(est_han * 1e6)
        .cell(err(est_han), 1)
        .cell(est_perfect * 1e6)
        .cell(err(est_perfect), 1)
        .cell(est_serial * 1e6)
        .cell(err(est_serial), 1);
  }
  t.print("estimate error by overlap model");
  std::printf(
      "\nExpected: HAN column's |err| smallest; perfect-overlap "
      "underestimates, no-overlap overestimates.\n");
  obs.emit(hw.world);
  return 0;
}
