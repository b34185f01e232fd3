// Fig. 2 reproduction: cost of tasks ib(0), sb(0), concurrent ib+sb, and
// the delayed-start stabilized sbib, per node leader, for 64KB segments on
// 6 nodes with different submodule/algorithm configurations.
//
// What to look for (paper §III-A2):
//  * every leader finishes ib(0) at a different time,
//  * concurrent < ib + sb (overlap is real) but > max(ib, sb) (imperfect),
//  * the delayed-start sbib differs from the naive concurrent measurement —
//    the reason the paper's benchmark delays each leader by T_i(ib(0)).
#include "autotune/taskbench.hpp"
#include "bench_util.hpp"
#include "coll_support.hpp"

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale =
      bench::pick_scale(args, {6, 8}, {6, 12});
  const std::size_t seg = args.get_bytes("--segment", 64 << 10);

  bench::print_header(
      "Fig. 2 — cost of tasks ib, sb, concurrent ib+sb, sbib (0 is root)",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn) +
          " segment=" + sim::format_bytes(seg));

  core::HanWorld hw(machine::make_aries(scale.nodes, scale.ppn));
  bench::Obs obs(args, "fig02_task_costs");
  obs.attach(hw.world, &hw.rt);
  tune::TaskBench tb(hw.world, hw.han, hw.world.world_comm());

  for (const auto& cfg : bench::fig_configs(seg)) {
    tune::PerLeader ib = tb.bench_ib(cfg, seg);
    tune::PerLeader sb = tb.bench_sb(cfg, seg);
    tune::PerLeader both = tb.bench_concurrent_ib_sb(cfg, seg);
    tune::PipelineTrace pipe = tb.bench_sbib_pipeline(cfg, seg, 8, ib);
    tune::PerLeader sbib = pipe.stabilized();

    sim::Table t({"leader", "ib(0) us", "sb(0) us", "concurrent us",
                  "sbib(s) us"});
    for (int l = 0; l < tb.leader_count(); ++l) {
      t.begin_row()
          .cell(l)
          .cell(ib.t[l] * 1e6)
          .cell(sb.t[l] * 1e6)
          .cell(both.t[l] * 1e6)
          .cell(sbib.t[l] * 1e6);
    }
    t.print("config: " + cfg.to_string());

    // The paper's headline checks, printed as explicit verdicts.
    const double overlap_gain = (ib.max() + sb.max()) / both.max();
    const double vs_perfect =
        both.max() / std::max(ib.max(), sb.max());
    std::printf(
        "  overlap: serial/concurrent = %.2fx (>1 => overlap exists), "
        "concurrent/max(ib,sb) = %.2fx (>1 => imperfect)\n",
        overlap_gain, vs_perfect);
    std::printf(
        "  naive concurrent vs delayed-start sbib (max leader): %.2f vs "
        "%.2f us\n",
        both.max() * 1e6, sbib.max() * 1e6);
  }
  obs.emit(hw.world);
  return 0;
}
