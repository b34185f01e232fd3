// Ablation: HAN's segmentation/pipelining (paper §III: "an optimal design
// ... should maximize the communication overlap, especially for large
// messages"). Runs HAN bcast and allreduce with pipelining disabled
// (fs = message size → a single task chain) vs the default segmented
// configuration.
#include "autotune/search.hpp"
#include "bench_util.hpp"
#include "coll_support.hpp"

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {16, 8}, {64, 12});

  bench::print_header(
      "Ablation — pipelining on/off (fs = 512KB vs fs = message size)",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn));

  core::HanWorld hw(machine::make_aries(scale.nodes, scale.ppn));
  bench::Obs obs(args, "abl_pipeline");
  obs.attach(hw.world, &hw.rt);
  tune::Searcher searcher(hw.world, hw.han, hw.world.world_comm());

  sim::Table t({"collective", "bytes", "pipelined us", "single-segment us",
                "pipelining speedup"});
  for (coll::CollKind kind :
       {coll::CollKind::Bcast, coll::CollKind::Allreduce}) {
    for (std::size_t msg : {4u << 20, 16u << 20}) {
      core::HanConfig pipelined;
      pipelined.fs = 512 << 10;
      pipelined.imod = "adapt";
      pipelined.smod = "sm";
      pipelined.ibalg = coll::Algorithm::Chain;
      pipelined.iralg = coll::Algorithm::Chain;
      pipelined.ibs = 64 << 10;
      pipelined.irs = 64 << 10;
      core::HanConfig whole = pipelined;
      whole.fs = msg;
      whole.ibalg = coll::Algorithm::Binary;  // chain needs segments
      whole.iralg = coll::Algorithm::Binary;

      const double t_pipe = searcher.measure_collective(kind, msg, pipelined);
      const double t_whole = searcher.measure_collective(kind, msg, whole);
      t.begin_row()
          .cell(coll::coll_kind_name(kind))
          .cell(sim::format_bytes(msg))
          .cell(t_pipe * 1e6)
          .cell(t_whole * 1e6)
          .cell(bench::speedup(t_whole, t_pipe), 2);
    }
  }
  t.print("pipelining ablation");
  std::printf("\nExpected: speedup > 1 throughout, growing with size.\n");
  obs.emit(hw.world);
  return 0;
}
