// Ablation: ring vs tree inter-node reduce-scatter — the latency/bandwidth
// crossover that justifies autotuning the imod choice. The trees finish in
// log(nodes) rounds but move ~2m bytes through the leaders (reduce to
// up-root, then scatter); the ring takes nodes-1 serial steps but moves
// only ~m and keeps every NIC busy. Small messages are latency-bound (tree
// wins), large ones bandwidth-bound (ring wins); the tuned table should
// pick the winner on each side of the crossover.
#include "autotune/search.hpp"
#include "bench_util.hpp"
#include "coll_support.hpp"

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {8, 4}, {32, 8});
  const std::size_t max_bytes =
      args.get_bytes("--max-bytes", args.has("--full") ? 64u << 20 : 32u << 20);

  bench::print_header(
      "Ablation — ring vs tree inter reduce-scatter crossover",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn));

  core::HanWorld hw(machine::make_aries(scale.nodes, scale.ppn));
  bench::Obs obs(args, "abl_ring_crossover");
  obs.attach(hw.world, &hw.rt);
  tune::Searcher searcher(hw.world, hw.han, hw.world.world_comm());

  auto cfg_with = [](const char* imod, coll::Algorithm alg,
                     std::size_t iseg) {
    core::HanConfig c;
    c.fs = 512 << 10;
    c.imod = imod;
    c.smod = "sm";
    c.ibalg = alg;
    c.iralg = alg;
    c.ibs = iseg;
    c.irs = iseg;
    return c;
  };
  const core::HanConfig ring =
      cfg_with("ring", coll::Algorithm::Ring, 0);
  const core::HanConfig libnbc =
      cfg_with("libnbc", coll::Algorithm::Binomial, 0);
  const core::HanConfig adapt =
      cfg_with("adapt", coll::Algorithm::Binary, 64 << 10);

  sim::Table t({"bytes", "ring us", "libnbc us", "adapt us", "ring speedup",
                "winner"});
  std::size_t crossover = 0;
  for (std::size_t msg : bench::ladder4(256, max_bytes)) {
    const double t_ring = searcher.measure_collective(
        coll::CollKind::ReduceScatter, msg, ring);
    const double t_nbc = searcher.measure_collective(
        coll::CollKind::ReduceScatter, msg, libnbc);
    const double t_adp = searcher.measure_collective(
        coll::CollKind::ReduceScatter, msg, adapt);
    const double t_tree = std::min(t_nbc, t_adp);
    if (crossover == 0 && t_ring < t_tree) crossover = msg;
    t.begin_row()
        .cell(sim::format_bytes(msg))
        .cell(t_ring * 1e6)
        .cell(t_nbc * 1e6)
        .cell(t_adp * 1e6)
        .cell(bench::speedup(t_tree, t_ring), 2)
        .cell(t_ring < t_tree ? "ring" : "tree");
  }
  t.print("ring crossover ablation");
  if (crossover != 0) {
    std::printf("\nFirst ring win at %s; trees hold below (latency-bound"
                " regime).\n",
                sim::format_bytes(crossover).c_str());
  } else {
    std::printf("\nNo ring win in the swept range — raise --max-bytes.\n");
  }
  obs.emit(hw.world);
  return 0;
}
