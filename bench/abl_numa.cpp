// Ablation (extension): two vs three hardware levels — the paper's future
// work ("explore approaches based on an increased number of hardware
// levels"). On a NUMA machine the flat 2-level HAN (lvl=2) treats each
// node as flat shared memory, dragging every far-socket reader across the
// inter-socket link; the derived 3-level ladder (lvl=0 on a NUMA profile:
// numa < node < cluster) crosses it once per segment. Both sides run the
// same generic task-graph builder — only the topology descriptor differs.
//
// --bench-json <path> records the comparison (the committed
// BENCH_numa.json).
#include <cstdio>

#include "bench_util.hpp"
#include "coll_support.hpp"
#include "simbase/json.hpp"

namespace han::bench {

double timed(core::HanWorld& hw, std::size_t bytes,
             const core::HanConfig& cfg) {
  return mpi::time_rounds(hw.world, 1, [&](int me, int /*round*/) {
    return hw.han.ibcast_cfg(hw.world.world_comm(), me, 0,
                             mpi::BufView::timing_only(bytes),
                             mpi::Datatype::Byte, cfg);
  })[0];
}

}  // namespace han::bench

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {16, 16}, {64, 32});
  const int domains = static_cast<int>(args.get_long("--numa", 2));

  bench::print_header(
      "Ablation (extension) — derived 3-level vs forced flat HAN bcast on "
      "NUMA nodes",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn) + " numa=" +
          std::to_string(domains));

  core::HanConfig flat_cfg;
  flat_cfg.fs = 512 << 10;
  flat_cfg.imod = "adapt";
  flat_cfg.smod = "sm";
  flat_cfg.ibalg = coll::Algorithm::Chain;
  flat_cfg.iralg = coll::Algorithm::Chain;
  flat_cfg.ibs = 64 << 10;
  flat_cfg.lvl = 2;  // force the paper's flat node<cluster ladder
  core::HanConfig derived_cfg = flat_cfg;
  derived_cfg.lvl = 0;  // derive from the profile: numa<node<cluster

  struct Row {
    std::size_t bytes;
    double t2, t3;
  };
  std::vector<Row> rows;

  bench::Obs obs(args, "abl_numa");
  sim::Table t({"bytes", "flat 2-level us", "derived 3-level us",
                "3-level speedup"});
  for (std::size_t bytes : {1u << 20, 4u << 20, 16u << 20}) {
    core::HanWorld hw(machine::with_numa(
        machine::make_aries(scale.nodes, scale.ppn), domains));
    obs.attach(hw.world, &hw.rt);
    const double t2 = bench::timed(hw, bytes, flat_cfg);
    const double t3 = bench::timed(hw, bytes, derived_cfg);
    rows.push_back({bytes, t2, t3});
    t.begin_row()
        .cell(sim::format_bytes(bytes))
        .cell(t2 * 1e6)
        .cell(t3 * 1e6)
        .cell(bench::speedup(t2, t3), 2);
    std::string suffix = ".";
    suffix += std::to_string(bytes);
    obs.emit(hw.world, suffix);
  }
  t.print("hierarchy-depth ablation (MPI_Bcast)");
  std::printf(
      "\nExpected: the third level wins once the inter-socket link would "
      "otherwise carry every far-socket reader.\n");

  const std::string bench_json = args.get_string("--bench-json", "");
  if (!bench_json.empty()) {
    std::string j = "{\n";
    j += "  \"description\": \"derived 3-level (lvl=0) vs forced flat "
         "2-level (lvl=2) HAN bcast on a NUMA-split aries machine "
         "(docs/HIERARCHY.md)\",\n";
    j += "  \"bench_binary\": \"build/bench/abl_numa\",\n";
    j += "  \"machine\": \"aries " + std::to_string(scale.nodes) + "x" +
         std::to_string(scale.ppn) + " numa=" + std::to_string(domains) +
         "\",\n";
    j += "  \"config\": " + sim::json_string(flat_cfg.to_string()) + ",\n";
    j += "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      j += "    {\"bytes\": " + std::to_string(r.bytes) +
           ", \"flat_seconds\": " + sim::json_number(r.t2) +
           ", \"derived_seconds\": " + sim::json_number(r.t3) +
           ", \"speedup\": " + sim::json_number(r.t2 / r.t3) + "}" +
           (i + 1 < rows.size() ? ",\n" : "\n");
    }
    j += "  ],\n";
    j += "  \"largest_message_speedup\": " +
         sim::json_number(rows.back().t2 / rows.back().t3) + "\n";
    j += "}\n";
    std::FILE* f = std::fopen(bench_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "abl_numa: cannot write %s\n", bench_json.c_str());
      return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("bench json: %s\n", bench_json.c_str());
  }
  return 0;
}
