// Fig. 3 reproduction: per-step cost of sbib(i), i = 1..8, on one node
// leader, for each submodule/algorithm combination. The paper's
// observation: the first steps pay pipeline-fill delays, then the cost
// stabilizes — which is what licenses modeling the steady state with a
// single stabilized value (eq. 3).
#include "autotune/taskbench.hpp"
#include "bench_util.hpp"
#include "coll_support.hpp"

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {6, 8}, {6, 12});
  const std::size_t seg = args.get_bytes("--segment", 64 << 10);
  const int steps = static_cast<int>(args.get_long("--steps", 8));
  const int leader = static_cast<int>(args.get_long("--leader", 2));

  bench::print_header(
      "Fig. 3 — cost of sbib(i) on one node leader, i = 1..8",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn) + " segment=" +
          sim::format_bytes(seg) + " leader=" + std::to_string(leader));

  core::HanWorld hw(machine::make_aries(scale.nodes, scale.ppn));
  bench::Obs obs(args, "fig03_sbib_stabilize");
  obs.attach(hw.world, &hw.rt);
  tune::TaskBench tb(hw.world, hw.han, hw.world.world_comm());

  sim::Table t([&] {
    std::vector<std::string> header{"config"};
    for (int i = 1; i <= steps; ++i) {
      header.push_back("sbib(" + std::to_string(i) + ") us");
    }
    header.push_back("stabilized us");
    return header;
  }());

  for (const auto& cfg : bench::fig_configs(seg)) {
    const tune::PerLeader ib = tb.bench_ib(cfg, seg);
    const tune::PipelineTrace trace =
        tb.bench_sbib_pipeline(cfg, seg, steps, ib);
    t.begin_row().cell(cfg.imod + "/" +
                       coll::algorithm_name(cfg.ibalg));
    for (int i = 0; i < steps; ++i) {
      t.cell(trace.steps[i].t.at(leader) * 1e6);
    }
    t.cell(trace.stabilized().t.at(leader) * 1e6);
  }
  t.print("per-step sbib cost on leader " + std::to_string(leader));
  std::printf(
      "\nExpected shape: early steps above the stabilized value, late "
      "steps flat (pipeline filled).\n");
  obs.emit(hw.world);
  return 0;
}
