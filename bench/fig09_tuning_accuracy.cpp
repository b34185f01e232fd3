// Fig. 9 reproduction: accuracy of the tuning strategies. For each message
// size: the best / median / average over all configurations (exhaustive
// ground truth), plus the *measured* performance of the configuration each
// strategy selects. The paper's claims: the task model's pick matches the
// exhaustive best in most cases; adding heuristics costs some accuracy;
// median/average are far above the best (tuning matters).
#include "autotune/search.hpp"
#include "bench_util.hpp"
#include "coll_support.hpp"
#include "simbase/stats.hpp"

int main(int argc, char** argv) {
  using namespace han;
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {16, 8}, {64, 12});
  const std::vector<std::size_t> sizes{256 << 10, 1 << 20, 4 << 20,
                                       16 << 20};

  bench::print_header(
      "Fig. 9 — accuracy of the tuning strategies",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn));
  bench::Obs obs(args, "fig09_tuning_accuracy");

  for (coll::CollKind kind :
       {coll::CollKind::Bcast, coll::CollKind::Allreduce}) {
    core::HanWorld hw(machine::make_aries(scale.nodes, scale.ppn));
    obs.attach(hw.world, &hw.rt);
    tune::Searcher s(hw.world, hw.han, hw.world.world_comm());
    s.prepare(kind, false);

    sim::Table t({"message", "best us", "median us", "average us",
                  "exh+heur us", "task model us", "task+heur us"});
    for (std::size_t m : sizes) {
      const tune::SearchResult truth = s.exhaustive(kind, m, false);
      std::vector<double> all;
      for (const auto& e : truth.all) all.push_back(e.time);

      auto measured_pick = [&](const tune::SearchResult& r) {
        return r.best ? s.measure_collective(kind, m, r.best->cfg) : 0.0;
      };
      const double heur_pick =
          measured_pick(s.exhaustive(kind, m, true));
      const double model_pick = measured_pick(s.estimate(kind, m, false));
      const double combo_pick = measured_pick(s.estimate(kind, m, true));

      t.begin_row()
          .cell(sim::format_bytes(m))
          .cell(truth.best->time * 1e6)
          .cell(sim::median(all) * 1e6)
          .cell(sim::mean(all) * 1e6)
          .cell(heur_pick * 1e6)
          .cell(model_pick * 1e6)
          .cell(combo_pick * 1e6);
      std::printf("  done: %s %s\n", coll::coll_kind_name(kind),
                  sim::format_bytes(m).c_str());
      std::fflush(stdout);
    }
    t.print(std::string("MPI_") + coll::coll_kind_name(kind) +
            " time-to-completion by tuning method");
    obs.emit(hw.world, std::string(".") + coll::coll_kind_name(kind));
  }
  std::printf(
      "\nExpected: task-model column tracks the exhaustive best; "
      "median/average far above it; heuristics slightly worse.\n");
  return 0;
}
