// Fig. 8 reproduction: time of total searches for MPI_Bcast and
// MPI_Allreduce under the four strategies — exhaustive, exhaustive with
// heuristics, HAN's task-based model, and the combined approach. The
// tuning cost is the *simulated* time spent benchmarking (the quantity a
// machine owner pays when installing the MPI).
//
// Paper outcome to match in shape: heuristics ≈ 26.8% of exhaustive,
// task-based ≈ 23%, combined ≈ 4.3%.
//
// Part two extends the figure to the tuning service (docs/
// TUNING_SERVICE.md): cold-tune a fleet of machine shapes into a TuneDb,
// perturb one machine's P2P efficiency curve, and warm-start re-tune the
// fleet — only the perturbed machine re-benchmarks, so the fleet-wide
// tuning cost drops by roughly the fleet size. --bench-json <path> records
// the comparison (the committed BENCH_tunedb.json).
//
// Every strategy cell and every fleet tuning pass owns its world, so
// --jobs N runs them concurrently with byte-identical output for any N.
#include <memory>

#include "autotune/search.hpp"
#include "autotune/tunedb.hpp"
#include "bench_util.hpp"
#include "coll_support.hpp"
#include "obs/report.hpp"
#include "parallel/pool.hpp"
#include "simbase/json.hpp"

namespace {

using namespace han;

struct FleetShape {
  const char* family;  // "aries" | "opath"
  int nodes;
  int ppn;
};

machine::MachineProfile fleet_profile(const FleetShape& shape) {
  return std::string(shape.family) == "aries"
             ? machine::make_aries(shape.nodes, shape.ppn)
             : machine::make_opath(shape.nodes, shape.ppn);
}

/// One fleet tuning pass (cold or warm): every machine against the shared
/// DB. The expensive per-machine tuning runs as parallel jobs; the DB is
/// only read/written on the caller thread, in fleet order.
struct FleetPass {
  double cost = 0.0;
  int reused = 0;
  int retuned = 0;
  std::vector<std::string> retuned_machines;
};

FleetPass fleet_tune(tune::TuneDb& db, const std::vector<FleetShape>& fleet,
                     const machine::MachineProfile* perturbed,
                     std::size_t perturbed_index,
                     const tune::TunerOptions& topts) {
  // Machines run in fleet order against the shared DB; the expensive part
  // — the per-kind tuning benchmarks inside warm_tune — fans out over
  // topts.jobs threads per machine.
  FleetPass pass;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    machine::MachineProfile profile =
        perturbed != nullptr && i == perturbed_index
            ? *perturbed
            : fleet_profile(fleet[i]);
    core::HanWorld hw(std::move(profile));
    tune::Tuner tuner(hw.world, hw.han, hw.world.world_comm());
    const tune::WarmStartReport rep = tune::warm_tune(db, tuner, topts);
    pass.cost += rep.tuning_cost;
    pass.reused += rep.reused;
    pass.retuned += rep.retuned;
    if (rep.retuned > 0) {
      pass.retuned_machines.push_back(
          tune::signature_of(hw.world.profile()).key());
    }
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const bench::Scale scale = bench::pick_scale(args, {16, 8}, {64, 12});
  const int jobs =
      static_cast<int>(args.get_long("--jobs", 1));
  const std::vector<std::size_t> sizes{256 << 10, 1 << 20, 4 << 20,
                                       16 << 20};

  bench::print_header(
      "Fig. 8 — time of total searches (tuning cost)",
      "machine=aries nodes=" + std::to_string(scale.nodes) +
          " ppn=" + std::to_string(scale.ppn) +
          " message grid=256K,1M,4M,16M");

  sim::Table t({"collective", "strategy", "tuning time (sim s)",
                "% of exhaustive", "configs evaluated"});
  const std::string metrics_base = args.get_string("--metrics", "");

  // ---- Part one: the four search strategies, one independent cell per
  // (collective, strategy). Cells run concurrently; rows, prints, and
  // metrics reports are emitted after the join in input order, so output
  // is byte-identical for every --jobs value.
  struct Cell {
    coll::CollKind kind;
    int strategy;
    std::unique_ptr<core::HanWorld> hw;
    double cost = 0.0;
    int evaluations = 0;
  };
  std::vector<Cell> cells;
  for (coll::CollKind kind :
       {coll::CollKind::Bcast, coll::CollKind::Allreduce}) {
    for (int strategy = 0; strategy < 4; ++strategy) {
      Cell c;
      c.kind = kind;
      c.strategy = strategy;
      cells.push_back(std::move(c));
    }
  }
  std::vector<Cell> done = par::parallel_map(
      jobs, static_cast<int>(cells.size()), [&](int i) {
        Cell c = std::move(cells[static_cast<std::size_t>(i)]);
        const bool task_based = c.strategy >= 2;
        const bool heuristics = c.strategy == 1 || c.strategy == 3;
        c.hw = std::make_unique<core::HanWorld>(
            machine::make_aries(scale.nodes, scale.ppn));
        c.hw->world.metrics().set_meta("binary", "fig08_tuning_cost");
        tune::Searcher s(c.hw->world, c.hw->han, c.hw->world.world_comm());
        if (task_based) {
          s.prepare(c.kind, heuristics);
          for (std::size_t m : sizes) {
            c.evaluations += s.estimate(c.kind, m, heuristics).evaluations;
          }
        } else {
          for (std::size_t m : sizes) {
            c.evaluations += s.exhaustive(c.kind, m, heuristics).evaluations;
          }
        }
        c.cost = s.tuning_cost();
        return c;
      });

  static const char* kNames[] = {"exhaustive", "exhaustive+heuristics",
                                 "task model (HAN)",
                                 "task model+heuristics"};
  double exhaustive_cost = 0.0;
  for (const Cell& c : done) {
    if (c.strategy == 0) exhaustive_cost = c.cost;
    t.begin_row()
        .cell(coll::coll_kind_name(c.kind))
        .cell(kNames[c.strategy])
        .cell(c.cost, 4)
        .cell(100.0 * c.cost / exhaustive_cost, 1)
        .cell(c.evaluations);
    std::printf("  done: %s / %s\n", coll::coll_kind_name(c.kind),
                kNames[c.strategy]);
    std::fflush(stdout);
    if (!metrics_base.empty()) {
      const std::string base = metrics_base + "." +
                               coll::coll_kind_name(c.kind) + ".s" +
                               std::to_string(c.strategy);
      if (obs::write_report(c.hw->world.metrics(), c.hw->world.now(), base)) {
        std::printf("metrics: %s.json %s.csv\n", base.c_str(), base.c_str());
      }
    }
  }
  t.print("search cost comparison");

  // ---- Part two: warm-start tuning across a fleet (docs/
  // TUNING_SERVICE.md). Cold-tune every shape, then perturb one machine's
  // large-message efficiency and re-tune the fleet warm: only the
  // perturbed machine pays tuning cost again.
  const std::vector<FleetShape> fleet{
      {"aries", 4, 2}, {"aries", 4, 4}, {"aries", 8, 2}, {"aries", 8, 4},
      {"aries", 16, 2}, {"opath", 4, 4}, {"opath", 8, 2}, {"opath", 8, 4},
  };
  const std::size_t kPerturbed = 2;  // aries 8x2
  tune::TunerOptions topts;
  topts.jobs = jobs;

  tune::TuneDb db;
  const FleetPass cold = fleet_tune(db, fleet, nullptr, 0, topts);
  const FleetPass noop = fleet_tune(db, fleet, nullptr, 0, topts);

  machine::MachineProfile perturbed = fleet_profile(fleet[kPerturbed]);
  machine::scale_net_efficiency(perturbed, /*factor=*/0.85,
                                /*min_bytes=*/2 << 20);
  const FleetPass warm = fleet_tune(db, fleet, &perturbed, kPerturbed, topts);

  sim::Table ft({"pass", "tuning time (sim s)", "buckets reused",
                 "buckets re-tuned", "speedup vs cold"});
  ft.begin_row().cell("cold fleet tune").cell(cold.cost, 4).cell(cold.reused)
      .cell(cold.retuned).cell(1.0, 2);
  ft.begin_row().cell("warm re-tune (no change)").cell(noop.cost, 4)
      .cell(noop.reused).cell(noop.retuned)
      .cell(noop.cost > 0.0 ? cold.cost / noop.cost : 0.0, 2);
  ft.begin_row().cell("warm re-tune (1 perturbed)").cell(warm.cost, 4)
      .cell(warm.reused).cell(warm.retuned)
      .cell(warm.cost > 0.0 ? cold.cost / warm.cost : 0.0, 2);
  ft.print("tuning service: fleet of " + std::to_string(fleet.size()) +
           " machines, perturb " +
           tune::signature_of(perturbed).key());

  const double speedup = warm.cost > 0.0 ? cold.cost / warm.cost : 0.0;
  const std::string bench_json = args.get_string("--bench-json", "");
  if (!bench_json.empty()) {
    std::string j = "{\n";
    j += "  \"description\": \"tuning service: cold fleet tune vs "
         "warm-start re-tune after perturbing one machine "
         "(docs/TUNING_SERVICE.md)\",\n";
    j += "  \"bench_binary\": \"build/bench/fig08_tuning_cost\",\n";
    j += "  \"fleet\": [";
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (i > 0) j += ", ";
      j += sim::json_string(tune::signature_of(fleet_profile(fleet[i])).key());
    }
    j += "],\n";
    j += "  \"perturbed\": " +
         sim::json_string(tune::signature_of(perturbed).key()) + ",\n";
    j += "  \"perturbation\": \"net_efficiency x0.85 at >= 2M\",\n";
    j += "  \"cold_cost_seconds\": " + sim::json_number(cold.cost) + ",\n";
    j += "  \"warm_noop_cost_seconds\": " + sim::json_number(noop.cost) + ",\n";
    j += "  \"warm_noop_retuned\": " + std::to_string(noop.retuned) + ",\n";
    j += "  \"warm_cost_seconds\": " + sim::json_number(warm.cost) + ",\n";
    j += "  \"warm_reused\": " + std::to_string(warm.reused) + ",\n";
    j += "  \"warm_retuned\": " + std::to_string(warm.retuned) + ",\n";
    j += "  \"speedup_cold_over_warm\": " + sim::json_number(speedup) + "\n";
    j += "}\n";
    std::FILE* f = std::fopen(bench_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fig08: cannot write %s\n", bench_json.c_str());
      return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("bench json: %s\n", bench_json.c_str());
  }
  std::printf("fleet warm-start speedup: %.2fx (cold %.4f s -> warm %.4f s, "
              "no-change re-tune cost %.4f s)\n",
              speedup, cold.cost, warm.cost, noop.cost);
  return 0;
}
