// Ablation (extension): multi-rail striping — CommBench's rail-aligned vs
// fan observation, HiCCL's striping primitive (docs/FABRIC.md). On a
// 4-NIC machine the LeaderAffine default pins an unstriped single-leader
// plan's inter-node traffic to rail 0 (the "fan" baseline, one NIC of
// four); a striped plan (HanConfig::sf > 1) splits every inter send into
// per-rail slices and sustains the aggregate. Both sides run the same
// generic task-graph builder — only `sf` differs.
//
// Two parts:
//  1. forced ablation: best single-rail (sf=1) vs best striped config
//     over the same fragment-size grid, per message size;
//  2. unforced tuner: the ordinary autotuner over
//     SearchSpace::for_profile — striping must enter the winning configs
//     on its own at large messages.
//
// --bench-json <path> records both (the committed BENCH_rail.json);
// --check exits non-zero unless striping wins >= 2x at the largest
// message AND the tuner picks sf>1 unforced (the CI rail-smoke gate).
#include <cstdio>

#include "autotune/tuner.hpp"
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
  const std::string machine_name =
      args.get_string("--machine", "aries_rail4");
  machine::MachineProfile profile;
  bool found = false;
  for (const machine::StockMachine& sm : machine::stock_machines()) {
    if (machine_name == sm.name) {
      profile = sm.profile;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "abl_rail: unknown stock machine '%s'\n",
                 machine_name.c_str());
    return 1;
  }
  const int rails = profile.nics_per_node;

  bench::print_header(
      "Ablation (extension) — rail-striped vs forced single-rail HAN bcast "
      "on a multi-NIC machine",
      "machine=" + machine_name + " nodes=" + std::to_string(profile.nodes) +
          " ppn=" + std::to_string(profile.procs_per_node) +
          " rails=" + std::to_string(rails));

  // The fragment-size grid both sides pick their best from; the striped
  // side also picks its stripe factor from the rail-count divisors.
  const std::vector<std::size_t> fs_grid{1 << 20, 2 << 20, 4 << 20,
                                         16 << 20};
  std::vector<int> sf_grid;
  for (int d = 2; d <= rails; ++d) {
    if (rails % d == 0) sf_grid.push_back(d);
  }

  struct Best {
    double t = 1e300;
    core::HanConfig cfg;
  };
  auto base_cfg = [](std::size_t fs, int sf) {
    core::HanConfig c;
    c.fs = fs;
    c.imod = "adapt";
    c.smod = "sm";
    c.ibalg = coll::Algorithm::Chain;
    c.iralg = coll::Algorithm::Chain;
    c.sf = sf;
    return c;
  };

  struct Row {
    std::size_t bytes;
    Best single, striped;
  };
  std::vector<Row> rows;

  bench::Obs obs(args, "abl_rail");
  sim::Table t({"bytes", "single-rail us", "striped us", "stripe sf",
                "striped speedup"});
  for (std::size_t bytes : {1u << 20, 4u << 20, 16u << 20}) {
    Row row;
    row.bytes = bytes;
    for (std::size_t fs : fs_grid) {
      for (int sf : sf_grid) {
        core::HanWorld hw(profile);
        const double ts = bench::timed(hw, bytes, base_cfg(fs, sf));
        if (ts < row.striped.t) row.striped = {ts, base_cfg(fs, sf)};
      }
      core::HanWorld hw(profile);
      obs.attach(hw.world, &hw.rt);
      const double t1 = bench::timed(hw, bytes, base_cfg(fs, 1));
      if (t1 < row.single.t) row.single = {t1, base_cfg(fs, 1)};
      if (fs == fs_grid.back()) {
        obs.emit(hw.world, "." + std::to_string(bytes));
      }
    }
    rows.push_back(row);
    t.begin_row()
        .cell(sim::format_bytes(bytes))
        .cell(row.single.t * 1e6)
        .cell(row.striped.t * 1e6)
        .cell(row.striped.cfg.sf)
        .cell(bench::speedup(row.single.t, row.striped.t), 2);
  }
  t.print("rail-striping ablation (MPI_Bcast, best config per side)");
  std::printf(
      "\nExpected: striping wins once the message is bandwidth-bound — the "
      "single-rail side is stuck on one of %d NICs.\n",
      rails);

  // Part 2 — the unforced tuner. SearchSpace::for_profile crosses the
  // stripe axis in automatically on multi-rail profiles; large-message
  // winners must carry sf>1 without any forcing.
  core::HanWorld tw(profile);
  tune::Tuner tuner(tw.world, tw.han, tw.world.world_comm(),
                    tune::SearchSpace::for_profile(profile));
  tune::TunerOptions topt;
  topt.message_sizes = {64 << 10, 1 << 20, 16 << 20};
  topt.kinds = {coll::CollKind::Bcast, coll::CollKind::Allreduce};
  const tune::TuneReport report = tuner.tune(topt);
  sim::Table tt({"kind", "bytes", "tuned config"});
  bool tuner_striped_16m = false;
  for (const auto& [key, cfg] : report.table.entries()) {
    tt.begin_row()
        .cell(coll::coll_kind_name(key.kind))
        .cell(sim::format_bytes(std::size_t{1} << key.log2_bytes))
        .cell(cfg.to_string());
    if (key.log2_bytes == 24 && cfg.sf > 1) tuner_striped_16m = true;
  }
  tt.print("autotuned configs (unforced; sf>1 = striping chosen)");

  const double top_speedup = rows.back().single.t / rows.back().striped.t;
  std::printf("\n16M striped speedup: %.2fx; tuner picked sf>1 at 16M: %s\n",
              top_speedup, tuner_striped_16m ? "yes" : "no");

  const std::string bench_json = args.get_string("--bench-json", "");
  if (!bench_json.empty()) {
    std::string j = "{\n";
    j += "  \"description\": \"rail-striped (sf>1) vs forced single-rail "
         "(sf=1) HAN bcast on a stock 4-NIC machine, plus the unforced "
         "autotuner's winners (docs/FABRIC.md)\",\n";
    j += "  \"bench_binary\": \"build/bench/abl_rail\",\n";
    j += "  \"machine\": \"" + machine_name + " " +
         std::to_string(profile.nodes) + "x" +
         std::to_string(profile.procs_per_node) +
         " rails=" + std::to_string(rails) + "\",\n";
    j += "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      j += "    {\"bytes\": " + std::to_string(r.bytes) +
           ", \"single_rail_seconds\": " + sim::json_number(r.single.t) +
           ", \"striped_seconds\": " + sim::json_number(r.striped.t) +
           ", \"striped_cfg\": " +
           sim::json_string(r.striped.cfg.to_string()) + ", \"speedup\": " +
           sim::json_number(r.single.t / r.striped.t) + "}" +
           (i + 1 < rows.size() ? ",\n" : "\n");
    }
    j += "  ],\n";
    j += "  \"largest_message_speedup\": " + sim::json_number(top_speedup) +
         ",\n";
    j += "  \"tuned\": [\n";
    const auto& entries = report.table.entries();
    std::size_t i = 0;
    for (const auto& [key, cfg] : entries) {
      j += std::string("    {\"kind\": \"") + coll::coll_kind_name(key.kind) +
           "\", \"bytes\": " +
           std::to_string(std::size_t{1} << key.log2_bytes) +
           ", \"sf\": " + std::to_string(cfg.sf) + ", \"cfg\": " +
           sim::json_string(cfg.to_string()) + "}" +
           (++i < entries.size() ? ",\n" : "\n");
    }
    j += "  ],\n";
    j += "  \"tuner_picked_striping_at_16M\": ";
    j += tuner_striped_16m ? "true" : "false";
    j += "\n}\n";
    std::FILE* f = std::fopen(bench_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "abl_rail: cannot write %s\n", bench_json.c_str());
      return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("bench json: %s\n", bench_json.c_str());
  }

  if (args.has("--check")) {
    if (top_speedup < 2.0) {
      std::fprintf(stderr,
                   "abl_rail: FAIL striped speedup %.2fx < 2x at 16M\n",
                   top_speedup);
      return 1;
    }
    if (!tuner_striped_16m) {
      std::fprintf(stderr,
                   "abl_rail: FAIL tuner did not pick sf>1 at 16M\n");
      return 1;
    }
    std::printf("abl_rail: CHECK OK\n");
  }
  return 0;
}
