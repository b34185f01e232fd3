// han_synth — bounded, verified schedule synthesis (docs/SYNTHESIS.md).
//
//   han_synth [--smoke] [--nodes N] [--ppn P] [--numa D] [--sizes 64K,1M]
//             [--seed S] [--rounds R] [--mutants M] [--finalists K]
//             [--jobs N] [--json <path>] [--save-lookup <path>] [--quiet]
//
// --numa D (D > 1) synthesizes on a NUMA machine: the three-level chain
// (mr/mb stages, docs/HIERARCHY.md) joins the enumeration and the
// baseline is the hand-written derived three-level ladder.
//
// --jobs N runs the independent (collective, size) cases on N threads
// (0 = one per hardware thread); results are byte-identical for every N.
//
// Runs han::synth::run_synthesis: enumerate the generator grammar, prune
// on the symbolic (lat, bw) pareto frontier, gate survivors through
// han::verify, score the finalists in the simulator, and pick a winner
// per (collective, size) case. --save-lookup persists the winners as a
// LookupTable file that HanModule dispatches like any tuned config.
// Exit status: 0 = every finalist verified clean and every case's winner
// matched or beat the hand-written baseline; 1 = bad arguments (every
// number is checked whole and in range); 2 otherwise.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "cli.hpp"
#include "han/synth/synth.hpp"
#include "parallel/pool.hpp"

namespace cli = han::cli;

int main(int argc, char** argv) {
  han::synth::SynthOptions opts;
  bool quiet = false;
  std::string json_path;
  std::string lookup_path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_val = i + 1 < argc;
    bool ok = true;  // false: a malformed or out-of-range value
    if (std::strcmp(a, "--smoke") == 0) {
      // Tiny-budget CI configuration: one size per kind, one base config
      // axis value each, a single short mutation round.
      opts.sizes = {64 << 10};
      opts.fs_sizes = {64 << 10};
      opts.windows = {2};
      opts.mutation_rounds = 1;
      opts.mutants_per_round = 8;
      opts.max_finalists = 4;
    } else if (std::strcmp(a, "--nodes") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 1, &opts.nodes);
    } else if (std::strcmp(a, "--ppn") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 1, &opts.ppn);
    } else if (std::strcmp(a, "--numa") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 1, &opts.numa);
    } else if (std::strcmp(a, "--sizes") == 0 && has_val) {
      ok = cli::size_list(argv[++i], /*ascending=*/false, &opts.sizes);
    } else if (std::strcmp(a, "--seed") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], std::uint64_t{0}, &opts.seed);
    } else if (std::strcmp(a, "--rounds") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 0, &opts.mutation_rounds);
    } else if (std::strcmp(a, "--mutants") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 0, &opts.mutants_per_round);
    } else if (std::strcmp(a, "--finalists") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 1, &opts.max_finalists);
    } else if (std::strcmp(a, "--jobs") == 0 && has_val) {
      opts.jobs = han::par::parse_jobs(argv[++i]);
      ok = opts.jobs >= 0;
    } else if (std::strcmp(a, "--json") == 0 && has_val) {
      json_path = argv[++i];
    } else if (std::strcmp(a, "--save-lookup") == 0 && has_val) {
      lookup_path = argv[++i];
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: han_synth [--smoke] [--nodes N] [--ppn P] "
                   "[--numa D] [--sizes 64K,1M] [--seed S] [--rounds R] "
                   "[--mutants M] [--finalists K] [--jobs N] "
                   "[--json <path>] [--save-lookup <path>] [--quiet]\n");
      return std::strcmp(a, "--help") == 0 ? 0 : 1;
    }
    if (!ok) return cli::bad_value("han_synth", a, argv[i]);
  }
  if (opts.nodes < 2 || opts.ppn < 1) {
    std::fprintf(stderr, "han_synth: need --nodes >= 2 and --ppn >= 1\n");
    return 1;
  }
  if (opts.numa < 1 || opts.ppn % opts.numa != 0) {
    std::fprintf(stderr,
                 "han_synth: --numa must be >= 1 and divide --ppn\n");
    return 1;
  }

  const han::synth::SynthResult result = han::synth::run_synthesis(opts);

  if (!json_path.empty() &&
      !cli::write_file("han_synth", json_path, result.to_json())) {
    return 1;
  }
  if (!lookup_path.empty() && !result.winners().save(lookup_path)) {
    return 1;
  }

  const int findings = result.finalist_findings();
  const int wins = result.wins();
  const int cases = static_cast<int>(result.cases.size());
  if (!quiet) {
    for (const han::synth::SynthCase& c : result.cases) {
      const char* verdict = "NO WINNER";
      double ratio = 0.0;
      if (c.winner >= 0 && c.baseline > 0.0) {
        ratio = c.finalists[c.winner].time / c.baseline;
        verdict = ratio <= 1.0 + 1e-9 ? "ok" : "SLOWER";
      }
      std::printf("%-24s explored %4d  frontier %3d  finalists %2zu  "
                  "vs_baseline %.4f  %s\n",
                  c.name.c_str(), c.explored, c.frontier, c.finalists.size(),
                  ratio, verdict);
    }
    std::printf("han_synth: %d cases, %d findings among finalists, "
                "%d/%d wins\n",
                cases, findings, wins, cases);
  }
  return findings == 0 && wins == cases ? 0 : 2;
}
