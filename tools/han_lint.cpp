// han_lint — the performance-guideline gate for the autotuner.
//
//   han_lint [--smoke] [--machine <name>]... [--sizes 64K,1M]
//            [--no-model] [--no-sim] [--no-perturb] [--jobs N]
//            [--mutate <name>] [--audit-lookup <path>] [--audit-db <path>]
//            [--json <path>] [--quiet]
//
// Runs the han::lint sweep (docs/LINT.md): Hunold-style cross-kind and
// monotonicity guidelines plus HAN-specific invariants (zcs continuity,
// stripe regression, decision hysteresis) over every stock machine, and a
// PICO-style perturbation pass certifying tuned winners under degraded
// links, straggler nodes, and noisy bandwidths.
//
// --jobs N runs the independent lint cases on N threads (0 = one per
// hardware thread); reports are byte-identical for every N.
//
// --mutate <name> seeds one corpus defect into every cost the analyzer
// consumes — CI smoke-asserts the gate then exits non-zero.
//
// --sizes takes strictly ascending byte sizes (64K, 1M, 4096, ...).
//
// --audit-lookup / --audit-db lint saved LookupTable / TuneDb records
// instead of running the sweep. Exit status: 0 = clean, 1 = bad
// arguments or unreadable input, 2 = errors.
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "autotune/lookup.hpp"
#include "autotune/tunedb.hpp"
#include "cli.hpp"
#include "han/lint/lint.hpp"
#include "parallel/pool.hpp"

int main(int argc, char** argv) {
  using namespace han;
  lint::LintOptions opts;
  bool quiet = false;
  std::string json_path;
  std::string lookup_path;
  std::string db_path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--smoke") == 0) {
      const int jobs = opts.jobs;
      const lint::CostHook hook = opts.cost_hook;
      opts = lint::LintOptions::smoke();
      opts.jobs = jobs;
      opts.cost_hook = hook;
    } else if (std::strcmp(a, "--no-model") == 0) {
      opts.model = false;
    } else if (std::strcmp(a, "--no-sim") == 0) {
      opts.sim = false;
    } else if (std::strcmp(a, "--no-perturb") == 0) {
      opts.perturb = false;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(a, "--machine") == 0 && i + 1 < argc) {
      opts.machines.push_back(argv[++i]);
    } else if (std::strcmp(a, "--sizes") == 0 && i + 1 < argc) {
      // The bands must ascend: every cross-band check compares a band
      // with the one before it.
      if (!cli::size_list(argv[++i], /*ascending=*/true, &opts.sizes)) {
        return cli::bad_value("han_lint", a, argv[i]);
      }
    } else if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      opts.jobs = par::parse_jobs(argv[++i]);
      if (opts.jobs < 0) return cli::bad_value("han_lint", a, argv[i]);
    } else if (std::strcmp(a, "--mutate") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (lint::find_mutation(name) == nullptr) {
        std::fprintf(stderr, "han_lint: unknown mutation '%s'\n", name);
        return 1;
      }
      opts.cost_hook = lint::mutation_hook(name);
    } else if (std::strcmp(a, "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(a, "--audit-lookup") == 0 && i + 1 < argc) {
      lookup_path = argv[++i];
    } else if (std::strcmp(a, "--audit-db") == 0 && i + 1 < argc) {
      db_path = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: han_lint [--smoke] [--machine <name>]... "
          "[--sizes 64K,1M,...] [--no-model] [--no-sim] [--no-perturb] "
          "[--jobs N] [--mutate <name>] [--audit-lookup <path>] "
          "[--audit-db <path>] [--json <path>] [--quiet]\n");
      return std::strcmp(a, "--help") == 0 ? 0 : 1;
    }
  }

  lint::LintResult result;
  if (!lookup_path.empty() || !db_path.empty()) {
    std::vector<std::function<void(lint::LintResult&)>> audits;
    if (!lookup_path.empty()) {
      const std::optional<tune::LookupTable> table =
          tune::LookupTable::load(lookup_path);
      if (!table.has_value()) {
        std::fprintf(stderr, "han_lint: cannot load lookup table '%s'\n",
                     lookup_path.c_str());
        return 1;
      }
      audits.push_back(
          [t = *table](lint::LintResult& r) { lint::lint_lookup(t, r); });
    }
    if (!db_path.empty()) {
      const std::optional<tune::TuneDb> db = tune::TuneDb::load(db_path);
      if (!db.has_value()) {
        std::fprintf(stderr, "han_lint: cannot load tuning db '%s'\n",
                     db_path.c_str());
        return 1;
      }
      audits.push_back(
          [d = *db](lint::LintResult& r) { lint::lint_tunedb(d, r); });
    }
    result = par::run_cases(opts.jobs, audits);
  } else {
    result = lint::run_lint(opts);
  }

  if (!json_path.empty() &&
      !cli::write_file("han_lint", json_path, result.to_json())) {
    return 1;
  }
  if (!quiet) {
    std::fputs(result.summary().c_str(), stdout);
  }
  return result.total_errors() == 0 ? 0 : 2;
}
