// Full builder x SearchSpace verification sweep — the backing of the
// `han_verify` CLI and its CI gate.
//
// Two families of cases:
//  * plan.* — the pure Plan builders (tree bcast/reduce, recursive
//    doubling, linear gather/scatter, dissemination barrier, the ring
//    family) across comm sizes, message sizes, and segment sizes, analyzed
//    with analyze_plan.
//  * graph.* — the HAN TaskGraph builders (six 2-level collectives,
//    barrier, multi-leader allreduce, 3-level bcast/allreduce) built for
//    every rank of simulated topologies across the autotuner's full
//    SearchSpace, analyzed with analyze_task_graphs at every window (one
//    wait-for graph per case serves all windows).
//
// Results are deterministic: case names are stable, entries sorted.
#pragma once

#include <string>
#include <vector>

#include "autotune/lookup.hpp"
#include "han/verify/verify.hpp"

namespace han::verify {

struct SweepOptions {
  /// Scheduler windows the graph-level analysis runs at.
  std::vector<int> windows{1, 2, 3};
  bool plans = true;   // plan.* family
  bool graphs = true;  // graph.* family
  /// Full autotuner SearchSpace; false = one config per (fs, smod) smoke
  /// subset (fast local runs).
  bool full_space = true;
  /// Concurrent sweep jobs (han::par). Every job builds its own worlds and
  /// results merge in input order, so any jobs value — including the
  /// serial 1, the default — produces byte-identical reports (0 = one job
  /// per hardware thread).
  int jobs = 1;
};

struct SweepEntry {
  std::string name;
  int actions = 0;
  int errors = 0;
  int warnings = 0;
  std::vector<std::string> lines;  // findings, one per line
};

struct SweepResult {
  std::vector<SweepEntry> entries;  // sorted by name
  int total_errors() const;
  int total_warnings() const;
  /// obs-style report: deterministic key order, totals first.
  std::string to_json() const;
  /// Human summary: totals plus every entry with findings.
  std::string summary() const;
};

SweepResult run_sweep(const SweepOptions& opts = {});

/// Parse a `--windows` list such as "1,2,3": comma-separated decimal
/// windows, each in [1, INT_MAX], no window twice (a repeat would record
/// the same case name twice). False, with `out` cleared, on anything else.
bool parse_windows(const char* arg, std::vector<int>* out);

/// Append `rep` to `out` as entry `name`: one line per finding, plus one
/// `error[truncated]` line when the race analysis hit max_race_pairs.
void record(SweepResult& out, std::string name, const Report& rep);

/// Re-verify every cached synthesized schedule of a lookup table: each
/// entry with a non-empty cfg.sched is rebuilt on its own (nodes, ppn)
/// topology at its bucket's message size and analyzed at its window
/// (entries named "lookup.<kind>.<n>x<p>.log2_<b>"). A mid-carrying id is
/// rebuilt under every NUMA split d of the node (1 < d < p, d | p), one
/// entry each, suffixed ".numa<d>". Unparseable ids and kind mismatches
/// are recorded as defects, never skipped silently.
/// Appends to `out` (the han_verify CLI sorts at the end).
void verify_lookup(const tune::LookupTable& table, SweepResult& out);

}  // namespace han::verify
