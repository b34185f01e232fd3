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

#include <cstddef>
#include <functional>
#include <span>
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

/// One case job of a sweep: builds its own worlds and appends its
/// entries to a private fragment (han::par::run_cases merges them).
using SweepCase = std::function<void(SweepResult&)>;

/// The sweep's case jobs in their fixed order; each copies what it needs
/// of `opts`. han_verify appends its execution matrix to this list.
std::vector<SweepCase> sweep_cases(const SweepOptions& opts);

/// par::run_cases(opts.jobs, sweep_cases(opts)).
SweepResult run_sweep(const SweepOptions& opts = {});

/// Outcome of verify_collective: the first structural defect, or one
/// report per window.
struct GraphCheck {
  std::string defect;           // "rank <r>: <validate_graph message>"
  std::vector<Report> reports;  // one per window; empty on a defect
};

/// Build every rank's graph of `kind` on `world` over `bytes` per rank
/// (root 0, element type `dtype`, configuration `cfg`), validate each with
/// task::validate_graph, and analyze them together at every window of
/// `windows` (analyze_task_graphs). Validation stops at the first rank
/// whose graph is malformed.
GraphCheck verify_collective(core::HanWorld& world, coll::CollKind kind,
                             std::size_t bytes, mpi::Datatype dtype,
                             const core::HanConfig& cfg,
                             std::span<const int> windows);

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
/// Appends to `out`.
void verify_lookup(const tune::LookupTable& table, SweepResult& out);

}  // namespace han::verify
