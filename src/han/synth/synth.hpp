// han::synth — bounded, verified schedule synthesis over the TaskGraph IR
// (docs/SYNTHESIS.md).
//
// Pipeline per (collective, message size) case:
//   1. enumerate the generator grammar (generator.hpp) across a small set
//      of base Table II configs, and score every candidate with the
//      symbolic cost walk (cost.hpp);
//   2. prune to the (lat, bw) pareto frontier, then locally mutate the
//      frontier with the deterministic sim::Rng and re-prune;
//   3. gate the survivors through han::verify::analyze_task_graphs — a
//      candidate with ANY finding never reaches execution;
//   4. score the verified finalists (plus the canonical hand-written
//      shape, always included) in the simulator through the ordinary
//      TaskScheduler path, against a baseline of the same base configs
//      dispatched to the hand-written builders;
//   5. persist each case's winner as a first-class LookupTable entry
//      (cfg.sched = the spec id), dispatched by the LookupTable's
//      decider exactly like any tuned config.
//
// Everything is deterministic: fixed seeds, sorted candidate orders, a
// simulated fitness oracle, and a byte-stable JSON report (tools/han_synth
// gates CI on it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autotune/lookup.hpp"
#include "han/synth/cost.hpp"
#include "han/synth/generator.hpp"

namespace han::synth {

struct SynthOptions {
  int nodes = 2;
  int ppn = 2;
  /// NUMA domains per node. 1 (the default) keeps the flat machine and
  /// grammar — reports are byte-identical to before the knob existed.
  /// Above 1 the case worlds are NUMA machines (machine::with_numa), the
  /// three-level chain (mr/mb stages, docs/HIERARCHY.md) joins the
  /// enumeration alongside the flat one, and the canonical three-level
  /// ladder shape joins the always-included finalists.
  int numa = 1;
  /// Fabric rails (NICs per node, docs/FABRIC.md). 1 (the default) keeps
  /// reports byte-identical to the pre-rail synthesizer. Above 1 the case
  /// worlds are multi-rail machines (machine::with_rails), the rail-stripe
  /// axis (":r<sf>" ids) joins the enumeration, and the symbolic cost
  /// divides the inter byte term by the stripe.
  int rails = 1;
  std::vector<coll::CollKind> kinds{coll::CollKind::Allreduce,
                                    coll::CollKind::Bcast};
  std::vector<std::size_t> sizes{64 << 10, 1 << 20};
  /// Base Table II axes crossed with every spec (adapt/Binary inter).
  std::vector<std::size_t> fs_sizes{64 << 10, 256 << 10};
  std::vector<int> windows{1, 2};
  std::uint64_t seed = 1;
  int mutation_rounds = 2;
  int mutants_per_round = 16;
  /// Pareto survivors entering the verify gate (and, if clean, the
  /// simulator) per case, beyond the always-included canonical shape.
  int max_finalists = 6;
  GeneratorOptions grammar;
  /// Concurrent (kind, size) case jobs (han::par). Cases already own their
  /// worlds and rng streams, and results merge in input order before the
  /// name sort, so every jobs value produces byte-identical reports
  /// (0 = one job per hardware thread).
  int jobs = 1;
};

struct Candidate {
  core::HanConfig cfg;  // cfg.sched carries the spec id
  SynthSpec spec;
  CostPoint cost;
  bool verified = false;  // passed the gate with zero findings
  int verify_errors = 0;
  int verify_warnings = 0;
  double time = -1.0;  // simulated seconds; -1 = not measured
};

struct SynthCase {
  std::string name;  // e.g. "allreduce.2x2.1M"
  coll::CollKind kind = coll::CollKind::Allreduce;
  std::size_t bytes = 0;
  int explored = 0;  // spec x config candidates costed
  int frontier = 0;  // pareto survivors after mutation
  double baseline = -1.0;  // best hand-written base config, simulated s
  std::string baseline_cfg;
  std::vector<Candidate> finalists;  // gate results, sorted by cfg string
  int winner = -1;                   // index into finalists; -1 = none
};

struct SynthResult {
  SynthOptions opts;
  std::vector<SynthCase> cases;

  /// Verify findings among finalists (CI gates on 0).
  int finalist_findings() const;
  /// Cases whose winner matches or beats the hand-written baseline.
  int wins() const;
  /// Winners as lookup-table entries (kind, nodes, ppn, bytes -> cfg).
  tune::LookupTable winners() const;
  /// Deterministic obs-style report (totals first, sorted cases).
  std::string to_json() const;
};

SynthResult run_synthesis(const SynthOptions& opts = {});

}  // namespace han::synth
