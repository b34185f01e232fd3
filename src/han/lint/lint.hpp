// han::lint — static performance-guideline analysis of the autotuner.
//
// The complement of han::verify: verify proves schedules *safe* (no
// races, no deadlocks), lint proves the tuned system's performance
// *self-consistent*. A declarative guideline table in the spirit of
// Hunold's "Tuning MPI Collectives by Verifying Performance Guidelines"
// (PAPERS.md) is evaluated two ways over every stock machine, the
// machine's SearchSpace, and a ladder of message-size bands:
//
//  * model.* — symbolically, through the cost model (autotune/costmodel):
//    per-configuration monotonicity in message size, symbolic-cost
//    continuity across the `zcs` zero-copy switchover (configs in the
//    same routing class must price identically; the class jump is
//    bounded), striped `sf>1` configurations never priced worse than
//    their `sf=1` twin on multi-rail machines, and decision-boundary
//    hysteresis (adjacent band winners must not flip on sub-margin cost
//    differences, and never A/B/A).
//
//  * sim.* — empirically, by measuring the collectives in the simulator:
//    cross-kind rules (allreduce <= reduce + bcast, scatter <= bcast,
//    allreduce <= reduce_scatter + allgather), measured monotonicity in
//    message size, and monotonicity in ppn.
//
//  * perturb.* — PICO-style (PAPERS.md) robustness certification: the
//    tuner's winner is re-measured under perturbed flow networks
//    (degraded link, straggler node, noisy per-resource bandwidths)
//    against a shortlist of runner-up candidates; the winner must stay
//    within a bounded regret of the per-scenario optimum.
//
//  * audit.* — lint existing LookupTable / TuneDb records without
//    re-tuning: band flip-flops and entries contradicting the search
//    heuristics.
//
// Every finding carries the guideline id, the witness configurations,
// and the measured margin; reports serialize as obs-style JSON. Results
// are deterministic and byte-identical for every --jobs value: jobs are
// independent (own worlds), fragments merge in input order, entries sort
// by name. docs/LINT.md has the full guideline table and a worked
// regression example.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "autotune/lookup.hpp"
#include "autotune/tunedb.hpp"

namespace han::lint {

/// Diagnostic classes. Every finding carries exactly one; the mutation
/// corpus asserts each seeded cost-model defect is caught with the
/// expected class.
enum class Diag {
  CrossKindViolation,   // a cross-kind guideline (xk.*) does not hold
  SizeMonotonicity,     // cost decreases as the message grows (mono.size)
  PpnMonotonicity,      // cost decreases as ppn grows (mono.ppn)
  ZcsDiscontinuity,     // zcs routing-class equality / jump bound (zcs.*)
  StripingRegression,   // sf>1 priced worse than its sf=1 twin (stripe.*)
  DecisionFlipFlop,     // band-boundary hysteresis violated (hyst.*)
  PerturbationRegret,   // tuned winner far from per-scenario optimum
  HeuristicContradiction,  // audited record contradicts §III-C heuristics
};

const char* diag_name(Diag d);

enum class Severity { Error, Warning };

/// One row of the declarative guideline table.
struct Guideline {
  const char* id;      // stable identifier, e.g. "xk.allreduce_le_red_bc"
  Diag diag;           // diagnostic class its violations carry
  Severity severity;   // violations gate (Error) or inform (Warning)
  const char* expr;    // human-readable statement of the rule
  double tolerance;    // relative slack the check grants (rule-specific)
};

/// The full table, in deterministic order (docs/LINT.md mirrors it).
const std::vector<Guideline>& guideline_table();

/// Look a guideline up by id; asserts the id exists.
const Guideline& guideline(const char* id);

struct Finding {
  std::string guideline;  // Guideline::id
  Diag code = Diag::CrossKindViolation;
  Severity severity = Severity::Error;
  std::string witness_a;  // violating config / probe point
  std::string witness_b;  // the bound it was compared against
  double lhs = 0.0;       // violating value (seconds)
  double rhs = 0.0;       // bound it exceeded (seconds)
  double margin = 0.0;    // relative excess, rule-specific (see message)
  std::string message;
};

struct LintEntry {
  std::string name;
  int checks = 0;  // guideline evaluations performed
  int errors = 0;
  int warnings = 0;
  std::vector<Finding> findings;
};

struct LintResult {
  std::vector<LintEntry> entries;  // sorted by name
  int total_checks() const;
  int total_errors() const;
  int total_warnings() const;
  /// obs-style report: totals first, the guideline table, then every
  /// case with its structured findings. Deterministic key order and
  /// float formatting.
  std::string to_json() const;
  /// Human summary: totals plus every entry with findings.
  std::string summary() const;
};

/// Mutation seam (test-only): every cost the analyzer consumes — model
/// estimates and simulated measurements alike — flows through the hook,
/// so a seeded defect can bend the numbers exactly where a real
/// cost-model bug would. Identity when unset.
struct CostContext {
  coll::CollKind kind = coll::CollKind::Bcast;
  std::size_t bytes = 0;
  /// Config being priced; nullptr for decider-driven measurements.
  const core::HanConfig* cfg = nullptr;
  bool simulated = false;      // false = symbolic cost-model estimate
  bool winner = false;         // perturb.*: the clean-tune winner
  const char* scenario = "";   // perturb.* scenario name, "" = clean
  int nodes = 0;
  int ppn = 0;
};
using CostHook = std::function<double(const CostContext&, double)>;

struct LintOptions {
  /// Stock machine names to lint (machine::stock_machines()); empty =
  /// every registered machine.
  std::vector<std::string> machines;
  /// Message-size bands (ascending).
  std::vector<std::size_t> sizes{64 << 10, 1 << 20, 8 << 20};
  bool model = true;    // model.* family
  bool sim = true;      // sim.* family
  bool perturb = true;  // perturb.* family
  /// Concurrent lint jobs (han::par); any value — including the serial
  /// default — produces byte-identical reports.
  int jobs = 1;
  /// Perturbation shortlist size: the winner is certified against the
  /// top_k best clean candidates re-measured per scenario.
  int top_k = 5;
  /// Winner regret bound per scenario: t(winner) <= bound * t(best).
  double regret_bound = 1.5;
  /// Band-boundary hysteresis: a winner flip on a relative cost margin
  /// below this is reported (warning).
  double hysteresis = 0.01;
  CostHook cost_hook;  // test-only seeded-defect injector

  /// The reduced sweep tests and the CI mutation smoke run: two
  /// machines (one flat, one multi-rail), two bands.
  static LintOptions smoke();
};

LintResult run_lint(const LintOptions& opts = {});

/// Audit mode: lint the records of an existing lookup table without
/// re-tuning (band flip-flops, heuristic contradictions). Entries are
/// named "<prefix>audit.<kind>.<n>x<p>"; appends to `out` unsorted
/// (han_lint runs it as a par::run_cases case, which sorts).
void lint_lookup(const tune::LookupTable& table, LintResult& out,
                 const std::string& prefix = "");

/// Audit every record of a tuning database (prefix "db.<signature>.").
void lint_tunedb(const tune::TuneDb& db, LintResult& out);

/// Apply a named perturbation scenario to a simulated world's flow
/// network (degraded_link | straggler_node | noisy_bw); asserts on
/// unknown names. Exposed for tests.
void apply_scenario(mpi::SimWorld& world, const std::string& scenario);
const std::vector<const char*>& scenario_names();

/// One seeded cost-model defect of the mutation corpus: its stable name,
/// the diagnostic class the analyzer must catch it with, and what it
/// emulates.
struct Mutation {
  const char* name;
  Diag expected;
  const char* description;
};

/// The corpus (>= 15 defects across cross-kind, monotonicity,
/// zcs-continuity, striping, and perturbation-regret rules).
const std::vector<Mutation>& mutation_corpus();

/// The CostHook implementing a named corpus defect; asserts the name
/// exists. `find_mutation` returns nullptr for unknown names (CLI-safe).
CostHook mutation_hook(const std::string& name);
const Mutation* find_mutation(const std::string& name);

}  // namespace han::lint
