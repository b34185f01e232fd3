// The declarative guideline table and the lint report (obs-style JSON).
#include "han/lint/lint.hpp"

#include <cstring>

#include "simbase/assert.hpp"
#include "simbase/json.hpp"

namespace han::lint {

const char* diag_name(Diag d) {
  switch (d) {
    case Diag::CrossKindViolation: return "cross-kind-violation";
    case Diag::SizeMonotonicity: return "size-monotonicity";
    case Diag::PpnMonotonicity: return "ppn-monotonicity";
    case Diag::ZcsDiscontinuity: return "zcs-discontinuity";
    case Diag::StripingRegression: return "striping-regression";
    case Diag::DecisionFlipFlop: return "decision-flip-flop";
    case Diag::PerturbationRegret: return "perturbation-regret";
    case Diag::HeuristicContradiction: return "heuristic-contradiction";
  }
  return "?";
}

const std::vector<Guideline>& guideline_table() {
  // Tolerances are relative slack, except zcs.class_equal (relative
  // spread within a routing class) and zcs.switch_jump (max cost ratio
  // across the switchover). hyst.* / perturb.regret defaults can be
  // overridden per run via LintOptions.
  static const std::vector<Guideline> kTable = {
      {"xk.allreduce_le_red_bc", Diag::CrossKindViolation, Severity::Error,
       "t(allreduce) <= t(reduce) + t(bcast)", 0.10},
      {"xk.scatter_le_bcast", Diag::CrossKindViolation, Severity::Error,
       "t(scatter) <= t(bcast)", 0.50},
      {"xk.allreduce_le_rs_ag", Diag::CrossKindViolation, Severity::Error,
       "t(allreduce) <= t(reduce_scatter) + t(allgather)", 0.10},
      {"mono.size.model", Diag::SizeMonotonicity, Severity::Error,
       "model cost is nondecreasing in message size, per config", 0.01},
      {"mono.size.sim", Diag::SizeMonotonicity, Severity::Error,
       "measured time is nondecreasing in message size", 0.02},
      {"mono.ppn", Diag::PpnMonotonicity, Severity::Error,
       "measured time is nondecreasing in processes per node", 0.02},
      {"zcs.class_equal", Diag::ZcsDiscontinuity, Severity::Error,
       "configs in one zcs routing class price identically", 1e-6},
      {"zcs.switch_jump", Diag::ZcsDiscontinuity, Severity::Error,
       "cost jump across the zcs switchover stays bounded", 10.0},
      {"stripe.no_regression", Diag::StripingRegression, Severity::Error,
       "sf>1 is never priced worse than its sf=1 twin at striping sizes",
       0.10},
      {"hyst.boundary", Diag::DecisionFlipFlop, Severity::Warning,
       "adjacent-band winner flips carry at least the hysteresis margin",
       0.01},
      {"hyst.flipflop", Diag::DecisionFlipFlop, Severity::Warning,
       "band winners never alternate A/B/A across adjacent bands", 0.0},
      {"perturb.regret", Diag::PerturbationRegret, Severity::Error,
       "tuned winner stays within bounded regret of the per-scenario "
       "optimum",
       1.5},
      {"audit.heuristic", Diag::HeuristicContradiction, Severity::Warning,
       "tuned records respect the paper's Sec. III-C search heuristics",
       0.0},
      {"audit.flipflop", Diag::DecisionFlipFlop, Severity::Warning,
       "tuned bands never alternate A/B/A configurations", 0.0},
  };
  return kTable;
}

const Guideline& guideline(const char* id) {
  for (const Guideline& g : guideline_table()) {
    if (std::strcmp(g.id, id) == 0) return g;
  }
  HAN_ASSERT_MSG(false, "unknown guideline id");
  return guideline_table().front();
}

int LintResult::total_checks() const {
  int n = 0;
  for (const LintEntry& e : entries) n += e.checks;
  return n;
}

int LintResult::total_errors() const {
  int n = 0;
  for (const LintEntry& e : entries) n += e.errors;
  return n;
}

int LintResult::total_warnings() const {
  int n = 0;
  for (const LintEntry& e : entries) n += e.warnings;
  return n;
}

namespace {

using sim::json_number;
using sim::json_string;

const char* severity_name(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

std::string finding_json(const Finding& f) {
  return "{\"guideline\": " + json_string(f.guideline) +
         ", \"diag\": " + json_string(diag_name(f.code)) +
         ", \"severity\": " + json_string(severity_name(f.severity)) +
         ", \"witness\": [" + json_string(f.witness_a) + ", " +
         json_string(f.witness_b) + "], \"lhs\": " + json_number(f.lhs) +
         ", \"rhs\": " + json_number(f.rhs) +
         ", \"margin\": " + json_number(f.margin) +
         ", \"message\": " + json_string(f.message) + "}";
}

}  // namespace

std::string LintResult::to_json() const {
  std::string j = "{\n  \"totals\": {\"cases\": " +
                  std::to_string(entries.size()) +
                  ", \"checks\": " + std::to_string(total_checks()) +
                  ", \"errors\": " + std::to_string(total_errors()) +
                  ", \"warnings\": " + std::to_string(total_warnings()) +
                  "},\n  \"guidelines\": [\n";
  const std::vector<Guideline>& table = guideline_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Guideline& g = table[i];
    j += "    {\"id\": " + json_string(g.id) +
         ", \"diag\": " + json_string(diag_name(g.diag)) +
         ", \"severity\": " + json_string(severity_name(g.severity)) +
         ", \"expr\": " + json_string(g.expr) +
         ", \"tolerance\": " + json_number(g.tolerance) + "}";
    j += i + 1 < table.size() ? ",\n" : "\n";
  }
  j += "  ],\n  \"cases\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const LintEntry& e = entries[i];
    j += "    " + json_string(e.name) +
         ": {\"checks\": " + std::to_string(e.checks) +
         ", \"errors\": " + std::to_string(e.errors) +
         ", \"warnings\": " + std::to_string(e.warnings) +
         ", \"findings\": [";
    for (std::size_t k = 0; k < e.findings.size(); ++k) {
      if (k > 0) j += ", ";
      j += finding_json(e.findings[k]);
    }
    j += "]}";
    j += i + 1 < entries.size() ? ",\n" : "\n";
  }
  j += "  }\n}\n";
  return j;
}

std::string LintResult::summary() const {
  std::string s = std::to_string(entries.size()) + " cases, " +
                  std::to_string(total_checks()) + " checks, " +
                  std::to_string(total_errors()) + " errors, " +
                  std::to_string(total_warnings()) + " warnings\n";
  for (const LintEntry& e : entries) {
    if (e.findings.empty()) continue;
    s += e.name + ":\n";
    for (const Finding& f : e.findings) {
      s += std::string("  ") + severity_name(f.severity) + "[" +
           f.guideline + "]: " + f.message + "\n";
    }
  }
  return s;
}

}  // namespace han::lint
