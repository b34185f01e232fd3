// han::lint tests: determinism of the guideline sweep (--jobs 1 vs 8
// byte-identical), a golden-pinned diagnostic JSON, the clean smoke
// sweep at zero errors, the full seeded-mutation corpus (every defect
// caught with its expected diagnostic class), the audit mode, the
// perturbation scenarios, and a death test on the assert-backed gates —
// mirroring the test_verify.cpp corpus style.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "autotune/lookup.hpp"
#include "autotune/tunedb.hpp"
#include "han/lint/lint.hpp"
#include "machine/machine.hpp"
#include "simmpi/world.hpp"

namespace han::lint {
namespace {

/// All findings of one diagnostic class across the result.
int count_diag(const LintResult& r, Diag d) {
  int n = 0;
  for (const LintEntry& e : r.entries) {
    for (const Finding& f : e.findings) n += f.code == d;
  }
  return n;
}

machine::MachineProfile stock_profile(const std::string& name) {
  for (const machine::StockMachine& sm : machine::stock_machines()) {
    if (name == sm.name) return sm.profile;
  }
  ADD_FAILURE() << "unknown stock machine " << name;
  return machine::make_aries(2, 8);
}

const Finding* find_diag(const LintResult& r, Diag d) {
  for (const LintEntry& e : r.entries) {
    for (const Finding& f : e.findings) {
      if (f.code == d) return &f;
    }
  }
  return nullptr;
}

// ---- guideline table ---------------------------------------------------

TEST(LintTable, GuidelinesAreWellFormed) {
  const std::vector<Guideline>& table = guideline_table();
  ASSERT_GE(table.size(), 10u);
  for (const Guideline& g : table) {
    EXPECT_NE(g.id, nullptr);
    EXPECT_NE(g.expr, nullptr);
    EXPECT_GE(g.tolerance, 0.0);
    EXPECT_EQ(&guideline(g.id), &g);  // lookup round-trips
  }
  // The cross-kind rules of the issue are present, with their classes.
  EXPECT_EQ(guideline("xk.allreduce_le_red_bc").diag,
            Diag::CrossKindViolation);
  EXPECT_EQ(guideline("xk.scatter_le_bcast").diag, Diag::CrossKindViolation);
  EXPECT_EQ(guideline("stripe.no_regression").diag,
            Diag::StripingRegression);
  EXPECT_EQ(guideline("perturb.regret").diag, Diag::PerturbationRegret);
}

TEST(LintTable, DiagNamesAreStable) {
  EXPECT_STREQ(diag_name(Diag::CrossKindViolation), "cross-kind-violation");
  EXPECT_STREQ(diag_name(Diag::ZcsDiscontinuity), "zcs-discontinuity");
  EXPECT_STREQ(diag_name(Diag::StripingRegression), "striping-regression");
  EXPECT_STREQ(diag_name(Diag::PerturbationRegret), "perturbation-regret");
}

// ---- report format -----------------------------------------------------

/// The JSON shape is golden-pinned on a hand-constructed result so format
/// drift (key order, float formatting, escaping) fails loudly.
TEST(LintReport, GoldenJson) {
  LintResult r;
  LintEntry e;
  e.name = "model.test.bcast";
  e.checks = 3;
  e.errors = 1;
  Finding f;
  f.guideline = "mono.size.model";
  f.code = Diag::SizeMonotonicity;
  f.severity = Severity::Error;
  f.witness_a = "fs=64KB @ 1048576B";
  f.witness_b = "fs=64KB @ 65536B";
  f.lhs = 0.001;
  f.rhs = 0.0025;
  f.margin = 0.6;
  f.message = "cost drops with \"size\"";
  e.findings.push_back(f);
  r.entries.push_back(e);

  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"totals\": {\"cases\": 1, \"checks\": 3, "
                   "\"errors\": 1, \"warnings\": 0}"),
            std::string::npos)
      << j;
  EXPECT_NE(
      j.find("\"model.test.bcast\": {\"checks\": 3, \"errors\": 1, "
             "\"warnings\": 0, \"findings\": [{\"guideline\": "
             "\"mono.size.model\", \"diag\": \"size-monotonicity\", "
             "\"severity\": \"error\", \"witness\": [\"fs=64KB @ "
             "1048576B\", \"fs=64KB @ 65536B\"], \"lhs\": 0.001, \"rhs\": "
             "0.0025, \"margin\": 0.6, \"message\": \"cost drops with "
             "\\\"size\\\"\"}]}"),
      std::string::npos)
      << j;
  // The guideline table itself is embedded for report consumers.
  EXPECT_NE(j.find("\"id\": \"perturb.regret\""), std::string::npos);
}

// ---- clean sweep + determinism -----------------------------------------

TEST(LintSweep, CleanSmokeHasZeroErrors) {
  LintOptions opts = LintOptions::smoke();
  opts.jobs = 8;
  const LintResult r = run_lint(opts);
  EXPECT_GT(r.total_checks(), 100);
  EXPECT_EQ(r.total_errors(), 0) << r.summary();
  // Entries arrive sorted by name (the determinism contract).
  for (std::size_t i = 1; i < r.entries.size(); ++i) {
    EXPECT_LT(r.entries[i - 1].name, r.entries[i].name);
  }
  // All three case families ran on both smoke machines.
  const auto has = [&](const std::string& name) {
    return std::any_of(r.entries.begin(), r.entries.end(),
                       [&](const LintEntry& e) { return e.name == name; });
  };
  EXPECT_TRUE(has("model.aries2x8.bcast"));
  EXPECT_TRUE(has("model.aries2x8.bcast.zcs"));
  EXPECT_TRUE(has("model.aries_rail4.bcast.stripe"));
  EXPECT_TRUE(has("sim.aries2x8"));
  EXPECT_TRUE(has("sim.aries2x8.ppn"));
  EXPECT_TRUE(has("perturb.aries2x8.bcast.degraded_link"));
}

TEST(LintSweep, SmokeReportIsPinned) {
  // The smoke sweep's report, byte for byte (FNV-1a over the JSON): the
  // report writer and the case harness feed it, the cost model and the
  // simulator its numbers.
  LintOptions opts = LintOptions::smoke();
  opts.jobs = 4;
  const std::string json = run_lint(opts).to_json();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : json) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  EXPECT_EQ(json.size(), 6021u);
  EXPECT_EQ(h, 0x3c62aed942fb78a4ull);
}

TEST(LintSweep, JobsAreByteIdentical) {
  LintOptions opts = LintOptions::smoke();
  opts.machines = {"aries2x8"};  // one machine keeps the test tight
  opts.jobs = 1;
  const std::string serial = run_lint(opts).to_json();
  opts.jobs = 8;
  const std::string parallel = run_lint(opts).to_json();
  EXPECT_EQ(serial, parallel);
}

// ---- perturbation scenarios --------------------------------------------

TEST(LintPerturb, ScenariosDerateCapacities) {
  for (const char* scenario : scenario_names()) {
    mpi::SimWorld clean(stock_profile("aries_rail4"));
    mpi::SimWorld dirty(stock_profile("aries_rail4"));
    apply_scenario(dirty, scenario);
    ASSERT_EQ(clean.flownet().resource_count(),
              dirty.flownet().resource_count());
    int derated = 0;
    for (net::ResourceId id = 0;
         id < static_cast<net::ResourceId>(clean.flownet().resource_count());
         ++id) {
      const double before = clean.flownet().capacity(id);
      const double after = dirty.flownet().capacity(id);
      EXPECT_LE(after, before) << scenario;  // never speeds anything up
      derated += after < before;
    }
    EXPECT_GT(derated, 0) << scenario;
  }
}

TEST(LintPerturb, ScenariosAreDeterministic) {
  mpi::SimWorld a(stock_profile("aries2x8"));
  mpi::SimWorld b(stock_profile("aries2x8"));
  apply_scenario(a, "noisy_bw");
  apply_scenario(b, "noisy_bw");
  for (net::ResourceId id = 0;
       id < static_cast<net::ResourceId>(a.flownet().resource_count());
       ++id) {
    EXPECT_EQ(a.flownet().capacity(id), b.flownet().capacity(id));
  }
}

// ---- mutation corpus ---------------------------------------------------

/// The family that can catch a diagnostic class (keeps each corpus run
/// small: one machine, only the relevant sweep family).
LintOptions options_for(Diag expected) {
  LintOptions opts = LintOptions::smoke();
  opts.model = false;
  opts.sim = false;
  opts.perturb = false;
  switch (expected) {
    case Diag::CrossKindViolation:
    case Diag::PpnMonotonicity:
      opts.machines = {"aries2x8"};
      opts.sim = true;
      break;
    case Diag::SizeMonotonicity:
      opts.machines = {"aries2x8"};
      opts.model = true;
      opts.sim = true;
      break;
    case Diag::ZcsDiscontinuity:
      opts.machines = {"aries2x8"};
      opts.model = true;
      break;
    case Diag::StripingRegression:
      opts.machines = {"aries_rail4"};
      opts.model = true;
      break;
    case Diag::PerturbationRegret:
      opts.machines = {"aries2x8"};
      opts.perturb = true;
      break;
    default:
      ADD_FAILURE() << "corpus diag with no sweep family";
  }
  return opts;
}

TEST(LintMutations, CorpusCoversTheRequiredClasses) {
  ASSERT_GE(mutation_corpus().size(), 15u);
  int xk = 0, mono = 0, zcs = 0, stripe = 0, regret = 0;
  for (const Mutation& m : mutation_corpus()) {
    xk += m.expected == Diag::CrossKindViolation;
    mono += m.expected == Diag::SizeMonotonicity ||
            m.expected == Diag::PpnMonotonicity;
    zcs += m.expected == Diag::ZcsDiscontinuity;
    stripe += m.expected == Diag::StripingRegression;
    regret += m.expected == Diag::PerturbationRegret;
    EXPECT_EQ(find_mutation(m.name), &m);
  }
  EXPECT_GE(xk, 3);
  EXPECT_GE(mono, 3);
  EXPECT_GE(zcs, 3);
  EXPECT_GE(stripe, 3);
  EXPECT_GE(regret, 3);
  EXPECT_EQ(find_mutation("no_such_defect"), nullptr);
}

/// The acceptance criterion: every seeded cost-model defect is detected,
/// with its expected diagnostic class, as an Error (the gate trips).
TEST(LintMutations, EverySeededDefectIsCaughtWithItsClass) {
  for (const Mutation& m : mutation_corpus()) {
    LintOptions opts = options_for(m.expected);
    opts.jobs = 8;
    opts.cost_hook = mutation_hook(m.name);
    const LintResult r = run_lint(opts);
    EXPECT_GT(r.total_errors(), 0) << m.name << ": gate did not trip";
    const Finding* f = find_diag(r, m.expected);
    ASSERT_NE(f, nullptr)
        << m.name << " expected " << diag_name(m.expected)
        << " but the sweep reported:\n"
        << r.summary();
    EXPECT_EQ(f->severity, Severity::Error) << m.name;
    EXPECT_FALSE(f->witness_a.empty()) << m.name;
  }
}

// ---- audit mode --------------------------------------------------------

TEST(LintAudit, FlipFlopAndHeuristicContradictionsAreFlagged) {
  tune::LookupTable table;
  core::HanConfig a;  // defaults
  core::HanConfig b = a;
  b.imod = "libnbc";
  b.ibalg = coll::Algorithm::Binomial;
  b.iralg = coll::Algorithm::Binomial;
  b.fs = 64 << 10;
  // A/B/A across three adjacent power-of-two bands.
  table.insert(coll::CollKind::Bcast, 2, 8, 1 << 20, a);
  table.insert(coll::CollKind::Bcast, 2, 8, 2 << 20, b);
  table.insert(coll::CollKind::Bcast, 2, 8, 4 << 20, a);
  // A config the §III-C heuristics reject outright: SOLO below 512KB.
  core::HanConfig solo = a;
  solo.smod = "solo";
  solo.fs = 64 << 10;
  table.insert(coll::CollKind::Allreduce, 2, 8, 1 << 20, solo);

  LintResult r;
  lint_lookup(table, r);
  std::sort(r.entries.begin(), r.entries.end(),
            [](const LintEntry& x, const LintEntry& y) {
              return x.name < y.name;
            });
  EXPECT_EQ(count_diag(r, Diag::DecisionFlipFlop), 1) << r.summary();
  EXPECT_EQ(count_diag(r, Diag::HeuristicContradiction), 1) << r.summary();
  // Audit findings inform; they do not trip the exit-code gate.
  EXPECT_EQ(r.total_errors(), 0);
  EXPECT_EQ(r.total_warnings(), 2);
  const auto named = [&](const std::string& n) {
    return std::any_of(r.entries.begin(), r.entries.end(),
                       [&](const LintEntry& e) { return e.name == n; });
  };
  EXPECT_TRUE(named("audit.bcast.2x8"));
  EXPECT_TRUE(named("audit.allreduce.2x8"));
}

TEST(LintAudit, StableBandsAreClean) {
  tune::LookupTable table;
  core::HanConfig a;
  // From 512KB up: below that the default fs=512KB segment exceeds the
  // message and the §III-C fs-vs-message rule rightly flags it.
  for (int log2 = 19; log2 <= 24; ++log2) {
    table.insert(coll::CollKind::Bcast, 2, 8, std::size_t{1} << log2, a);
  }
  LintResult r;
  lint_lookup(table, r);
  EXPECT_EQ(r.total_errors(), 0);
  EXPECT_EQ(r.total_warnings(), 0);
  EXPECT_GT(r.total_checks(), 0);
}

TEST(LintAudit, TuneDbRecordsArePrefixedBySignature) {
  tune::TuneDb db;
  tune::LookupTable table;
  core::HanConfig a;
  table.insert(coll::CollKind::Bcast, 2, 8, 1 << 20, a);
  const machine::MachineProfile profile =
      stock_profile("aries2x8");
  db.ingest(tune::signature_of(profile), table);

  LintResult r;
  lint_tunedb(db, r);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].name.rfind("db.", 0), 0u) << r.entries[0].name;
  EXPECT_NE(r.entries[0].name.find(".audit.bcast.2x8"), std::string::npos)
      << r.entries[0].name;
}

// ---- gate death test ---------------------------------------------------

TEST(LintGateDeathTest, UnknownScenarioAndMutationAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mpi::SimWorld world(stock_profile("aries2x8"));
        apply_scenario(world, "solar_flare");
      },
      "unknown perturbation scenario");
  EXPECT_DEATH(mutation_hook("no_such_defect"), "unknown mutation name");
}

}  // namespace
}  // namespace han::lint
