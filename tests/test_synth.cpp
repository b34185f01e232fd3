// han::synth — spec grammar, canonical-shape equivalence, synthesis
// determinism, and the winner cache round trip (docs/SYNTHESIS.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "autotune/search.hpp"
#include "coll/registry.hpp"
#include "han/han.hpp"
#include "han/synth/synth.hpp"
#include "han/task/builders.hpp"
#include "han/verify/sweep.hpp"
#include "machine/machine.hpp"

namespace han {
namespace {

using coll::CollKind;
using core::HanConfig;
using mpi::BufView;
using mpi::Datatype;
using synth::SynthSpec;

HanConfig base_cfg(std::size_t fs, int window) {
  HanConfig cfg;
  cfg.fs = fs;
  cfg.imod = "adapt";
  cfg.smod = "sm";
  cfg.ibalg = coll::Algorithm::Binary;
  cfg.iralg = coll::Algorithm::Binary;
  cfg.ibs = 32 << 10;
  cfg.irs = 32 << 10;
  cfg.window = window;
  return cfg;
}

/// Node-for-node graph equality: op, level, step, deps and the whole call
/// (module, comm, ranks, buffers, config, stripe).
void expect_same_graph(const task::TaskGraph& a, const task::TaskGraph& b,
                       const std::string& label) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << label;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_TRUE(a.nodes[i] == b.nodes[i]) << label << " node " << i;
  }
}

// --- spec grammar -----------------------------------------------------------

TEST(SynthSpecTest, IdParseRoundTripAcrossGrammar) {
  for (CollKind kind : {CollKind::Allreduce, CollKind::Bcast}) {
    const std::vector<SynthSpec> specs = synth::enumerate_specs(kind, 4);
    ASSERT_FALSE(specs.empty());
    for (const SynthSpec& spec : specs) {
      EXPECT_TRUE(spec.validate().empty()) << spec.id();
      SynthSpec back;
      ASSERT_TRUE(SynthSpec::parse(spec.id(), &back)) << spec.id();
      EXPECT_EQ(back, spec) << spec.id();
      EXPECT_EQ(back.id(), spec.id());
    }
  }
  EXPECT_TRUE(SynthSpec::canonical(CollKind::Allreduce).validate().empty());
  EXPECT_TRUE(SynthSpec::canonical(CollKind::Bcast).validate().empty());
}

TEST(SynthSpecTest, StripeTokenRoundTripAcrossGrammar) {
  // sf=1 is omitted from ids, so pre-rail ids are byte-identical.
  SynthSpec spec = SynthSpec::canonical(CollKind::Allreduce);
  EXPECT_EQ(spec.id().find(":r"), std::string::npos);
  spec.sf = 4;
  EXPECT_NE(spec.id().find(":r4:"), std::string::npos);
  SynthSpec back;
  ASSERT_TRUE(SynthSpec::parse(spec.id(), &back)) << spec.id();
  EXPECT_EQ(back, spec);

  // A multi-rail grammar enumerates striped specs, and every one
  // round-trips; a single-rail grammar never emits a stripe token even
  // when stripe_factors asks for one.
  synth::GeneratorOptions rail4;
  rail4.rails = 4;
  bool striped = false;
  for (const SynthSpec& s :
       synth::enumerate_specs(CollKind::Allreduce, 4, rail4)) {
    EXPECT_TRUE(s.validate().empty()) << s.id();
    SynthSpec b;
    ASSERT_TRUE(SynthSpec::parse(s.id(), &b)) << s.id();
    EXPECT_EQ(b.id(), s.id());
    striped = striped || s.sf > 1;
  }
  EXPECT_TRUE(striped);
  for (const SynthSpec& s : synth::enumerate_specs(CollKind::Bcast, 4)) {
    EXPECT_EQ(s.sf, 1) << s.id();
  }
}

TEST(SynthSpecTest, RejectsMalformedAndTruncatedIds) {
  const char* bad[] = {
      "",
      "ar1",
      "ar1:k1",
      "ar9:k1:sr0.ir1.ib2.sb3",     // unknown grammar version
      "xx1:k1:sr0.ir1.ib2.sb3",     // unknown kind tag
      "ar1:k1:sr0.ir1.ib2",         // missing stage
      "ar1:k1:sr0.ir1.ib2.sb",      // truncated trailing lag
      "ar1:k1:sr0.ir1.ib2.sb3.",    // trailing separator
      "ar1:k1:sr0.ir1.ib2.sb3x",    // trailing junk
      "ar1:k1:sr0.ir1.ib2.sb3.sb4", // duplicate stage
      "ar1:k0:sr0.ir1.ib2.sb3",     // leaders < 1
      "ar1:k999:sr0.ir1.ib2.sb3",   // leaders > kMaxLeaders
      "ar1:k1:sr1.ir1.ib2.sb3",     // chain head lag != 0
      "ar1:k1:sr0.ir1.ib0.sb3",     // lag decreasing along the chain
      "ar1:k1:ir0.sr0.ib1.sb2",     // equal-lag prerequisite emitted late
      "bc1:k2:ib0.sb1",             // bcast is single-leader
      "bc1:k1:ib0",                 // missing stage
      "ar1:k1:r:sr0.ir1.ib2.sb3",   // stripe token without a digit
      "ar1:k1:r0:sr0.ir1.ib2.sb3",  // stripe factor < 1
      "ar1:k1:r999:sr0.ir1.ib2.sb3",  // stripe factor > kMaxStripe
      "ar1:k1:r2",                  // stripe token then nothing
      "ar1:k1:r2sr0.ir1.ib2.sb3",   // missing colon after the stripe
      "bc1:k1:r:ib0.sb1",           // bcast stripe without a digit
  };
  for (const char* id : bad) {
    SynthSpec spec;
    EXPECT_FALSE(SynthSpec::parse(id, &spec)) << "'" << id << "'";
  }
}

// --- canonical ids == default dispatch -------------------------------------
//
// The ladder builder is the only bcast/allreduce builder: dispatching the
// canonical spec ids through cfg.sched must reproduce the default ladder
// node for node on every shape, degenerate ones included.

struct CanonCase {
  const char* tag;
  const char* stock;  // a stock machine by name, else aries nodes x ppn
  int nodes, ppn, numa;
  int sf;             // HanConfig::sf of both dispatches
};

void PrintTo(const CanonCase& c, std::ostream* os) { *os << c.tag; }

machine::MachineProfile canon_profile(const CanonCase& c) {
  if (c.stock != nullptr) {
    for (const machine::StockMachine& sm : machine::stock_machines()) {
      if (std::string(sm.name) == c.stock) return sm.profile;
    }
    ADD_FAILURE() << "no stock machine " << c.stock;
  }
  return machine::with_numa(machine::make_aries(c.nodes, c.ppn), c.numa);
}

class CanonicalDispatch : public ::testing::TestWithParam<CanonCase> {};

TEST_P(CanonicalDispatch, SpecIdMatchesDefaultLadder) {
  const CanonCase& c = GetParam();
  core::HanWorld sw(canon_profile(c));
  const mpi::Comm& wc = sw.world.world_comm();
  const int n = wc.size();
  // On a NUMA machine default dispatch runs the derived 3-level ladder.
  const bool numa = sw.world.profile().numa_per_node > 1;
  auto canonical = [numa](CollKind kind) {
    return (numa ? SynthSpec::canonical3(kind) : SynthSpec::canonical(kind))
        .id();
  };
  for (std::size_t bytes : {std::size_t{64} << 10, std::size_t{1} << 20}) {
    for (int window : {1, 2}) {
      HanConfig cfg = base_cfg(64 << 10, window);
      cfg.sf = c.sf;
      HanConfig ar = cfg;
      ar.sched = canonical(CollKind::Allreduce);
      HanConfig bc = cfg;
      bc.sched = canonical(CollKind::Bcast);
      const std::string at = std::string(c.tag) + " " +
                             std::to_string(bytes) + "B w" +
                             std::to_string(window);
      for (int me = 0; me < n; ++me) {
        expect_same_graph(
            task::build_allreduce(sw.han, wc, me, BufView::timing_only(bytes),
                                  BufView::timing_only(bytes), Datatype::Byte,
                                  mpi::ReduceOp::Sum, cfg),
            task::build_allreduce(sw.han, wc, me, BufView::timing_only(bytes),
                                  BufView::timing_only(bytes), Datatype::Byte,
                                  mpi::ReduceOp::Sum, ar),
            at + " allreduce rank " + std::to_string(me));
        for (int root : {0, n - 1}) {
          expect_same_graph(
              task::build_bcast(sw.han, wc, me, root,
                                BufView::timing_only(bytes), Datatype::Byte,
                                cfg),
              task::build_bcast(sw.han, wc, me, root,
                                BufView::timing_only(bytes), Datatype::Byte,
                                bc),
              at + " bcast root " + std::to_string(root) + " rank " +
                  std::to_string(me));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CanonicalDispatch,
    ::testing::Values(
        // The paper's flat 2-level ladder.
        CanonCase{"flat_2x4", nullptr, 2, 4, 1, 1},
        // One node: the ladder collapses to a single intra operation.
        CanonCase{"one_node", nullptr, 1, 4, 1, 1},
        // One proc per node: the dead intra level keeps its lag slot.
        CanonCase{"one_ppn", nullptr, 6, 1, 1, 1},
        // World of one: nothing moves.
        CanonCase{"one_rank", nullptr, 1, 1, 1, 1},
        // NUMA: default dispatch derives numa < node < cluster.
        CanonCase{"numa_2x2x4", nullptr, 2, 4, 2, 1},
        CanonCase{"aries_numa2x2x4", "aries_numa2x2x4", 0, 0, 1, 1},
        // Four rails, inter stages striped four ways.
        CanonCase{"aries_rail4_sf4", "aries_rail4", 0, 0, 1, 4}),
    [](const ::testing::TestParamInfo<CanonCase>& shape) {
      return std::string(shape.param.tag);
    });

TEST(SynthDispatchTest, CanonicalIdHonorsZeroCopySwitchover) {
  // Under cfg.zcs the intra stages of a small message run the p2p module,
  // whether the schedule is the default ladder or named by a spec id.
  const std::size_t bytes = 64 << 10;
  for (CollKind kind : {CollKind::Allreduce, CollKind::Bcast}) {
    HanConfig cfg = base_cfg(16 << 10, 1);
    cfg.zcs = 256 << 10;
    auto measure = [&](const HanConfig& c) {
      core::HanWorld sw(machine::make_aries(2, 4));
      tune::Searcher searcher(sw.world, sw.han, sw.world.world_comm());
      return searcher.measure_collective(kind, bytes, c);
    };
    const double plain = measure(cfg);
    cfg.sched = SynthSpec::canonical(kind).id();
    EXPECT_EQ(measure(cfg), plain) << coll::coll_kind_name(kind);
  }
}

// --- HanConfig round trip ---------------------------------------------------

TEST(SynthConfigTest, SchedFieldRoundTripsAndFailsLoudlyWhenTruncated) {
  HanConfig cfg = base_cfg(64 << 10, 2);
  cfg.sched = SynthSpec::canonical(CollKind::Allreduce).id();
  HanConfig back;
  ASSERT_TRUE(HanConfig::parse(cfg.to_string(), &back));
  EXPECT_EQ(back.sched, cfg.sched);
  EXPECT_EQ(back.to_string(), cfg.to_string());

  // A truncated schedule id must fail the whole parse, not silently
  // dispatch to the hand-written builders.
  std::string text = cfg.to_string();
  text.resize(text.size() - 1);
  EXPECT_FALSE(HanConfig::parse(text, &back)) << text;
  EXPECT_FALSE(HanConfig::parse("fs=64K sched=", &back));
  EXPECT_FALSE(HanConfig::parse("fs=64K sched=ar1", &back));
}

// --- cost model -------------------------------------------------------------

TEST(SynthCostTest, CostsArePositiveAndBandwidthDominatesLatency) {
  const HanConfig cfg = base_cfg(64 << 10, 1);
  const synth::CostPoint c = synth::symbolic_cost(
      SynthSpec::canonical(CollKind::Allreduce), cfg, 4, 8, 1 << 20);
  EXPECT_GT(c.lat, 0.0);
  // The bw walk covers every segment, the lat walk at most two.
  EXPECT_GE(c.bw, c.lat);
  synth::CostPoint a{1.0, 2.0};
  EXPECT_TRUE(a.dominates(synth::CostPoint{1.0, 3.0}));
  EXPECT_FALSE(a.dominates(a));
  EXPECT_FALSE(a.dominates(synth::CostPoint{0.5, 3.0}));
}

/// FNV-1a over a byte string: the goldens below pin long deterministic
/// outputs as one 64-bit digest.
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(SynthCostTest, SymbolicCostPinnedAcrossTheGrammar) {
  // (lat, bw) of every enumerated spec, bit for bit, on a flat, a NUMA and
  // a 4-rail machine: any change to the chain table or the walk shows.
  struct Golden {
    int nodes, ppn, numa, rails;
    int points;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {2, 4, 1, 1, 4400, 0xa08e0c64dcdda9e0ull},
      {2, 4, 2, 1, 7340, 0x4524de9aef441155ull},
      {2, 4, 1, 4, 13200, 0x191adeac531bfa7full},
  };
  for (const Golden& gm : kGolden) {
    std::uint64_t h = fnv1a("");
    int points = 0;
    for (CollKind kind : {CollKind::Allreduce, CollKind::Bcast}) {
      synth::GeneratorOptions g;
      g.rails = gm.rails;
      std::vector<SynthSpec> specs = synth::enumerate_specs(kind, gm.ppn, g);
      if (gm.numa > 1) {
        g.three_level = true;
        for (const SynthSpec& s : synth::enumerate_specs(kind, gm.ppn, g)) {
          specs.push_back(s);
        }
      }
      for (const SynthSpec& spec : specs) {
        for (int window : {1, 2}) {
          for (std::size_t bytes :
               {std::size_t{64} << 10, std::size_t{1} << 20}) {
            const synth::CostPoint c = synth::symbolic_cost(
                spec, base_cfg(64 << 10, window), gm.nodes, gm.ppn, bytes,
                gm.numa, gm.rails);
            char line[192];
            std::snprintf(line, sizeof line, "%s w%d %zu %a %a\n",
                          spec.id().c_str(), window, bytes, c.lat, c.bw);
            h = fnv1a(line, h);
            ++points;
          }
        }
      }
    }
    const std::string at = std::to_string(gm.nodes) + "x" +
                           std::to_string(gm.numa) + "x" +
                           std::to_string(gm.ppn) + " rails " +
                           std::to_string(gm.rails);
    EXPECT_EQ(points, gm.points) << at;
    EXPECT_EQ(h, gm.digest) << at << std::hex << " digest 0x" << h;
  }
}

// --- synthesis engine -------------------------------------------------------

synth::SynthOptions tiny_options() {
  synth::SynthOptions opts;
  opts.sizes = {64 << 10};
  opts.fs_sizes = {64 << 10};
  opts.windows = {2};
  opts.mutation_rounds = 1;
  opts.mutants_per_round = 4;
  opts.max_finalists = 3;
  return opts;
}

TEST(SynthEngineTest, DeterministicAcrossRuns) {
  const synth::SynthOptions opts = tiny_options();
  const synth::SynthResult a = synth::run_synthesis(opts);
  const synth::SynthResult b = synth::run_synthesis(opts);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.winners().serialize(), b.winners().serialize());
  ASSERT_EQ(a.cases.size(), b.cases.size());
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    ASSERT_EQ(a.cases[i].winner, b.cases[i].winner);
    if (a.cases[i].winner < 0) continue;
    EXPECT_EQ(a.cases[i].finalists[a.cases[i].winner].cfg.to_string(),
              b.cases[i].finalists[b.cases[i].winner].cfg.to_string());
  }
}

TEST(SynthEngineTest, FinalistsVerifyCleanAndWinnersNeverLose) {
  const synth::SynthResult r = synth::run_synthesis(tiny_options());
  EXPECT_EQ(r.finalist_findings(), 0);
  ASSERT_EQ(r.cases.size(), 2u);  // allreduce + bcast at one size
  EXPECT_EQ(r.wins(), 2);
  for (const synth::SynthCase& c : r.cases) {
    ASSERT_GE(c.winner, 0) << c.name;
    ASSERT_GT(c.baseline, 0.0) << c.name;
    const synth::Candidate& w = c.finalists[c.winner];
    EXPECT_TRUE(w.verified) << c.name;
    EXPECT_LE(w.time, c.baseline * (1.0 + 1e-9)) << c.name;
    EXPECT_FALSE(w.cfg.sched.empty()) << c.name;
  }
}

TEST(SynthEngineTest, WinnerSurvivesSerializeLoadDispatchRoundTrip) {
  const synth::SynthOptions opts = tiny_options();
  const synth::SynthResult r = synth::run_synthesis(opts);
  const std::string text = r.winners().serialize();

  tune::LookupTable table;
  ASSERT_TRUE(tune::LookupTable::deserialize(text, &table)) << text;
  EXPECT_EQ(table.serialize(), text);

  // Every reloaded winner re-verifies clean...
  verify::SweepResult sweep;
  verify::verify_lookup(table, sweep);
  EXPECT_EQ(sweep.entries.size(), r.cases.size());
  EXPECT_EQ(sweep.total_errors(), 0) << sweep.summary();
  EXPECT_EQ(sweep.total_warnings(), 0) << sweep.summary();

  // ...and dispatches through the ordinary cfg entry points, reproducing
  // the exact time the synthesizer measured (the simulator is
  // deterministic and measurements are translation-invariant).
  core::HanWorld sw(machine::make_aries(opts.nodes, opts.ppn));
  tune::Searcher searcher(sw.world, sw.han, sw.world.world_comm());
  for (const synth::SynthCase& c : r.cases) {
    const HanConfig* cfg =
        table.find(c.kind, opts.nodes, opts.ppn, c.bytes);
    ASSERT_NE(cfg, nullptr) << c.name;
    EXPECT_EQ(cfg->to_string(), c.finalists[c.winner].cfg.to_string());
    const double t = searcher.measure_collective(c.kind, c.bytes, *cfg);
    EXPECT_NEAR(t, c.finalists[c.winner].time,
                1e-12 + 1e-9 * c.finalists[c.winner].time)
        << c.name;
  }
}

TEST(SynthEngineTest, RailSynthesisReportIsPinned) {
  // A 4-rail synthesis report, byte for byte: the striped candidates'
  // graphs, gate results and simulated times all feed it.
  synth::SynthOptions opts = tiny_options();
  opts.ppn = 4;
  opts.rails = 4;
  const std::string json = synth::run_synthesis(opts).to_json();
  EXPECT_EQ(json.size(), 2654u);
  EXPECT_EQ(fnv1a(json), 0x981d6068cd0b6491ull) << json;
}

// --- three-level grammar (derived NUMA ladders, docs/HIERARCHY.md) ----------

TEST(SynthSpec3Test, ThreeLevelGrammarRoundTripsAndDetectsMidRoles) {
  for (CollKind kind : {CollKind::Allreduce, CollKind::Bcast}) {
    synth::GeneratorOptions g3;
    g3.three_level = true;
    const std::vector<SynthSpec> specs = synth::enumerate_specs(kind, 4, g3);
    ASSERT_FALSE(specs.empty());
    for (const SynthSpec& spec : specs) {
      EXPECT_TRUE(spec.three_level()) << spec.id();
      EXPECT_TRUE(spec.validate().empty()) << spec.id();
      SynthSpec back;
      ASSERT_TRUE(SynthSpec::parse(spec.id(), &back)) << spec.id();
      EXPECT_EQ(back, spec) << spec.id();
    }
    const SynthSpec canon3 = SynthSpec::canonical3(kind);
    EXPECT_TRUE(canon3.validate().empty()) << canon3.id();
    EXPECT_TRUE(canon3.three_level());
    SynthSpec back;
    ASSERT_TRUE(SynthSpec::parse(canon3.id(), &back));
    EXPECT_EQ(back, canon3);
  }
  EXPECT_EQ(SynthSpec::canonical3(CollKind::Allreduce).id(),
            "ar1:k1:sr0.mr1.ir2.ib3.mb4.sb5");
  EXPECT_EQ(SynthSpec::canonical3(CollKind::Bcast).id(), "bc1:k1:ib0.mb1.sb2");
  // Flat specs never report a mid chain.
  EXPECT_FALSE(SynthSpec::canonical(CollKind::Allreduce).three_level());
}

TEST(SynthSpec3Test, LoneOrPartialMidRolesAreRejectedLoudly) {
  const char* bad[] = {
      "ar1:k1:sr0.mr1.ir2.ib3.sb4",     // mr without mb: wrong multiset
      "ar1:k1:sr0.ir1.ib2.mb3.sb4",     // mb without mr
      "bc1:k1:mb0.sb1",                 // mid chain head must be ib
      "bc1:k1:ib0.mb1.mb2.sb3",         // duplicate mid stage
      "ar1:k1:sr0.ir1.mr2.ib3.mb4.sb5", // lag order breaks the mid chain
  };
  for (const char* id : bad) {
    SynthSpec spec;
    EXPECT_FALSE(SynthSpec::parse(id, &spec)) << "'" << id << "'";
  }
}

TEST(SynthBuilder3Test, ThreeLevelSpecDegeneratesToFlatGraphOnFlatMachine) {
  // A mid-carrying spec on a flat machine must drop its mid stages and
  // reproduce the flat spec's graph (modulo the lag renumbering).
  core::HanWorld sw(machine::make_aries(2, 4));
  const mpi::Comm& wc = sw.world.world_comm();
  ASSERT_EQ(sw.han.hierarchy(wc).depth(), 2);
  HanConfig flat = base_cfg(64 << 10, 2);
  flat.sched = "bc1:k1:ib0.sb1";
  HanConfig three = flat;
  three.sched = "bc1:k1:ib0.mb1.sb2";
  const std::size_t bytes = 256 << 10;
  for (int me = 0; me < wc.size(); ++me) {
    task::TaskGraph g3 = task::build_bcast(
        sw.han, wc, me, 0, BufView::timing_only(bytes), Datatype::Byte, three);
    for (const task::TaskNode& n : g3.nodes) {
      EXPECT_NE(n.level, task::Level::Mid) << "rank " << me;
    }
    EXPECT_TRUE(task::validate_graph(g3).empty()) << "rank " << me;
    // Same stage multiset as the flat spec's graph.
    task::TaskGraph g2 = task::build_bcast(
        sw.han, wc, me, 0, BufView::timing_only(bytes), Datatype::Byte, flat);
    EXPECT_EQ(g3.nodes.size(), g2.nodes.size()) << "rank " << me;
  }
}

TEST(SynthBuilder3Test, LookupReverifiesMidStagesUnderEveryNumaSplit) {
  // A three-level entry keeps no record of its NUMA split; re-verification
  // rebuilds it under every split the node admits (2 domains at ppn 4), so
  // the mid stages are analyzed rather than dropped.
  HanConfig cfg = base_cfg(64 << 10, 2);
  auto verified = [&](const std::string& sched) {
    HanConfig c = cfg;
    c.sched = sched;
    tune::LookupTable table;
    table.insert(CollKind::Bcast, 2, 4, 64 << 10, c);
    verify::SweepResult sweep;
    verify::verify_lookup(table, sweep);
    return sweep;
  };
  const verify::SweepResult three = verified("bc1:k1:ib0.mb1.sb2");
  ASSERT_EQ(three.entries.size(), 1u) << three.summary();
  EXPECT_EQ(three.entries[0].name, "lookup.bcast.2x4.log2_16.numa2");
  EXPECT_EQ(three.total_errors(), 0) << three.summary();
  EXPECT_EQ(three.total_warnings(), 0) << three.summary();
  // The flat twin has no mid stage: its graphs are strictly smaller.
  const verify::SweepResult flat = verified("bc1:k1:ib0.sb1");
  ASSERT_EQ(flat.entries.size(), 1u);
  EXPECT_EQ(flat.entries[0].name, "lookup.bcast.2x4.log2_16");
  EXPECT_GT(three.entries[0].actions, flat.entries[0].actions);
}

TEST(SynthEngine3Test, NumaSynthesisVerifiesCleanAndBeatsLadderBaseline) {
  synth::SynthOptions opts = tiny_options();
  opts.nodes = 2;
  opts.ppn = 4;
  opts.numa = 2;
  const synth::SynthResult r = synth::run_synthesis(opts);
  EXPECT_EQ(r.finalist_findings(), 0);
  ASSERT_EQ(r.cases.size(), 2u);
  EXPECT_EQ(r.wins(), 2);
  for (const synth::SynthCase& c : r.cases) {
    EXPECT_NE(c.name.find("2x2x4"), std::string::npos) << c.name;
    ASSERT_GE(c.winner, 0) << c.name;
    ASSERT_GT(c.baseline, 0.0) << c.name;
    const synth::Candidate& w = c.finalists[c.winner];
    EXPECT_TRUE(w.verified) << c.name;
    EXPECT_LE(w.time, c.baseline * (1.0 + 1e-9)) << c.name;
    // The canonical three-level ladder shape is always a finalist, so a
    // clean run means the winner matched or beat the retired han3 shape.
    bool has_canon3 = false;
    for (const synth::Candidate& f : c.finalists) {
      has_canon3 |= f.cfg.sched == SynthSpec::canonical3(c.kind).id();
    }
    EXPECT_TRUE(has_canon3) << c.name;
  }
  // The report is deterministic and carries the numa machine tag.
  EXPECT_NE(r.to_json().find("\"machine\": \"2x2x4\""), std::string::npos);
  EXPECT_EQ(r.to_json(), synth::run_synthesis(opts).to_json());
}

// --- search-space axis ------------------------------------------------------

TEST(SynthSearchSpaceTest, SchedAxisCrossesMatchingKindsOnly) {
  tune::SearchSpace space;
  space.fs_sizes = {64 << 10};
  space.imods = {"adapt"};
  space.smods = {"sm"};
  space.adapt_algs = {coll::Algorithm::Binary};
  space.adapt_inter_segments = {32 << 10};
  const std::size_t plain =
      space.enumerate(CollKind::Allreduce).size();

  space.scheds = {SynthSpec::canonical(CollKind::Allreduce).id(),
                  SynthSpec::canonical(CollKind::Bcast).id()};
  const std::vector<HanConfig> ar = space.enumerate(CollKind::Allreduce);
  // One matching id doubles the space; the bcast id is skipped.
  EXPECT_EQ(ar.size(), plain * 2);
  std::size_t with_sched = 0;
  for (const HanConfig& cfg : ar) {
    if (!cfg.sched.empty()) {
      ++with_sched;
      EXPECT_EQ(cfg.sched, space.scheds[0]);
    }
  }
  EXPECT_EQ(with_sched, plain);

  // Unknown kinds keep the plain space (no sched id applies).
  for (const HanConfig& cfg : space.enumerate(CollKind::Gather)) {
    EXPECT_TRUE(cfg.sched.empty());
  }
}

}  // namespace
}  // namespace han
