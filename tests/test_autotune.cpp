// Autotuner tests: task benchmarks, cost models (eqs. 3/4), search
// strategies, heuristics, and the lookup table.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "autotune/tuner.hpp"
#include "coll_test_util.hpp"

namespace han::tune {
namespace {

using coll::Algorithm;
using coll::CollKind;
using core::HanConfig;

struct TuneHarness : test::CollHarness {
  explicit TuneHarness(machine::MachineProfile profile)
      : CollHarness(std::move(profile), /*data_mode=*/false),
        han(world, rt, mods) {}
  core::HanModule han;
};

HanConfig cfg_of(std::size_t fs, const char* imod, const char* smod,
                 Algorithm alg, std::size_t iseg) {
  HanConfig c;
  c.fs = fs;
  c.imod = imod;
  c.smod = smod;
  c.ibalg = alg;
  c.iralg = alg;
  c.ibs = iseg;
  c.irs = iseg;
  return c;
}

/// Small space so integration tests stay fast.
SearchSpace small_space() {
  SearchSpace s;
  s.fs_sizes = {64 << 10, 256 << 10, 1 << 20};
  s.adapt_algs = {Algorithm::Binary, Algorithm::Chain};
  s.adapt_inter_segments = {64 << 10};
  return s;
}

// --- plumbing math -------------------------------------------------------

TEST(PerLeaderTest, MaxAvg) {
  PerLeader p{std::vector<double>{1.0, 3.0, 2.0}};
  EXPECT_DOUBLE_EQ(p.max(), 3.0);
  EXPECT_DOUBLE_EQ(p.avg(), 2.0);
}

TEST(PipelineTraceTest, StabilizedAveragesTail) {
  PipelineTrace t;
  for (double v : {10.0, 5.0, 2.0, 2.2, 1.8}) {
    t.steps.push_back(PerLeader{std::vector<double>{v}});
  }
  EXPECT_NEAR(t.stabilized(3).t[0], 2.0, 1e-12);
}

TEST(CostModel, BcastEq3) {
  BcastTaskCosts c;
  c.ib0 = PerLeader{{10.0, 12.0}};
  c.sb0 = PerLeader{{3.0, 2.0}};
  c.sbib_stable = PerLeader{{5.0, 4.0}};
  // leader0: 10 + 7*5 + 3 = 48 ; leader1: 12 + 7*4 + 2 = 42.
  EXPECT_DOUBLE_EQ(bcast_model_cost(c, 8), 48.0);
  // u=1: no sbib steps.
  EXPECT_DOUBLE_EQ(bcast_model_cost(c, 1), 14.0);
}

TEST(CostModel, AllreduceEq4) {
  AllreduceTaskCosts c;
  c.sr0 = PerLeader{{1.0}};
  c.irsr = PerLeader{{2.0}};
  c.ibirsr = PerLeader{{3.0}};
  c.sbibirsr_stable = PerLeader{{4.0}};
  c.sbibir = PerLeader{{3.0}};
  c.sbib = PerLeader{{2.0}};
  c.sb = PerLeader{{1.0}};
  // u=10: 1+2+3 + 7*4 + 3+2+1 = 40.
  EXPECT_DOUBLE_EQ(allreduce_model_cost(c, 10), 40.0);
  // u=1: sr + drain only.
  EXPECT_DOUBLE_EQ(allreduce_model_cost(c, 1), 7.0);
}

TEST(CostModel, FromTraceSplitsPhases) {
  PipelineTrace t;
  for (double v : {1.0, 2.0, 3.0, 9.0, 4.0, 4.0, 4.0, 3.0, 2.0, 1.0}) {
    t.steps.push_back(PerLeader{std::vector<double>{v}});
  }
  const auto c = AllreduceTaskCosts::from_trace(t);
  EXPECT_DOUBLE_EQ(c.sr0.t[0], 1.0);
  EXPECT_DOUBLE_EQ(c.irsr.t[0], 2.0);
  EXPECT_DOUBLE_EQ(c.ibirsr.t[0], 3.0);
  // Steps 4..6 average to 4 (step 3 skipped as pipeline fill).
  EXPECT_DOUBLE_EQ(c.sbibirsr_stable.t[0], 4.0);
  EXPECT_DOUBLE_EQ(c.sbibir.t[0], 3.0);
  EXPECT_DOUBLE_EQ(c.sbib.t[0], 2.0);
  EXPECT_DOUBLE_EQ(c.sb.t[0], 1.0);
}

// --- search space & heuristics --------------------------------------------

TEST(SearchSpaceTest, EnumerationCount) {
  SearchSpace s;
  // Per fs x smod: libnbc (1) + adapt algs(3) x isegs(2) = 7.
  EXPECT_EQ(s.enumerate(CollKind::Bcast).size(), 6u * 2u * 7u);
}

TEST(Heuristics, SoloNeedsBigSegments) {
  EXPECT_FALSE(heuristic_allows(
      cfg_of(64 << 10, "adapt", "solo", Algorithm::Binary, 0),
      CollKind::Bcast, 4 << 20, 64));
  EXPECT_TRUE(heuristic_allows(
      cfg_of(1 << 20, "adapt", "solo", Algorithm::Binary, 0),
      CollKind::Bcast, 4 << 20, 4));
}

TEST(Heuristics, ChainNeedsPipelineDepth) {
  EXPECT_FALSE(heuristic_allows(
      cfg_of(2 << 20, "adapt", "sm", Algorithm::Chain, 0), CollKind::Bcast,
      4 << 20, 2));
  EXPECT_TRUE(heuristic_allows(
      cfg_of(256 << 10, "adapt", "sm", Algorithm::Chain, 0), CollKind::Bcast,
      4 << 20, 16));
}

TEST(Heuristics, OversizedSegmentsDeduped) {
  // m = 100KB: fs = 2MB prunes (fs/2 = 1MB still >= m), fs = 128KB stays.
  EXPECT_FALSE(heuristic_allows(
      cfg_of(2 << 20, "adapt", "sm", Algorithm::Binary, 0), CollKind::Bcast,
      100 << 10, 1));
  EXPECT_TRUE(heuristic_allows(
      cfg_of(128 << 10, "adapt", "sm", Algorithm::Binary, 0),
      CollKind::Bcast, 100 << 10, 1));
}

// --- lookup table -----------------------------------------------------------

TEST(LookupTableTest, BucketOf) {
  EXPECT_EQ(LookupTable::bucket_of(1), 0);
  EXPECT_EQ(LookupTable::bucket_of(2), 1);
  EXPECT_EQ(LookupTable::bucket_of(1 << 20), 20);
  EXPECT_EQ(LookupTable::bucket_of((1 << 20) + 5), 20);
}

TEST(LookupTableTest, InsertFindDecide) {
  LookupTable t;
  const HanConfig small = cfg_of(64 << 10, "libnbc", "sm",
                                 Algorithm::Binomial, 0);
  const HanConfig big = cfg_of(1 << 20, "adapt", "solo", Algorithm::Binary,
                               64 << 10);
  t.insert(CollKind::Bcast, 64, 12, 64 << 10, small);
  t.insert(CollKind::Bcast, 64, 12, 16 << 20, big);
  ASSERT_NE(t.find(CollKind::Bcast, 64, 12, 64 << 10), nullptr);
  EXPECT_EQ(*t.find(CollKind::Bcast, 64, 12, 64 << 10), small);
  EXPECT_EQ(t.find(CollKind::Bcast, 64, 12, 1 << 20), nullptr);

  // Nearest-bucket decisions.
  EXPECT_EQ(t.decide(CollKind::Bcast, 64, 12, 32 << 10), small);
  EXPECT_EQ(t.decide(CollKind::Bcast, 64, 12, 64 << 20), big);
  // Different shape falls back to the nearest tuned shape.
  EXPECT_EQ(t.decide(CollKind::Bcast, 32, 12, 16 << 20), big);
  // Untuned kind falls back to the default heuristic (valid modules).
  const HanConfig fallback = t.decide(CollKind::Allreduce, 64, 12, 1 << 20);
  EXPECT_FALSE(fallback.imod.empty());
}

TEST(LookupTableTest, SerializeRoundTrip) {
  LookupTable t;
  t.insert(CollKind::Bcast, 64, 12, 1 << 20,
           cfg_of(256 << 10, "adapt", "sm", Algorithm::Chain, 32 << 10));
  t.insert(CollKind::Allreduce, 64, 12, 4 << 20,
           cfg_of(1 << 20, "adapt", "solo", Algorithm::Binary, 64 << 10));
  LookupTable back;
  ASSERT_TRUE(LookupTable::deserialize(t.serialize(), &back));
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(*back.find(CollKind::Bcast, 64, 12, 1 << 20),
            *t.find(CollKind::Bcast, 64, 12, 1 << 20));
}

TEST(LookupTableTest, FileRoundTrip) {
  LookupTable t;
  t.insert(CollKind::Bcast, 8, 4, 1 << 20,
           cfg_of(256 << 10, "adapt", "sm", Algorithm::Binary, 0));
  const std::string path = "/tmp/han_lookup_test.txt";
  ASSERT_TRUE(t.save(path));
  auto loaded = LookupTable::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 1u);
  std::remove(path.c_str());
}

TEST(LookupTableTest, DeserializeRejectsGarbage) {
  LookupTable t;
  EXPECT_FALSE(LookupTable::deserialize("bcast 64 : nope\n", &t));
  EXPECT_FALSE(LookupTable::deserialize("quantum 64 12 20 : fs=4M\n", &t));
  // bucket_of never exceeds 63; a larger bucket would overflow the shift
  // that turns it back into a byte count.
  EXPECT_FALSE(LookupTable::deserialize("bcast 2 2 64 : fs=64K\n", &t));
  EXPECT_FALSE(LookupTable::deserialize("bcast 2 2 70 : fs=64K\n", &t));
  EXPECT_TRUE(LookupTable::deserialize("bcast 2 2 63 : fs=64K\n", &t));
  EXPECT_TRUE(LookupTable::deserialize("# only comments\n", &t));
}

TEST(LookupTableTest, DeserializeRejectsOverflowingSizes) {
  // (2^54 + 1) KiB is past uint64_t: it must not wrap to 1K and load;
  // (2^54 - 1) KiB still fits.
  LookupTable t;
  EXPECT_FALSE(LookupTable::deserialize(
      "bcast 2 2 20 : fs=18014398509481985K\n", &t));
  EXPECT_FALSE(LookupTable::deserialize(
      "bcast 2 2 20 : fs=64K ibs=18446744073709551617\n", &t));
  EXPECT_TRUE(LookupTable::deserialize(
      "bcast 2 2 20 : fs=64K ibs=18014398509481983K\n", &t));
}

TEST(LookupTableTest, DeserializeRejectsWindowPastIntMax) {
  LookupTable t;
  EXPECT_FALSE(LookupTable::deserialize(
      "bcast 2 2 20 : fs=64K window=2147483648\n", &t));
  EXPECT_FALSE(LookupTable::deserialize(
      "bcast 2 2 20 : fs=64K window=4294967297\n", &t));
  EXPECT_TRUE(LookupTable::deserialize(
      "bcast 2 2 20 : fs=64K window=2147483647\n", &t));
}

TEST(LookupTableTest, FormatVersionHeader) {
  // serialize() writes the current format version.
  LookupTable t;
  EXPECT_NE(t.serialize().find(
                "version " + std::to_string(LookupTable::kFormatVersion)),
            std::string::npos);

  // Version-less text is the v1 seed format and still parses.
  LookupTable back;
  EXPECT_TRUE(LookupTable::deserialize(
      "bcast 2 2 20 : fs=64K imod=adapt smod=sm ibalg=binary iralg=binary "
      "ibs=32K irs=32K\n",
      &back));
  EXPECT_EQ(back.size(), 1u);

  // An explicit v1..v4 header parses; newer or mangled headers do not.
  EXPECT_TRUE(LookupTable::deserialize("version 1\n", &back));
  EXPECT_TRUE(LookupTable::deserialize("version 2\n", &back));
  EXPECT_TRUE(LookupTable::deserialize("version 3\n", &back));
  EXPECT_TRUE(LookupTable::deserialize("version 4\n", &back));
  EXPECT_FALSE(LookupTable::deserialize("version 5\n", &back));
  EXPECT_FALSE(LookupTable::deserialize("version 0\n", &back));
  EXPECT_FALSE(LookupTable::deserialize("version two\n", &back));
  EXPECT_FALSE(LookupTable::deserialize("version 2 extra\n", &back));
  // A version line after an entry is not a header.
  EXPECT_FALSE(LookupTable::deserialize(
      "bcast 2 2 20 : fs=64K imod=adapt smod=sm ibalg=binary iralg=binary "
      "ibs=32K irs=32K\nversion 2\n",
      &back));
}

TEST(LookupTableTest, RandomizedRoundTripEveryKind) {
  // Property: serialize -> deserialize -> serialize is byte-identical for
  // arbitrary tables spanning every collective kind (including the ring
  // reduce-scatter configs and synthesized-schedule entries) and the full
  // config knob ranges.
  std::mt19937 rng(20260806);
  const CollKind kinds[] = {
      CollKind::Bcast,     CollKind::Reduce,  CollKind::Allreduce,
      CollKind::Gather,    CollKind::Scatter, CollKind::Allgather,
      CollKind::Barrier,   CollKind::ReduceScatter};
  const char* imods[] = {"libnbc", "adapt", "ring"};
  const char* smods[] = {"sm", "solo"};
  const Algorithm algs[] = {Algorithm::Linear,   Algorithm::Chain,
                            Algorithm::Binary,   Algorithm::Binomial,
                            Algorithm::RecursiveDoubling, Algorithm::Ring};
  auto pick = [&rng](auto&& arr) -> decltype(auto) {
    return arr[std::uniform_int_distribution<std::size_t>(
        0, std::size(arr) - 1)(rng)];
  };
  for (int trial = 0; trial < 50; ++trial) {
    LookupTable t;
    const int entries =
        std::uniform_int_distribution<int>(1, 24)(rng);
    for (int e = 0; e < entries; ++e) {
      HanConfig cfg;
      cfg.fs = std::size_t{1} << std::uniform_int_distribution<int>(14, 22)(rng);
      cfg.imod = pick(imods);
      cfg.smod = pick(smods);
      cfg.ibalg = cfg.imod == std::string("ring") ? Algorithm::Ring
                                                  : pick(algs);
      cfg.iralg = cfg.ibalg;
      cfg.ibs = std::uniform_int_distribution<int>(0, 1)(rng) == 0
                    ? 0
                    : std::size_t{1} <<
                          std::uniform_int_distribution<int>(12, 20)(rng);
      cfg.irs = cfg.ibs;
      // Roughly a third of the entries carry a synthesized schedule id
      // (the v2 format extension).
      const char* scheds[] = {"ar1:k1:sr0.ir1.ib2.sb3",
                              "ar1:k2:sr0.ir0.ib1.sb2",
                              "ar1:k4:ib3.ir1.sr0.sb4",
                              "bc1:k1:sb1.ib0",
                              "bc1:k1:ib0.sb2"};
      if (std::uniform_int_distribution<int>(0, 2)(rng) == 0) {
        cfg.sched = pick(scheds);
      }
      // Roughly a third carry per-level hierarchy tokens (the v3 format
      // extension: lvl/malg/ms/zcs, docs/HIERARCHY.md).
      if (std::uniform_int_distribution<int>(0, 2)(rng) == 0) {
        cfg.lvl = std::uniform_int_distribution<int>(0, 1)(rng) == 0
                      ? 2
                      : std::uniform_int_distribution<int>(3, 8)(rng);
        cfg.malg = pick(algs);
        cfg.ms = std::size_t{1}
                 << std::uniform_int_distribution<int>(12, 18)(rng);
        cfg.zcs = std::uniform_int_distribution<int>(0, 1)(rng) == 0
                      ? 0
                      : std::size_t{1} <<
                            std::uniform_int_distribution<int>(14, 22)(rng);
      }
      // Roughly a third carry a rail-stripe factor (the v4 format
      // extension: sf, docs/FABRIC.md).
      if (std::uniform_int_distribution<int>(0, 2)(rng) == 0) {
        cfg.sf = 1 << std::uniform_int_distribution<int>(1, 4)(rng);
      }
      t.insert(pick(kinds),
               std::uniform_int_distribution<int>(1, 512)(rng),
               std::uniform_int_distribution<int>(1, 128)(rng),
               std::size_t{1} <<
                   std::uniform_int_distribution<int>(0, 28)(rng),
               cfg);
    }
    const std::string text = t.serialize();
    LookupTable back;
    ASSERT_TRUE(LookupTable::deserialize(text, &back)) << text;
    EXPECT_EQ(back.serialize(), text);
    EXPECT_EQ(back.size(), t.size());
  }
}

// --- task benchmarks (integration) ------------------------------------------

TEST(TaskBenchTest, IbSbCostsPositiveAndOrdered) {
  TuneHarness h(machine::make_aries(6, 4));
  TaskBench tb(h.world, h.han, h.world.world_comm());
  const HanConfig cfg =
      cfg_of(64 << 10, "adapt", "sm", Algorithm::Binary, 0);

  const PerLeader ib = tb.bench_ib(cfg, 64 << 10);
  const PerLeader sb = tb.bench_sb(cfg, 64 << 10);
  ASSERT_EQ(ib.t.size(), 6u);
  for (double v : ib.t) EXPECT_GT(v, 0.0);
  for (double v : sb.t) EXPECT_GT(v, 0.0);
  EXPECT_GT(tb.elapsed_cost(), 0.0);

  // Paper Fig. 2: overlap is real (concurrent < ib+sb) but imperfect
  // (concurrent > max(ib, sb)).
  const PerLeader both = tb.bench_concurrent_ib_sb(cfg, 64 << 10);
  EXPECT_LT(both.max(), ib.max() + sb.max());
  EXPECT_GT(both.max(), std::max(ib.max(), sb.max()) * 0.999);
}

TEST(TaskBenchTest, SbibPipelineStabilizes) {
  TuneHarness h(machine::make_aries(6, 4));
  TaskBench tb(h.world, h.han, h.world.world_comm());
  const HanConfig cfg =
      cfg_of(64 << 10, "adapt", "sm", Algorithm::Binary, 0);
  const PerLeader ib = tb.bench_ib(cfg, 64 << 10);
  const PipelineTrace trace =
      tb.bench_sbib_pipeline(cfg, 64 << 10, /*steps=*/8, ib);
  ASSERT_EQ(trace.steps.size(), 8u);
  // Paper Fig. 3: last steps vary little.
  const double s6 = trace.steps[6].max();
  const double s7 = trace.steps[7].max();
  EXPECT_NEAR(s6, s7, 0.35 * std::max(s6, s7));
}

TEST(TaskBenchTest, AllreducePipelineTraceShape) {
  TuneHarness h(machine::make_aries(4, 4));
  TaskBench tb(h.world, h.han, h.world.world_comm());
  const HanConfig cfg =
      cfg_of(64 << 10, "adapt", "sm", Algorithm::Binary, 0);
  const PipelineTrace trace =
      tb.bench_allreduce_pipeline(cfg, 64 << 10, /*steps=*/6);
  ASSERT_EQ(trace.steps.size(), 9u);  // 6 + 3 drain
  for (const auto& step : trace.steps) EXPECT_GT(step.max(), 0.0);
  // The full 4-stage steady step costs at least as much as the lone sr(0).
  EXPECT_GE(trace.steps[4].max(), trace.steps[0].max() * 0.5);
}

/// "name: v0 v1 ...\n" with every per-leader cost as a %a hexfloat, so a
/// golden pins the exact bits.
void append_hex(std::string& out, const char* name,
                const std::vector<double>& t) {
  out += name;
  out += ':';
  char buf[64];
  for (double v : t) {
    std::snprintf(buf, sizeof buf, " %a", v);
    out += buf;
  }
  out += '\n';
}

void append_trace(std::string& out, const char* name,
                  const PipelineTrace& trace) {
  for (const PerLeader& step : trace.steps) append_hex(out, name, step.t);
}

TEST(TaskBenchTest, GoldenTaskCosts) {
  // Exact task costs of every benchmark, in one fixed call order per
  // world; any change to what a benchmark issues, or in which order and
  // await form it issues it, shows here first.
  std::string flat;
  {
    TuneHarness h(machine::make_aries(2, 4));
    TaskBench tb(h.world, h.han, h.world.world_comm());
    HanConfig cfg = cfg_of(64 << 10, "adapt", "sm", Algorithm::Binary,
                           16 << 10);
    cfg.iralg = Algorithm::Chain;
    cfg.irs = 32 << 10;
    const std::size_t seg = 64 << 10;
    const PerLeader ib = tb.bench_ib(cfg, seg);
    append_hex(flat, "ib", ib.t);
    append_hex(flat, "sb", tb.bench_sb(cfg, seg).t);
    append_hex(flat, "ibsb", tb.bench_concurrent_ib_sb(cfg, seg).t);
    append_trace(flat, "sbib", tb.bench_sbib_pipeline(cfg, seg, 4, ib));
    append_hex(flat, "sr", tb.bench_sr(cfg, seg).t);
    append_trace(flat, "allreduce", tb.bench_allreduce_pipeline(cfg, seg, 4));
    append_trace(flat, "reduce", tb.bench_reduce_pipeline(cfg, seg, 4));
    for (const std::size_t bytes : {seg, std::size_t{256} << 10}) {
      append_hex(flat, "isc", tb.bench_inter_scatter(cfg, bytes).t);
      append_hex(flat, "irs", tb.bench_inter_ring_rs(cfg, bytes).t);
      append_hex(flat, "ssc", tb.bench_intra_scatter(cfg, bytes).t);
    }
    append_hex(flat, "cost", {tb.elapsed_cost()});
  }
  std::string numa;
  {
    TuneHarness h(machine::with_numa(machine::make_opath(2, 4), 2));
    ASSERT_EQ(h.han.hierarchy(h.world.world_comm()).depth(), 3);
    TaskBench tb(h.world, h.han, h.world.world_comm());
    HanConfig cfg = cfg_of(64 << 10, "adapt", "sm", Algorithm::Binary, 0);
    cfg.malg = Algorithm::Binary;
    cfg.ms = 16 << 10;
    append_hex(numa, "mb", tb.bench_mb(cfg, 64 << 10).t);
    append_hex(numa, "mr", tb.bench_mr(cfg, 64 << 10).t);
    append_hex(numa, "cost", {tb.elapsed_cost()});
  }
  EXPECT_EQ(flat,
            "ib: 0x1.07593ba54f9c3p-16 0x1.0d3878b728e29p-16\n"
            "sb: 0x1.b93f52fdd5851p-17 0x1.b93f52fdd5851p-17\n"
            "ibsb: 0x1.25392359d7258p-16 0x1.2b18606bb06cp-16\n"
            "sbib: 0x1.25392359d7258p-16 0x1.25392359d7258p-16\n"
            "sbib: 0x1.25392359d727p-16 0x1.25392359d7268p-16\n"
            "sbib: 0x1.25392359d727p-16 0x1.25392359d727p-16\n"
            "sbib: 0x1.25392359d727p-16 0x1.25392359d727p-16\n"
            "sr: 0x1.b901128a682bdp-14 0x1.b901128a682bdp-14\n"
            "allreduce: 0x1.b901128a682cp-14 0x1.b901128a682cp-14\n"
            "allreduce: 0x1.2ce69797990a8p-14 0x1.130ee92e789e8p-14\n"
            "allreduce: 0x1.2ce69797990a8p-14 0x1.1c492493a97a8p-14\n"
            "allreduce: 0x1.2ce69797990a8p-14 0x1.1c492493a97a8p-14\n"
            "allreduce: 0x1.c28707d5c682p-16 0x1.3fa492db9ff1p-15\n"
            "allreduce: 0x1.25392359d72cp-16 0x1.5aa0944e3544p-16\n"
            "allreduce: 0x1.b93f52fdd58p-17 0x1.b93f52fdd58p-17\n"
            "reduce: 0x1.b901128a682bp-14 0x1.b901128a682bp-14\n"
            "reduce: 0x1.2ce69797990ap-14 0x1.130ee92e789ep-14\n"
            "reduce: 0x1.2ce69797990ap-14 0x1.130ee92e789ep-14\n"
            "reduce: 0x1.2ce69797990ap-14 0x1.130ee92e789ep-14\n"
            "reduce: 0x1.525b8917dbp-16 0x1.29f8cccf24aap-15\n"
            "isc: 0x1.028499116d68p-16 0x1.0863d62346bp-16\n"
            "irs: 0x1.3c5fe379db18p-16 0x1.3c5fe379db18p-16\n"
            "ssc: 0x1.4d4617fb5d7p-16 0x1.4d4617fb5d7p-16\n"
            "isc: 0x1.654d8926863cp-15 0x1.683d27af72ep-15\n"
            "irs: 0x1.27a050fe2442p-15 0x1.27a050fe2442p-15\n"
            "ssc: 0x1.43d62cb0f718bp-14 0x1.43d62cb0f718bp-14\n"
            "cost: 0x1.03c09962c0891p-9\n");
  EXPECT_EQ(numa,
            "mb: 0x1.7ba66afd4a448p-17 0x1.7ba66afd4a448p-17\n"
            "mr: 0x1.17d798ea9ca26p-15 0x1.17d798ea9ca26p-15\n"
            "cost: 0x1.61823a2e322bbp-13\n");
}

// --- model accuracy & search (integration) -----------------------------------

TEST(ModelAccuracy, EstimateTracksMeasurementBcast) {
  TuneHarness h(machine::make_aries(6, 4));
  Searcher s(h.world, h.han, h.world.world_comm(), small_space());
  const std::size_t m = 4 << 20;
  for (const HanConfig& cfg :
       {cfg_of(256 << 10, "adapt", "sm", Algorithm::Binary, 64 << 10),
        cfg_of(1 << 20, "libnbc", "sm", Algorithm::Binomial, 0)}) {
    const double est = s.estimate_config(CollKind::Bcast, m, cfg);
    const double meas = s.measure_collective(CollKind::Bcast, m, cfg);
    EXPECT_GT(est, 0.0);
    // Paper Fig. 4: "accurate in most cases", trends match. Accept 2x.
    EXPECT_LT(std::abs(est - meas) / meas, 1.0)
        << cfg.to_string() << " est " << est << " meas " << meas;
  }
}

TEST(SearchIntegration, TaskModelMatchesExhaustiveOptimum) {
  TuneHarness h(machine::make_aries(4, 4));
  Searcher s(h.world, h.han, h.world.world_comm(), small_space());
  const std::size_t m = 2 << 20;

  const SearchResult truth = s.exhaustive(CollKind::Bcast, m, false);
  const SearchResult model = s.estimate(CollKind::Bcast, m, false);
  ASSERT_TRUE(truth.best && model.best);

  // Paper Fig. 9: the model's pick performs like the exhaustive best in
  // most cases — require within 20% of the true optimum when re-measured.
  const double model_pick_measured =
      s.measure_collective(CollKind::Bcast, m, model.best->cfg);
  EXPECT_LT(model_pick_measured, truth.best->time * 1.2)
      << "model chose " << model.best->cfg.to_string() << ", truth "
      << truth.best->cfg.to_string();
}

TEST(SearchIntegration, TaskModelCheaperThanExhaustiveAcrossSizes) {
  TuneHarness h(machine::make_aries(4, 4));
  const std::vector<std::size_t> sizes{512 << 10, 2 << 20, 8 << 20};

  Searcher ex(h.world, h.han, h.world.world_comm(), small_space());
  for (std::size_t m : sizes) ex.exhaustive(CollKind::Bcast, m, false);
  const double exhaustive_cost = ex.tuning_cost();

  Searcher tm(h.world, h.han, h.world.world_comm(), small_space());
  tm.prepare(CollKind::Bcast, false);
  for (std::size_t m : sizes) tm.estimate(CollKind::Bcast, m, false);
  const double model_cost = tm.tuning_cost();

  // Paper Fig. 8: 77% reduction at |M| = full sweep; with 3 sizes expect
  // at least some clear advantage.
  EXPECT_LT(model_cost, exhaustive_cost * 0.8)
      << "model " << model_cost << " vs exhaustive " << exhaustive_cost;
}

TEST(SearchIntegration, HeuristicsShrinkSearch) {
  TuneHarness h(machine::make_aries(4, 4));
  Searcher s(h.world, h.han, h.world.world_comm(), small_space());
  const SearchResult full = s.estimate(CollKind::Bcast, 4 << 20, false);
  const SearchResult pruned = s.estimate(CollKind::Bcast, 4 << 20, true);
  EXPECT_LT(pruned.evaluations, full.evaluations);
  EXPECT_GT(pruned.evaluations, 0);
}

TEST(TunerIntegration, TableDrivesHanDecisions) {
  TuneHarness h(machine::make_aries(4, 4));
  Tuner tuner(h.world, h.han, h.world.world_comm(), small_space());
  TunerOptions opt;
  opt.message_sizes = {256 << 10, 4 << 20};
  opt.kinds = {CollKind::Bcast};
  const TuneReport report = tuner.tune(opt);
  EXPECT_EQ(report.table.size(), 2u);
  EXPECT_GT(report.tuning_cost, 0.0);

  tuner.install(report.table);
  const HanConfig decided =
      h.han.decide(CollKind::Bcast, h.world.world_comm(), 4 << 20);
  EXPECT_EQ(decided, report.table.decide(CollKind::Bcast, 4, 4, 4 << 20));
}

TEST(TunerIntegration, ReduceScatterEntriesPickRingAndRoundTrip) {
  TuneHarness h(machine::make_aries(4, 4));
  Tuner tuner(h.world, h.han, h.world.world_comm(), small_space());
  TunerOptions opt;
  opt.message_sizes = {64 << 10, 1 << 20, 16 << 20};
  opt.kinds = {CollKind::ReduceScatter};
  const TuneReport report = tuner.tune(opt);
  EXPECT_EQ(report.table.size(), 3u);
  for (const auto& [key, cfg] : report.table.entries()) {
    EXPECT_EQ(key.kind, CollKind::ReduceScatter);
    EXPECT_FALSE(cfg.imod.empty());
  }
  // At bandwidth-bound sizes the tuned winner is the ring inter module
  // (the crossover ablation shows the trees only win on tiny messages).
  const HanConfig* big = report.table.find(CollKind::ReduceScatter, 4, 4,
                                           16 << 20);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->imod, "ring");

  // Tuned tables round-trip byte-for-byte through the rules-file format.
  const std::string text = report.table.serialize();
  LookupTable back;
  ASSERT_TRUE(LookupTable::deserialize(text, &back));
  EXPECT_EQ(back.serialize(), text);
}

TEST(TunerIntegration, DuplicateSizesAndKindsDeduped) {
  TuneHarness h(machine::make_aries(4, 4));
  TunerOptions canonical;
  canonical.message_sizes = {256 << 10, 4 << 20};
  canonical.kinds = {CollKind::Bcast};
  TunerOptions messy;
  messy.message_sizes = {4 << 20, 256 << 10, 4 << 20, 256 << 10};
  messy.kinds = {CollKind::Bcast, CollKind::Bcast};

  Tuner a(h.world, h.han, h.world.world_comm(), small_space());
  const TuneReport ra = a.tune(canonical);
  Tuner b(h.world, h.han, h.world.world_comm(), small_space());
  const TuneReport rb = b.tune(messy);
  EXPECT_EQ(ra.table.serialize(), rb.table.serialize());
  // Dedup means the repeated entries never re-benchmark: same task count.
  EXPECT_EQ(ra.task_benchmarks, rb.task_benchmarks);
}

// --- mid-level ladder axes (derived hierarchies, docs/HIERARCHY.md) --------

TEST(LadderModel, Depth2MatchesFlatModels) {
  BcastTaskCosts b;
  b.ib0 = PerLeader{{10.0, 12.0}};
  b.sb0 = PerLeader{{3.0, 2.0}};
  b.sbib_stable = PerLeader{{5.0, 4.0}};
  AllreduceTaskCosts a;
  a.sr0 = PerLeader{{1.0}};
  a.irsr = PerLeader{{2.0}};
  a.ibirsr = PerLeader{{3.0}};
  a.sbibirsr_stable = PerLeader{{4.0}};
  a.sbibir = PerLeader{{3.0}};
  a.sbib = PerLeader{{2.0}};
  a.sb = PerLeader{{1.0}};
  MidTaskCosts mid;
  mid.mb = PerLeader{{0.5, 0.25}};
  mid.mr = PerLeader{{0.75, 0.5}};
  MidTaskCosts mid1;
  mid1.mb = PerLeader{{0.5}};
  mid1.mr = PerLeader{{0.75}};
  for (int u : {1, 3, 8}) {
    EXPECT_DOUBLE_EQ(bcast_ladder_model_cost(b, mid, 2, u),
                     bcast_model_cost(b, u));
    EXPECT_DOUBLE_EQ(allreduce_ladder_model_cost(a, mid1, 2, u),
                     allreduce_model_cost(a, u));
  }
}

TEST(LadderModel, Depth3AddsSoloMidCosts) {
  BcastTaskCosts b;
  b.ib0 = PerLeader{{2.0}};
  b.sb0 = PerLeader{{1.0}};
  b.sbib_stable = PerLeader{{2.5}};
  MidTaskCosts mid;
  mid.mb = PerLeader{{0.5}};
  mid.mr = PerLeader{{0.5}};
  // u=3, depth 3: ib(0)=2; ib+mb=2.5; ib+mb+sb=3.0; mb+sb=1.5; sb=1.0.
  EXPECT_DOUBLE_EQ(bcast_ladder_model_cost(b, mid, 3, 3), 10.0);
  for (int u : {1, 4, 16}) {
    EXPECT_GT(bcast_ladder_model_cost(b, mid, 3, u),
              bcast_model_cost(b, u));
  }
}

TEST(MidLevelSearch, AxesCrossOnlyWhenPopulated) {
  SearchSpace flat = small_space();
  const std::vector<HanConfig> base = flat.enumerate(CollKind::Bcast);
  for (const HanConfig& c : base) {
    EXPECT_EQ(c.malg, Algorithm::Default);
    EXPECT_EQ(c.zcs, 0u);
  }
  SearchSpace numa = small_space();
  numa.mid_algs = {Algorithm::Default, Algorithm::Binary};
  numa.zc_switchovers = {0, 256 << 10};
  EXPECT_EQ(numa.enumerate(CollKind::Bcast).size(), base.size() * 4);
}

TEST(MidLevelSearch, ForProfileGrowsAxesOnNumaOnly) {
  const SearchSpace flat =
      SearchSpace::for_profile(machine::make_aries(2, 8));
  EXPECT_TRUE(flat.mid_algs.empty());
  EXPECT_TRUE(flat.zc_switchovers.empty());
  const SearchSpace numa = SearchSpace::for_profile(
      machine::with_numa(machine::make_aries(2, 8), 2));
  EXPECT_FALSE(numa.mid_algs.empty());
  EXPECT_FALSE(numa.zc_switchovers.empty());
}

TEST(MidLevelSearch, HeuristicsPruneMidKnobs) {
  HanConfig c = cfg_of(64 << 10, "adapt", "sm", Algorithm::Binary, 64 << 10);
  c.zcs = 1 << 20;  // far above 2*fs: the copy-in path can never pay off
  EXPECT_FALSE(heuristic_allows(c, CollKind::Bcast, 4 << 20, 64));
  c.zcs = 64 << 10;
  EXPECT_TRUE(heuristic_allows(c, CollKind::Bcast, 4 << 20, 64));
  c.malg = Algorithm::Chain;  // mid chain needs segments to pipeline
  EXPECT_FALSE(heuristic_allows(c, CollKind::Bcast, 128 << 10, 2));
  EXPECT_TRUE(heuristic_allows(c, CollKind::Bcast, 4 << 20, 64));
}

TEST(MidLevelSearch, LadderEstimateTracksMeasurementOnNuma) {
  TuneHarness h(machine::with_numa(machine::make_aries(4, 8), 2));
  ASSERT_EQ(h.han.hierarchy(h.world.world_comm()).depth(), 3);
  Searcher s(h.world, h.han, h.world.world_comm(), small_space());
  const std::size_t m = 4 << 20;
  const HanConfig cfg =
      cfg_of(256 << 10, "adapt", "sm", Algorithm::Binary, 64 << 10);
  const double est = s.estimate_config(CollKind::Bcast, m, cfg);
  const double meas = s.measure_collective(CollKind::Bcast, m, cfg);
  EXPECT_GT(est, 0.0);
  // The additive mid composition keeps Fig. 4's accuracy envelope.
  EXPECT_LT(std::abs(est - meas) / meas, 1.0)
      << "est " << est << " meas " << meas;
}

TEST(MidLevelSearch, TunerGrowsAxesAndTunesOnNuma) {
  TuneHarness h(machine::with_numa(machine::make_aries(2, 8), 2));
  Tuner tuner(h.world, h.han, h.world.world_comm(), small_space());
  EXPECT_FALSE(tuner.searcher().space().mid_algs.empty());
  EXPECT_FALSE(tuner.searcher().space().zc_switchovers.empty());
  TunerOptions opt;
  opt.message_sizes = {256 << 10, 4 << 20};
  opt.kinds = {CollKind::Bcast};
  const TuneReport report = tuner.tune(opt);
  EXPECT_EQ(report.table.size(), 2u);
  EXPECT_GT(report.tuning_cost, 0.0);
  // Tables carrying the per-level knobs still round-trip (format v3).
  const std::string text = report.table.serialize();
  LookupTable back;
  ASSERT_TRUE(LookupTable::deserialize(text, &back));
  EXPECT_EQ(back.serialize(), text);
}

TEST(MidLevelSearch, FlatProfileTunerSpaceUntouched) {
  TuneHarness h(machine::make_aries(2, 8));
  Tuner tuner(h.world, h.han, h.world.world_comm(), small_space());
  EXPECT_TRUE(tuner.searcher().space().mid_algs.empty());
  EXPECT_TRUE(tuner.searcher().space().zc_switchovers.empty());
}

}  // namespace
}  // namespace han::tune
