// HAN core tests: hierarchical communicators, config round-trips, data
// correctness of every HAN collective across submodule combinations, and
// the headline timing property (HAN beats the flat default).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "coll_test_util.hpp"
#include "han/han.hpp"

namespace han::core {
namespace {

using coll::Algorithm;
using coll::CollConfig;
using coll::CollKind;
using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;
using test::expected_reduce;
using test::pattern_vec;
using test::run_collective;

struct HanHarness : test::CollHarness {
  explicit HanHarness(machine::MachineProfile profile, bool data_mode = true)
      : CollHarness(std::move(profile), data_mode), han(world, rt, mods) {}
  HanModule han;
};

// --- flat Hierarchy (2-level compatibility view) -------------------------

TEST(HanCommTest, TwoLevelStructure) {
  HanHarness h(machine::make_aries(3, 4));
  Hierarchy& hc = h.han.flat_hierarchy(h.world.world_comm());
  EXPECT_EQ(hc.node_count(), 3);
  EXPECT_EQ(hc.max_ppn(), 4);
  for (int pr = 0; pr < 12; ++pr) {
    EXPECT_EQ(hc.low(pr).size(), 4);
    EXPECT_EQ(hc.low_rank(pr), pr % 4);
    ASSERT_NE(hc.up(pr), nullptr);
    EXPECT_EQ(hc.up(pr)->size(), 3);
    EXPECT_EQ(hc.up_rank(pr), pr / 4);
  }
  // Up comm of rank 5 (local rank 1) contains exactly ranks 1, 5, 9.
  const mpi::Comm* up = hc.up(5);
  EXPECT_EQ(up->world_rank(0), 1);
  EXPECT_EQ(up->world_rank(1), 5);
  EXPECT_EQ(up->world_rank(2), 9);
}

TEST(HanCommTest, SingleNodeHasNoUpComm) {
  HanHarness h(machine::make_aries(1, 4));
  Hierarchy& hc = h.han.flat_hierarchy(h.world.world_comm());
  EXPECT_EQ(hc.node_count(), 1);
  for (int pr = 0; pr < 4; ++pr) EXPECT_EQ(hc.up(pr), nullptr);
}

TEST(HanCommTest, CachedPerCommunicator) {
  HanHarness h(machine::make_aries(2, 2));
  Hierarchy& a = h.han.flat_hierarchy(h.world.world_comm());
  Hierarchy& b = h.han.flat_hierarchy(h.world.world_comm());
  EXPECT_EQ(&a, &b);
}

TEST(HanCommTest, DistinctDescriptorsDistinctLadders) {
  // One comm can hold several ladders at once — the derived 3-level one
  // and the flat 2-level one — each cached independently.
  HanHarness h(machine::with_numa(machine::make_aries(2, 4), 2));
  Hierarchy& derived = h.han.hierarchy(h.world.world_comm());
  Hierarchy& flat = h.han.flat_hierarchy(h.world.world_comm());
  EXPECT_NE(&derived, &flat);
  EXPECT_EQ(derived.depth(), 3);
  EXPECT_EQ(flat.depth(), 2);
  EXPECT_EQ(&derived, &h.han.hierarchy(h.world.world_comm()));
  EXPECT_EQ(&flat, &h.han.flat_hierarchy(h.world.world_comm()));
}

// --- HanConfig ----------------------------------------------------------

TEST(HanConfigTest, ToStringParseRoundTrip) {
  HanConfig c;
  c.fs = 1 << 20;
  c.imod = "libnbc";
  c.smod = "solo";
  c.ibalg = Algorithm::Chain;
  c.iralg = Algorithm::Binomial;
  c.ibs = 32 << 10;
  c.irs = 16 << 10;
  c.window = 3;
  HanConfig parsed;
  ASSERT_TRUE(HanConfig::parse(c.to_string(), &parsed));
  EXPECT_EQ(parsed, c);
}

TEST(HanConfigTest, ParseRejectsGarbage) {
  HanConfig out;
  EXPECT_FALSE(HanConfig::parse("fs=4M bogus_key=1", &out));
  EXPECT_FALSE(HanConfig::parse("fs", &out));
  EXPECT_FALSE(HanConfig::parse("ibalg=quantum", &out));
}

TEST(HanConfigTest, StripeFactorRoundTripAndRejects) {
  // sf=1 is the default and never serialized (single-rail strings stay
  // byte-identical); any other value round-trips.
  HanConfig c;
  EXPECT_EQ(c.to_string().find(" sf="), std::string::npos);
  c.sf = 4;
  EXPECT_NE(c.to_string().find(" sf=4"), std::string::npos);
  HanConfig parsed;
  ASSERT_TRUE(HanConfig::parse(c.to_string(), &parsed));
  EXPECT_EQ(parsed.sf, 4);
  EXPECT_EQ(parsed, c);

  // Malformed stripe fields fail loudly instead of defaulting.
  HanConfig out;
  EXPECT_FALSE(HanConfig::parse("fs=64K sf=0", &out));
  EXPECT_FALSE(HanConfig::parse("fs=64K sf=-2", &out));
  EXPECT_FALSE(HanConfig::parse("fs=64K sf=65", &out));
  EXPECT_FALSE(HanConfig::parse("fs=64K sf=two", &out));
  EXPECT_FALSE(HanConfig::parse("fs=64K sf=4x", &out));
  EXPECT_FALSE(HanConfig::parse("fs=64K sf=", &out));
}

TEST(HanConfigTest, DefaultHeuristicShape) {
  // Small → libnbc + sm; large → adapt + solo (paper §III-C heuristics).
  const HanConfig small =
      HanModule::default_config(CollKind::Bcast, 64, 12, 4 << 10);
  EXPECT_EQ(small.imod, "libnbc");
  EXPECT_EQ(small.smod, "sm");
  const HanConfig large =
      HanModule::default_config(CollKind::Allreduce, 64, 12, 64 << 20);
  EXPECT_EQ(large.imod, "adapt");
  EXPECT_EQ(large.smod, "solo");
  EXPECT_GE(large.fs, 512u << 10);
}

// --- Bcast correctness ----------------------------------------------------

struct HanBcastCase {
  int nodes, ppn;
  int root;
  std::size_t count;
  HanConfig cfg;
};

// Named ctest cases: without a printer, gtest prints the raw struct bytes.
void PrintTo(const HanBcastCase& c, std::ostream* os) {
  *os << "nodes=" << c.nodes << " ppn=" << c.ppn << " root=" << c.root
      << " count=" << c.count << " " << c.cfg.to_string();
}

HanConfig make_cfg(std::size_t fs, const char* imod, const char* smod,
                   Algorithm alg, std::size_t inter_seg) {
  HanConfig c;
  c.fs = fs;
  c.imod = imod;
  c.smod = smod;
  c.ibalg = alg;
  c.iralg = alg;
  c.ibs = inter_seg;
  c.irs = inter_seg;
  return c;
}

class HanBcast : public ::testing::TestWithParam<HanBcastCase> {};

TEST_P(HanBcast, DataArrivesEverywhere) {
  const auto& c = GetParam();
  HanHarness h(machine::make_aries(c.nodes, c.ppn));
  const int n = h.world.world_size();
  std::vector<std::vector<std::int32_t>> bufs(n);
  for (int r = 0; r < n; ++r) {
    bufs[r] = r == c.root ? pattern_vec(c.root, c.count)
                          : std::vector<std::int32_t>(c.count, -1);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    return h.han.ibcast_cfg(h.world.world_comm(), rank.world_rank, c.root,
                            BufView::of(bufs[rank.world_rank],
                                        Datatype::Int32),
                            Datatype::Int32, c.cfg);
  });
  const auto expect = pattern_vec(c.root, c.count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(bufs[r], expect) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HanBcast,
    ::testing::Values(
        // Multi-segment pipeline, every submodule combination.
        HanBcastCase{4, 4, 0, 8192,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary,
                              2 << 10)},
        HanBcastCase{4, 4, 0, 8192,
                     make_cfg(4 << 10, "adapt", "solo", Algorithm::Chain,
                              0)},
        HanBcastCase{4, 4, 0, 8192,
                     make_cfg(4 << 10, "libnbc", "sm", Algorithm::Binomial,
                              0)},
        HanBcastCase{4, 4, 0, 8192,
                     make_cfg(4 << 10, "libnbc", "solo", Algorithm::Binomial,
                              0)},
        // Non-leader root (local rank 2 on node 1).
        HanBcastCase{3, 4, 6, 4000,
                     make_cfg(8 << 10, "adapt", "sm", Algorithm::Binary,
                              4 << 10)},
        // Single segment (message smaller than fs).
        HanBcastCase{4, 2, 0, 16,
                     make_cfg(512 << 10, "adapt", "sm", Algorithm::Binomial,
                              0)},
        // Single node (no inter level).
        HanBcastCase{1, 6, 2, 1024,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary, 0)},
        // ppn == 1 (no intra level).
        HanBcastCase{6, 1, 1, 4096,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary,
                              0)}));

// --- Reduce correctness ---------------------------------------------------

class HanReduce : public ::testing::TestWithParam<HanBcastCase> {};

TEST_P(HanReduce, RootHoldsReduction) {
  const auto& c = GetParam();
  HanHarness h(machine::make_aries(c.nodes, c.ppn));
  const int n = h.world.world_size();
  std::vector<std::vector<std::int32_t>> send(n);
  std::vector<std::vector<std::int32_t>> recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, c.count);
    recv[r].assign(c.count, -99);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.han.ireduce_cfg(h.world.world_comm(), r, c.root,
                             BufView::of(send[r], Datatype::Int32),
                             BufView::of(recv[r], Datatype::Int32),
                             Datatype::Int32, ReduceOp::Sum, c.cfg);
  });
  EXPECT_EQ(recv[c.root], expected_reduce(ReduceOp::Sum, n, c.count));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(send[r], pattern_vec(r, c.count)) << "sendbuf clobbered " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HanReduce,
    ::testing::Values(
        HanBcastCase{4, 4, 0, 8192,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary,
                              2 << 10)},
        HanBcastCase{4, 4, 0, 8192,
                     make_cfg(4 << 10, "adapt", "solo", Algorithm::Binomial,
                              0)},
        HanBcastCase{3, 4, 6, 4000,
                     make_cfg(8 << 10, "libnbc", "sm", Algorithm::Binomial,
                              0)},
        HanBcastCase{1, 6, 2, 512,
                     make_cfg(4 << 10, "adapt", "solo", Algorithm::Binary,
                              0)},
        HanBcastCase{5, 1, 3, 2048,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Chain, 0)}));

// --- Allreduce correctness -------------------------------------------------

class HanAllreduce : public ::testing::TestWithParam<HanBcastCase> {};

TEST_P(HanAllreduce, EveryRankHoldsReduction) {
  const auto& c = GetParam();
  HanHarness h(machine::make_aries(c.nodes, c.ppn));
  const int n = h.world.world_size();
  std::vector<std::vector<std::int32_t>> send(n);
  std::vector<std::vector<std::int32_t>> recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, c.count);
    recv[r].assign(c.count, -99);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.han.iallreduce_cfg(h.world.world_comm(), r,
                                BufView::of(send[r], Datatype::Int32),
                                BufView::of(recv[r], Datatype::Int32),
                                Datatype::Int32, ReduceOp::Sum, c.cfg);
  });
  const auto expect = expected_reduce(ReduceOp::Sum, n, c.count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(recv[r], expect) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HanAllreduce,
    ::testing::Values(
        // Deep pipeline: u = 8 segments exercises all 7 task types.
        HanBcastCase{4, 4, 0, 8192,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary,
                              2 << 10)},
        HanBcastCase{4, 4, 0, 8192,
                     make_cfg(4 << 10, "adapt", "solo", Algorithm::Binomial,
                              0)},
        HanBcastCase{3, 2, 0, 4000,
                     make_cfg(8 << 10, "libnbc", "sm", Algorithm::Binomial,
                              0)},
        // u = 2 and u = 3: pipeline shorter than its depth (tail tasks).
        HanBcastCase{4, 4, 0, 2048,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary, 0)},
        HanBcastCase{4, 4, 0, 3072,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary, 0)},
        // u = 1.
        HanBcastCase{4, 4, 0, 64,
                     make_cfg(512 << 10, "libnbc", "sm", Algorithm::Binomial,
                              0)},
        // No intra level: the split-ir/ib two-stage pipeline.
        HanBcastCase{6, 1, 0, 4096,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary, 0)},
        // Single node.
        HanBcastCase{1, 8, 0, 1024,
                     make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary,
                              0)}));

// --- Gather / Scatter / Allgather -----------------------------------------

TEST(HanGather, CollectsNodeMajorBlocks) {
  HanHarness h(machine::make_aries(3, 4));
  const int n = 12, root = 5;
  const std::size_t count = 32;
  std::vector<std::vector<std::int32_t>> send(n);
  std::vector<std::int32_t> recv(count * n, -1);
  for (int r = 0; r < n; ++r) send[r] = pattern_vec(r, count);
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.han.igather(h.world.world_comm(), r, root,
                         BufView::of(send[r], Datatype::Int32),
                         r == root ? BufView::of(recv, Datatype::Int32)
                                   : BufView::timing_only(recv.size() * 4),
                         CollConfig{});
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(recv[r * count + i], test::pattern(r, i))
          << "block " << r << " elem " << i;
    }
  }
}

TEST(HanScatter, DistributesNodeMajorBlocks) {
  HanHarness h(machine::make_aries(3, 4));
  const int n = 12, root = 0;
  const std::size_t count = 16;
  std::vector<std::int32_t> send(count * n);
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      send[r * count + i] = test::pattern(r, i);
    }
  }
  std::vector<std::vector<std::int32_t>> recv(n);
  for (int r = 0; r < n; ++r) recv[r].assign(count, -1);
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.han.iscatter(h.world.world_comm(), r, root,
                          r == root ? BufView::of(send, Datatype::Int32)
                                    : BufView::timing_only(send.size() * 4),
                          BufView::of(recv[r], Datatype::Int32),
                          CollConfig{});
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(recv[r], pattern_vec(r, count)) << "rank " << r;
  }
}

TEST(HanAllgather, EveryRankAssemblesAll) {
  HanHarness h(machine::make_aries(2, 3));
  const int n = 6;
  const std::size_t count = 24;
  std::vector<std::vector<std::int32_t>> send(n);
  std::vector<std::vector<std::int32_t>> recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, count);
    recv[r].assign(count * n, -1);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.han.iallgather(h.world.world_comm(), r,
                            BufView::of(send[r], Datatype::Int32),
                            BufView::of(recv[r], Datatype::Int32),
                            CollConfig{});
  });
  for (int r = 0; r < n; ++r) {
    for (int b = 0; b < n; ++b) {
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(recv[r][b * count + i], test::pattern(b, i))
            << "rank " << r << " block " << b;
      }
    }
  }
}

TEST(HanBarrier, HoldsUntilLastArrival) {
  HanHarness h(machine::make_aries(3, 3), /*data_mode=*/false);
  std::vector<double> leave(9, -1.0);
  h.world.run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](HanHarness& h2, mpi::Rank& rank2,
              std::vector<double>& leave2) -> sim::CoTask {
      co_await sim::Delay{h2.world.engine(), rank2.world_rank * 10e-6};
      mpi::Request r =
          h2.han.ibarrier(h2.world.world_comm(), rank2.world_rank);
      co_await *r;
      leave2[rank2.world_rank] = h2.world.now();
    }(h, rank, leave);
  });
  for (int r = 0; r < 9; ++r) EXPECT_GE(leave[r], 80e-6) << "rank " << r;
}

// --- timing properties -----------------------------------------------------

double time_han_bcast(int nodes, int ppn, std::size_t bytes,
                      const HanConfig& cfg) {
  HanHarness h(machine::make_aries(nodes, ppn), /*data_mode=*/false);
  auto done = run_collective(h.world, [&](mpi::Rank& rank) {
    return h.han.ibcast_cfg(h.world.world_comm(), rank.world_rank, 0,
                            BufView::timing_only(bytes), Datatype::Byte, cfg);
  });
  return *std::max_element(done.begin(), done.end());
}

double time_tuned_bcast(int nodes, int ppn, std::size_t bytes) {
  test::CollHarness h(machine::make_aries(nodes, ppn), /*data_mode=*/false);
  auto done = run_collective(h.world, [&](mpi::Rank& rank) {
    return h.mods.tuned().ibcast(h.world.world_comm(), rank.world_rank, 0,
                                 BufView::timing_only(bytes), Datatype::Byte,
                                 CollConfig{});
  });
  return *std::max_element(done.begin(), done.end());
}

TEST(HanTiming, BeatsTunedOnLargeBcast) {
  // The paper's headline: hierarchical pipelined bcast crushes the flat
  // default on fat nodes (Fig. 10/12: 1.73x-7.35x on large messages).
  const HanConfig cfg =
      make_cfg(512 << 10, "adapt", "sm", Algorithm::Binary, 64 << 10);
  const double han = time_han_bcast(8, 16, 16 << 20, cfg);
  const double tuned = time_tuned_bcast(8, 16, 16 << 20);
  EXPECT_LT(han * 1.5, tuned) << "HAN " << han << " vs tuned " << tuned;
}

TEST(HanTiming, PipeliningBeatsSingleSegmentLarge) {
  const HanConfig pipelined =
      make_cfg(512 << 10, "adapt", "sm", Algorithm::Binary, 64 << 10);
  const HanConfig whole =
      make_cfg(64 << 20, "adapt", "sm", Algorithm::Binary, 64 << 10);
  const double t_pipe = time_han_bcast(8, 8, 16 << 20, pipelined);
  const double t_whole = time_han_bcast(8, 8, 16 << 20, whole);
  EXPECT_LT(t_pipe, t_whole);
}

TEST(HanTiming, OverlapImperfectButReal) {
  // sbib tasks must cost less than ib+sb run back-to-back, but more than
  // max(ib, sb) (paper Fig. 2's core observation).
  const std::size_t seg = 64 << 10;
  const HanConfig cfg = make_cfg(seg, "adapt", "sm", Algorithm::Binary, 0);
  // Approximate task costs through whole-op timings: u=1 gives ib+sb
  // serialized; u=8 amortizes to the pipelined sbib cost.
  const double serial = time_han_bcast(6, 8, seg, cfg);          // ib+sb
  const double pipelined = time_han_bcast(6, 8, 8 * seg, cfg);   // 8 segs
  // If overlap were zero, pipelined ≈ 8 * serial; if perfect and sb ≈ ib,
  // pipelined ≈ (8+1)/2 * serial. Expect somewhere in between.
  EXPECT_LT(pipelined, 8.0 * serial);
  EXPECT_GT(pipelined, 3.0 * serial);
}

// --- scheduler window > 1 -----------------------------------------------

// A deeper in-flight window must keep the data correct and can only help
// the pipeline: it relaxes the lock-step gate while every data dependency
// stays enforced.
TEST(SchedulerWindow, DeepWindowCorrectAndNoSlower) {
  const std::size_t count = 16384;  // 64KB, 8 segments of 8KB
  auto run_with_window = [&](int window, std::vector<double>* times) {
    HanHarness h(machine::make_aries(4, 4));
    const int n = h.world.world_size();
    HanConfig cfg;
    cfg.fs = 8 << 10;
    cfg.imod = "adapt";
    cfg.smod = "sm";
    cfg.ibalg = Algorithm::Binary;
    cfg.iralg = Algorithm::Binary;
    cfg.ibs = 4 << 10;
    cfg.irs = 4 << 10;
    cfg.window = window;
    std::vector<std::vector<std::int32_t>> send(n), recv(n);
    for (int r = 0; r < n; ++r) {
      send[r] = pattern_vec(r, count);
      recv[r].assign(count, -1);
    }
    *times = run_collective(h.world, [&](mpi::Rank& rank) {
      const int me = rank.world_rank;
      return h.han.iallreduce_cfg(
          h.world.world_comm(), me, BufView::of(send[me], Datatype::Int32),
          BufView::of(recv[me], Datatype::Int32), Datatype::Int32,
          ReduceOp::Sum, cfg);
    });
    const auto expect = expected_reduce(ReduceOp::Sum, n, count);
    for (int r = 0; r < n; ++r) EXPECT_EQ(recv[r], expect) << "rank " << r;
  };
  std::vector<double> t1, t4;
  run_with_window(1, &t1);
  run_with_window(4, &t4);
  const double worst1 = *std::max_element(t1.begin(), t1.end());
  const double worst4 = *std::max_element(t4.begin(), t4.end());
  EXPECT_LE(worst4, worst1 * (1.0 + 1e-9))
      << "window=4 slower than lock-step";
}

// A single-node allreduce is one intra iallreduce task: the scheduler
// counts and traces it as an allreduce, not as a reduce.
TEST(SchedulerOps, SingleLevelAllreduceCountsAsAllreduce) {
  HanHarness h(machine::make_aries(1, 4));
  const int n = h.world.world_size();
  const std::size_t count = 1024;
  std::vector<std::vector<std::int32_t>> send(n), recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, count);
    recv[r].assign(count, -1);
  }
  const HanConfig cfg = make_cfg(4 << 10, "adapt", "sm", Algorithm::Binary, 0);
  obs::MetricsRegistry& reg = h.world.metrics();
  const double reduce0 = reg.counter("han.task.op.reduce").value();
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int me = rank.world_rank;
    return h.han.iallreduce_cfg(
        h.world.world_comm(), me, BufView::of(send[me], Datatype::Int32),
        BufView::of(recv[me], Datatype::Int32), Datatype::Int32,
        ReduceOp::Sum, cfg);
  });
  const auto expect = expected_reduce(ReduceOp::Sum, n, count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(recv[r], expect) << "rank " << r;
  EXPECT_EQ(reg.counter("han.task.op.allreduce").value(), n);
  EXPECT_EQ(reg.counter("han.task.op.reduce").value(), reduce0);
}

// --- communicator destruction / context-id reuse ------------------------

// Freeing a comm must evict the cached Hierarchy ladders and the
// runtime's per-context call sequence before the context id is recycled;
// a fresh comm reusing the id would otherwise bind to the stale
// hierarchy.
TEST(Eviction, ContextReuseGetsFreshHanComm) {
  HanHarness h(machine::make_aries(2, 2));
  mpi::SimWorld& w = h.world;
  const std::vector<int> color(4, 0), key{0, 1, 2, 3};
  mpi::Comm* c1 = w.comm_split(w.world_comm(), color, key)[0];
  const int ctx = c1->context();

  HanConfig cfg;
  cfg.fs = 1 << 10;
  cfg.imod = "libnbc";
  cfg.smod = "sm";
  auto bcast_on = [&](mpi::Comm* c) {
    std::vector<std::vector<std::int32_t>> bufs(4);
    for (int r = 0; r < 4; ++r) {
      bufs[r] = r == 0 ? pattern_vec(0, 1024)
                       : std::vector<std::int32_t>(1024, -1);
    }
    run_collective(w, [&](mpi::Rank& rank) {
      return h.han.ibcast_cfg(
          *c, rank.world_rank, 0,
          BufView::of(bufs[rank.world_rank], Datatype::Int32),
          Datatype::Int32, cfg);
    });
    const auto expect = pattern_vec(0, 1024);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(bufs[r], expect) << "rank " << r;
  };

  bcast_on(c1);  // caches the ladder and advances call_seq on ctx
  w.free_comm(c1);

  // The recycled id must name a *fresh* hierarchy, not c1's.
  mpi::Comm* c2 = w.comm_split(w.world_comm(), color, key)[0];
  EXPECT_EQ(c2->context(), ctx);
  bcast_on(c2);
}

// Shrinking reuse: a size-2 comm's stale call_seq (sized for 2 ranks)
// would make a size-4 successor on the same context index out of bounds.
TEST(Eviction, ReuseByLargerCommunicator) {
  HanHarness h(machine::make_aries(2, 2));
  mpi::SimWorld& w = h.world;
  const std::vector<int> key{0, 1, 2, 3};
  const std::vector<int> pair_color{0, 0, -1, -1};
  mpi::Comm* small = w.comm_split(w.world_comm(), pair_color, key)[0];
  const int ctx = small->context();
  ASSERT_EQ(small->size(), 2);

  HanConfig cfg;
  cfg.fs = 1 << 10;
  cfg.imod = "libnbc";
  cfg.smod = "sm";
  std::vector<std::vector<std::int32_t>> bufs(4);
  for (int r = 0; r < 4; ++r) {
    bufs[r] = r == 0 ? pattern_vec(0, 256)
                     : std::vector<std::int32_t>(256, -1);
  }
  run_collective(w, [&](mpi::Rank& rank) -> mpi::Request {
    const int me = rank.world_rank;
    if (me >= 2) {  // not a member: nothing to do this phase
      mpi::Request r = mpi::make_request(w.engine());
      r->complete();
      return r;
    }
    return h.han.ibcast_cfg(*small, me, 0,
                            BufView::of(bufs[me], Datatype::Int32),
                            Datatype::Int32, cfg);
  });
  EXPECT_EQ(bufs[1], pattern_vec(0, 256));
  w.free_comm(small);

  const std::vector<int> all_color(4, 0);
  mpi::Comm* big = w.comm_split(w.world_comm(), all_color, key)[0];
  EXPECT_EQ(big->context(), ctx);
  ASSERT_EQ(big->size(), 4);
  for (int r = 1; r < 4; ++r) bufs[r].assign(256, -1);
  run_collective(w, [&](mpi::Rank& rank) {
    return h.han.ibcast_cfg(*big, rank.world_rank, 0,
                            BufView::of(bufs[rank.world_rank],
                                        Datatype::Int32),
                            Datatype::Int32, cfg);
  });
  const auto expect = pattern_vec(0, 256);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(bufs[r], expect) << "rank " << r;
}

TEST(Eviction, WorldCommCannotBeFreed) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  HanHarness h(machine::make_aries(1, 2));
  EXPECT_DEATH(h.world.free_comm(&h.world.world_comm()), "world");
}

}  // namespace
}  // namespace han::core
