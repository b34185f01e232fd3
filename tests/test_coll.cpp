// Collective layer tests: data correctness of every algorithm/module
// combination (parameterized), instance lifecycle, timing sanity.
#include <gtest/gtest.h>

#include <numeric>

#include "coll_test_util.hpp"
#include "coll/topology.hpp"

namespace han::coll {
namespace {

using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;
using test::CollHarness;
using test::expected_reduce;
using test::pattern_vec;
using test::run_collective;

// --- topology ----------------------------------------------------------

TEST(Topology, BinomialShape8) {
  // vrank 0 of 8: children 4, 2, 1 (largest subtree first).
  TreeNode n0 = tree_node(Algorithm::Binomial, 8, 0);
  EXPECT_EQ(n0.parent, -1);
  EXPECT_EQ(n0.children, (std::vector<int>{4, 2, 1}));
  TreeNode n6 = tree_node(Algorithm::Binomial, 8, 6);
  EXPECT_EQ(n6.parent, 4);
  EXPECT_EQ(n6.children, (std::vector<int>{7}));
  TreeNode n5 = tree_node(Algorithm::Binomial, 8, 5);
  EXPECT_EQ(n5.parent, 4);
  EXPECT_TRUE(n5.children.empty());
}

TEST(Topology, BinomialNonPowerOfTwo) {
  TreeNode n0 = tree_node(Algorithm::Binomial, 6, 0);
  EXPECT_EQ(n0.children, (std::vector<int>{4, 2, 1}));
  TreeNode n4 = tree_node(Algorithm::Binomial, 6, 4);
  EXPECT_EQ(n4.parent, 0);
  EXPECT_EQ(n4.children, (std::vector<int>{5}));
}

TEST(Topology, ChainShape) {
  TreeNode n = tree_node(Algorithm::Chain, 5, 2);
  EXPECT_EQ(n.parent, 1);
  EXPECT_EQ(n.children, (std::vector<int>{3}));
  EXPECT_TRUE(tree_node(Algorithm::Chain, 5, 4).children.empty());
}

TEST(Topology, BinaryShape) {
  TreeNode n1 = tree_node(Algorithm::Binary, 7, 1);
  EXPECT_EQ(n1.parent, 0);
  EXPECT_EQ(n1.children, (std::vector<int>{3, 4}));
}

TEST(Topology, LinearShape) {
  TreeNode n0 = tree_node(Algorithm::Linear, 4, 0);
  EXPECT_EQ(n0.children, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(tree_node(Algorithm::Linear, 4, 3).parent, 0);
}

TEST(Topology, EveryRankReachableOnce) {
  for (Algorithm alg : {Algorithm::Linear, Algorithm::Chain, Algorithm::Binary,
                        Algorithm::Binomial}) {
    for (int n : {1, 2, 3, 7, 16, 33}) {
      std::vector<int> seen(n, 0);
      for (int v = 0; v < n; ++v) {
        for (int c : tree_node(alg, n, v).children) {
          ASSERT_GE(c, 0);
          ASSERT_LT(c, n);
          ++seen[c];
        }
        // parent/child consistency
        const TreeNode node = tree_node(alg, n, v);
        if (node.parent >= 0) {
          const TreeNode p = tree_node(alg, n, node.parent);
          EXPECT_NE(std::find(p.children.begin(), p.children.end(), v),
                    p.children.end())
              << algorithm_name(alg) << " n=" << n << " v=" << v;
        }
      }
      EXPECT_EQ(seen[0], 0);
      for (int v = 1; v < n; ++v) {
        EXPECT_EQ(seen[v], 1) << algorithm_name(alg) << " n=" << n;
      }
    }
  }
}

TEST(Segmenter, SplitsAndClamps) {
  Segmenter s(10, 4, Datatype::Byte);
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s.length(0), 4u);
  EXPECT_EQ(s.length(2), 2u);
  EXPECT_EQ(s.offset(2), 8u);

  Segmenter whole(100, 0, Datatype::Byte);
  EXPECT_EQ(whole.count(), 1);
  EXPECT_EQ(whole.length(0), 100u);

  // Element alignment: int32 segments round down to multiples of 4.
  Segmenter aligned(64, 10, Datatype::Int32);
  EXPECT_EQ(aligned.length(0) % 4, 0u);

  // Cap: a million tiny segments coarsen to the max.
  Segmenter capped(1 << 20, 1, Datatype::Byte);
  EXPECT_LE(capped.count(), Segmenter::kMaxInternalSegments);
}

// --- parameterized bcast correctness ------------------------------------

struct BcastCase {
  const char* module;
  Algorithm alg;
  int nodes, ppn;
  int root;
  std::size_t count;    // int32 elements
  std::size_t segment;  // bytes
};

// Named ctest cases: without a printer, gtest prints the raw struct bytes.
void PrintTo(const BcastCase& c, std::ostream* os) {
  *os << c.module << " alg=" << algorithm_name(c.alg) << " nodes=" << c.nodes
      << " ppn=" << c.ppn << " root=" << c.root << " count=" << c.count
      << " segment=" << c.segment;
}

class BcastCorrectness : public ::testing::TestWithParam<BcastCase> {};

TEST_P(BcastCorrectness, DataArrivesEverywhere) {
  const BcastCase& c = GetParam();
  CollHarness h(machine::make_aries(c.nodes, c.ppn));
  CollModule* mod = h.mods.find(c.module);
  ASSERT_NE(mod, nullptr);
  const int n = h.world.world_size();

  std::vector<std::vector<std::int32_t>> bufs(n);
  for (int r = 0; r < n; ++r) {
    bufs[r] = r == c.root ? pattern_vec(c.root, c.count)
                          : std::vector<std::int32_t>(c.count, -1);
  }
  CollConfig cfg;
  cfg.alg = c.alg;
  cfg.segment = c.segment;
  run_collective(h.world, [&](mpi::Rank& rank) {
    return mod->ibcast(h.world.world_comm(), rank.world_rank, c.root,
                       BufView::of(bufs[rank.world_rank], Datatype::Int32),
                       Datatype::Int32, cfg);
  });
  const auto expect = pattern_vec(c.root, c.count);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bufs[r], expect) << "rank " << r;
  }
  EXPECT_EQ(h.rt.live_instances(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    TreeModules, BcastCorrectness,
    ::testing::Values(
        BcastCase{"libnbc", Algorithm::Default, 4, 2, 0, 64, 0},
        BcastCase{"libnbc", Algorithm::Default, 3, 1, 2, 1000, 0},
        BcastCase{"adapt", Algorithm::Chain, 4, 2, 0, 4096, 1024},
        BcastCase{"adapt", Algorithm::Binary, 5, 2, 3, 4096, 512},
        BcastCase{"adapt", Algorithm::Binomial, 8, 1, 1, 2048, 4096},
        BcastCase{"adapt", Algorithm::Chain, 2, 2, 0, 1, 0},
        BcastCase{"tuned", Algorithm::Default, 4, 4, 0, 64, 0},
        BcastCase{"tuned", Algorithm::Default, 4, 4, 5, 100000, 0},
        BcastCase{"tuned", Algorithm::Linear, 3, 2, 0, 256, 0},
        BcastCase{"tuned", Algorithm::Default, 1, 1, 0, 16, 0}));

INSTANTIATE_TEST_SUITE_P(
    IntraModules, BcastCorrectness,
    ::testing::Values(
        BcastCase{"sm", Algorithm::Default, 1, 8, 0, 1024, 0},
        BcastCase{"sm", Algorithm::Default, 1, 5, 3, 17, 0},
        BcastCase{"sm", Algorithm::Default, 1, 2, 1, 100000, 0},
        BcastCase{"solo", Algorithm::Default, 1, 8, 0, 1024, 0},
        BcastCase{"solo", Algorithm::Default, 1, 7, 6, 33, 0},
        BcastCase{"solo", Algorithm::Default, 1, 3, 0, 250000, 0}));

// --- parameterized reduce correctness -----------------------------------

struct ReduceCase {
  const char* module;
  Algorithm alg;
  int nodes, ppn;
  int root;
  std::size_t count;
  std::size_t segment;
  ReduceOp op;
};

void PrintTo(const ReduceCase& c, std::ostream* os) {
  *os << c.module << " alg=" << algorithm_name(c.alg) << " nodes=" << c.nodes
      << " ppn=" << c.ppn << " root=" << c.root << " count=" << c.count
      << " segment=" << c.segment << " op=" << mpi::op_name(c.op);
}

class ReduceCorrectness : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceCorrectness, RootHoldsReduction) {
  const ReduceCase& c = GetParam();
  CollHarness h(machine::make_aries(c.nodes, c.ppn));
  CollModule* mod = h.mods.find(c.module);
  ASSERT_NE(mod, nullptr);
  const int n = h.world.world_size();

  std::vector<std::vector<std::int32_t>> send(n);
  std::vector<std::vector<std::int32_t>> recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, c.count);
    recv[r].assign(c.count, -99);
  }
  CollConfig cfg;
  cfg.alg = c.alg;
  cfg.segment = c.segment;
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return mod->ireduce(h.world.world_comm(), r, c.root,
                        BufView::of(send[r], Datatype::Int32),
                        BufView::of(recv[r], Datatype::Int32), Datatype::Int32,
                        c.op, cfg);
  });
  EXPECT_EQ(recv[c.root], expected_reduce(c.op, n, c.count));
  // Send buffers must be untouched.
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(send[r], pattern_vec(r, c.count)) << "rank " << r;
  }
  EXPECT_EQ(h.rt.live_instances(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    TreeModules, ReduceCorrectness,
    ::testing::Values(
        ReduceCase{"libnbc", Algorithm::Default, 4, 2, 0, 64, 0,
                   ReduceOp::Sum},
        ReduceCase{"libnbc", Algorithm::Default, 3, 2, 4, 513, 0,
                   ReduceOp::Max},
        ReduceCase{"adapt", Algorithm::Chain, 4, 1, 0, 2048, 2048,
                   ReduceOp::Sum},
        ReduceCase{"adapt", Algorithm::Binary, 6, 1, 2, 1024, 1024,
                   ReduceOp::Min},
        ReduceCase{"adapt", Algorithm::Binomial, 7, 1, 0, 100, 0,
                   ReduceOp::Bxor},
        ReduceCase{"tuned", Algorithm::Default, 2, 4, 0, 50000, 0,
                   ReduceOp::Sum},
        ReduceCase{"tuned", Algorithm::Default, 2, 2, 3, 7, 0,
                   ReduceOp::Bor}));

INSTANTIATE_TEST_SUITE_P(
    IntraModules, ReduceCorrectness,
    ::testing::Values(
        ReduceCase{"sm", Algorithm::Default, 1, 8, 0, 256, 0, ReduceOp::Sum},
        ReduceCase{"sm", Algorithm::Default, 1, 6, 2, 1000, 0, ReduceOp::Max},
        ReduceCase{"sm", Algorithm::Default, 1, 2, 1, 9, 0, ReduceOp::Band},
        ReduceCase{"solo", Algorithm::Default, 1, 8, 0, 256, 0,
                   ReduceOp::Sum},
        ReduceCase{"solo", Algorithm::Default, 1, 5, 4, 77, 0,
                   ReduceOp::Prod},
        ReduceCase{"solo", Algorithm::Default, 1, 3, 0, 65536, 0,
                   ReduceOp::Min}));

// --- allreduce correctness ----------------------------------------------

struct AllreduceCase {
  const char* module;
  int nodes, ppn;
  std::size_t count;
  ReduceOp op;
};

void PrintTo(const AllreduceCase& c, std::ostream* os) {
  *os << c.module << " nodes=" << c.nodes << " ppn=" << c.ppn
      << " count=" << c.count << " op=" << mpi::op_name(c.op);
}

class AllreduceCorrectness : public ::testing::TestWithParam<AllreduceCase> {
};

TEST_P(AllreduceCorrectness, EveryRankHoldsReduction) {
  const AllreduceCase& c = GetParam();
  CollHarness h(machine::make_aries(c.nodes, c.ppn));
  CollModule* mod = h.mods.find(c.module);
  ASSERT_NE(mod, nullptr);
  const int n = h.world.world_size();

  std::vector<std::vector<std::int32_t>> send(n);
  std::vector<std::vector<std::int32_t>> recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, c.count);
    recv[r].assign(c.count, -99);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return mod->iallreduce(h.world.world_comm(), r,
                           BufView::of(send[r], Datatype::Int32),
                           BufView::of(recv[r], Datatype::Int32),
                           Datatype::Int32, c.op, CollConfig{});
  });
  const auto expect = expected_reduce(c.op, n, c.count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(recv[r], expect) << "rank " << r;
  EXPECT_EQ(h.rt.live_instances(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModules, AllreduceCorrectness,
    ::testing::Values(
        AllreduceCase{"libnbc", 4, 2, 128, ReduceOp::Sum},
        AllreduceCase{"libnbc", 3, 2, 100, ReduceOp::Max},  // non-pow2 (6)
        AllreduceCase{"adapt", 5, 1, 501, ReduceOp::Sum},   // non-pow2 (5)
        AllreduceCase{"tuned", 4, 2, 64, ReduceOp::Sum},
        // tuned large → ring path (256KB)
        AllreduceCase{"tuned", 8, 1, 70000, ReduceOp::Sum},
        AllreduceCase{"tuned", 3, 1, 70000, ReduceOp::Min},  // ring, n=3
        AllreduceCase{"sm", 1, 8, 333, ReduceOp::Sum},
        AllreduceCase{"solo", 1, 6, 333, ReduceOp::Sum}));

// --- gather / scatter / allgather / barrier -----------------------------

TEST(GatherScatter, LinearGatherCollectsBlocks) {
  CollHarness h(machine::make_aries(3, 2));
  const int n = 6;
  const std::size_t count = 64;
  const int root = 2;
  std::vector<std::vector<std::int32_t>> send(n);
  std::vector<std::int32_t> recv(count * n, -1);
  for (int r = 0; r < n; ++r) send[r] = pattern_vec(r, count);

  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    BufView recv_view = r == root ? BufView::of(recv, Datatype::Int32)
                                  : BufView::timing_only(recv.size() * 4);
    return h.mods.libnbc().igather(h.world.world_comm(), r, root,
                                   BufView::of(send[r], Datatype::Int32),
                                   recv_view, CollConfig{});
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(recv[r * count + i], test::pattern(r, i))
          << "block " << r << " elem " << i;
    }
  }
}

TEST(GatherScatter, LinearScatterDistributesBlocks) {
  CollHarness h(machine::make_aries(3, 2));
  const int n = 6;
  const std::size_t count = 32;
  const int root = 0;
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
    BufView send_view = r == root ? BufView::of(send, Datatype::Int32)
                                  : BufView::timing_only(send.size() * 4);
    return h.mods.adapt().iscatter(h.world.world_comm(), r, root, send_view,
                                   BufView::of(recv[r], Datatype::Int32),
                                   CollConfig{});
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(recv[r], pattern_vec(r, count)) << "rank " << r;
  }
}

TEST(Allgather, RingGathersEverywhere) {
  CollHarness h(machine::make_aries(5, 1));
  const int n = 5;
  const std::size_t count = 48;
  std::vector<std::vector<std::int32_t>> send(n);
  std::vector<std::vector<std::int32_t>> recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, count);
    recv[r].assign(count * n, -1);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.mods.libnbc().iallgather(h.world.world_comm(), r,
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

TEST(Barrier, NoRankLeavesBeforeLastEnters) {
  CollHarness h(machine::make_aries(4, 2), /*data_mode=*/false);
  std::vector<double> leave(8, -1.0);
  h.world.run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](CollHarness& h3, mpi::Rank& rank3,
              std::vector<double>& leave3) -> sim::CoTask {
      // Rank r arrives at r * 10us.
      co_await sim::Delay{h3.world.engine(), rank3.world_rank * 10e-6};
      mpi::Request r = h3.mods.libnbc().ibarrier(h3.world.world_comm(),
                                                rank3.world_rank);
      co_await *r;
      leave3[rank3.world_rank] = h3.world.now();
    }(h, rank, leave);
  });
  // Last entry at 70us; nobody can leave earlier.
  for (int r = 0; r < 8; ++r) EXPECT_GE(leave[r], 70e-6) << "rank " << r;
}

TEST(SmBarrier, FlagDisseminationHoldsEveryone) {
  CollHarness h(machine::make_aries(1, 6), /*data_mode=*/false);
  std::vector<double> leave(6, -1.0);
  h.world.run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](CollHarness& h2, mpi::Rank& rank2,
              std::vector<double>& leave2) -> sim::CoTask {
      co_await sim::Delay{h2.world.engine(), rank2.world_rank * 5e-6};
      mpi::Request r =
          h2.mods.sm().ibarrier(h2.world.world_comm(), rank2.world_rank);
      co_await *r;
      leave2[rank2.world_rank] = h2.world.now();
    }(h, rank, leave);
  });
  for (int r = 0; r < 6; ++r) EXPECT_GE(leave[r], 25e-6) << "rank " << r;
}

// --- timing sanity -------------------------------------------------------

double time_bcast(const char* module, Algorithm alg, int nodes, int ppn,
                  std::size_t bytes, std::size_t segment) {
  CollHarness h(machine::make_aries(nodes, ppn), /*data_mode=*/false);
  CollModule* mod = h.mods.find(module);
  CollConfig cfg;
  cfg.alg = alg;
  cfg.segment = segment;
  auto done = run_collective(h.world, [&](mpi::Rank& rank) {
    return mod->ibcast(h.world.world_comm(), rank.world_rank, 0,
                       mpi::BufView::timing_only(bytes), Datatype::Byte, cfg);
  });
  return *std::max_element(done.begin(), done.end());
}

TEST(TimingSanity, SegmentationHelpsChainOnLargeMessages) {
  const double whole =
      time_bcast("adapt", Algorithm::Chain, 8, 1, 4 << 20, 4 << 20);
  const double segmented =
      time_bcast("adapt", Algorithm::Chain, 8, 1, 4 << 20, 128 << 10);
  EXPECT_LT(segmented, whole * 0.6);  // pipelining must pay off
}

// At 64 ranks the (n-1) serialized send overheads of linear lose to the
// binomial tree's log2(n) latency hops.
TEST(TimingSanity, BinomialBeatsLinearOnSmallManyRanks) {
  const double linear = time_bcast("tuned", Algorithm::Linear, 64, 1, 8, 0);
  const double binomial =
      time_bcast("tuned", Algorithm::Binomial, 64, 1, 8, 0);
  EXPECT_LT(binomial, linear);
}

TEST(TimingSanity, SmBeatsSoloSmall_SoloBeatsSmLarge) {
  const double sm_small = time_bcast("sm", Algorithm::Default, 1, 16, 512, 0);
  const double solo_small =
      time_bcast("solo", Algorithm::Default, 1, 16, 512, 0);
  EXPECT_LT(sm_small, solo_small);

  const double sm_large =
      time_bcast("sm", Algorithm::Default, 1, 16, 4 << 20, 0);
  const double solo_large =
      time_bcast("solo", Algorithm::Default, 1, 16, 4 << 20, 0);
  EXPECT_LT(solo_large, sm_large);
}

TEST(TimingSanity, AdaptSetupHurtsTinyMessages) {
  // Libnbc has lower setup; ADAPT wins on segmented large messages.
  const double libnbc_tiny =
      time_bcast("libnbc", Algorithm::Default, 8, 1, 8, 0);
  const double adapt_tiny =
      time_bcast("adapt", Algorithm::Binomial, 8, 1, 8, 0);
  EXPECT_LT(libnbc_tiny, adapt_tiny);
}

TEST(TunedDecision, MatchesDocumentedSwitchPoints) {
  EXPECT_EQ(TunedModule::decide_bcast(64, 1024).alg, Algorithm::Binomial);
  EXPECT_EQ(TunedModule::decide_bcast(64, 64 << 10).alg, Algorithm::Binary);
  EXPECT_EQ(TunedModule::decide_bcast(64, 32 << 20).alg, Algorithm::Chain);
  EXPECT_EQ(TunedModule::decide_reduce(64, 512).alg, Algorithm::Binomial);
  EXPECT_EQ(TunedModule::decide_reduce(64, 32 << 20).alg, Algorithm::Chain);
  EXPECT_EQ(TunedModule::decide_reduce(64, 1 << 20).alg, Algorithm::Binary);
  EXPECT_TRUE(TunedModule::allreduce_uses_ring(64, 4 << 20));
  EXPECT_FALSE(TunedModule::allreduce_uses_ring(4096, 4 << 20));
  EXPECT_FALSE(TunedModule::allreduce_uses_ring(64, 1024));
}

TEST(ModuleRegistry, CapabilitiesMatchPaper) {
  CollHarness h(machine::make_aries(2, 2));
  EXPECT_TRUE(h.mods.libnbc().nonblocking_capable());
  EXPECT_TRUE(h.mods.adapt().nonblocking_capable());
  EXPECT_FALSE(h.mods.tuned().nonblocking_capable());
  EXPECT_TRUE(h.mods.sm().intra_node_only());
  EXPECT_TRUE(h.mods.solo().intra_node_only());
  EXPECT_TRUE(h.mods.adapt().reduce_uses_avx());
  EXPECT_TRUE(h.mods.solo().reduce_uses_avx());
  EXPECT_FALSE(h.mods.libnbc().reduce_uses_avx());
  EXPECT_FALSE(h.mods.sm().reduce_uses_avx());
  EXPECT_TRUE(h.mods.ring().nonblocking_capable());
  EXPECT_TRUE(h.mods.ring().reduce_uses_avx());
  EXPECT_EQ(h.mods.find("ring"), &h.mods.ring());
  EXPECT_EQ(h.mods.find("nonexistent"), nullptr);
  EXPECT_EQ(h.mods.inter_modules().size(), 3u);
  EXPECT_EQ(h.mods.intra_modules().size(), 2u);
  // ADAPT advertises the paper's three algorithms.
  const auto algs = h.mods.adapt().bcast_algorithms();
  EXPECT_EQ(algs.size(), 3u);
}

// --- staggered arrival (MPI semantics) -----------------------------------

TEST(ArrivalSemantics, LateRootDelaysEveryone) {
  CollHarness h(machine::make_aries(2, 2), /*data_mode=*/false);
  auto time_with_root_delay = [&](double delay) {
    CollHarness hh(machine::make_aries(2, 2), false);
    auto done = run_collective(
        hh.world,
        [&](mpi::Rank& rank) {
          return hh.mods.libnbc().ibcast(hh.world.world_comm(),
                                         rank.world_rank, 0,
                                         mpi::BufView::timing_only(1024),
                                         Datatype::Byte, CollConfig{});
        },
        [&](int r) { return r == 0 ? delay : 0.0; });
    return done;
  };
  auto fast = time_with_root_delay(0.0);
  auto slow = time_with_root_delay(100e-6);
  // Non-root ranks' inclusive time grows by about the root's tardiness.
  EXPECT_GT(slow[3], fast[3] + 90e-6);
}

TEST(ArrivalSemantics, LateLeafDoesNotBlockRootBcast) {
  CollHarness h(machine::make_aries(4, 1), /*data_mode=*/false);
  // Binomial bcast from 0; rank 3 (a leaf under rank 2) arrives late.
  auto done = run_collective(
      h.world,
      [&](mpi::Rank& rank) {
        return h.mods.libnbc().ibcast(h.world.world_comm(), rank.world_rank,
                                      0, mpi::BufView::timing_only(1024),
                                      Datatype::Byte, CollConfig{});
      },
      [&](int r) { return r == 3 ? 500e-6 : 0.0; });
  // Root finishes its sends long before the straggler shows up.
  EXPECT_LT(done[0], 100e-6);
}

// --- one completion path for every action kind -------------------------

/// A 4-rank allreduce on one NUMA-split node (ranks 0,1 | 2,3) built by
/// hand to use every action kind: rank r computes, swaps its input with
/// its same-domain pair by rendezvous send/recv, copies its input into the
/// result and reduces the pair's in, cross-reduces the input of rank r^2
/// straight from its window, cross-copies rank r^3's input and folds it
/// in, and swaps an eager message with rank r^2; a noop joins the ends.
/// Compute times differ per rank, so completion times do too.
/// Result: slot 1 holds the sum of all four inputs, slot 2 the first
/// `eager` bytes of rank r^2's input.
Plan every_kind_plan(std::size_t bytes, std::size_t eager) {
  constexpr int kRanks = 4;
  Plan plan(kRanks, /*user_slots=*/3);
  const SlotRef in{0, 0}, out{1, 0}, landing{2, 0};
  const SlotRef lo{3, 0}, hi{3, bytes};  // one temp: two halves
  for (int r = 0; r < kRanks; ++r) {
    const int pair = r ^ 1, across = r ^ 2, diagonal = r ^ 3;
    RankPlan& rp = plan.ranks[r];
    rp.temp_slots = {2 * bytes};
    const int compute = rp.add(compute_action(1e-6 * (r + 1)));
    Action send = send_action(pair, 1, bytes, in);
    send.deps = {dep(compute)};
    rp.add(send);
    const int recv = rp.add(recv_action(pair, 1, bytes, lo));
    Action copy = copy_action(bytes, in, out);
    copy.deps = {dep(compute)};
    const int copied = rp.add(copy);
    Action reduce = reduce_action(bytes, lo, out, ReduceOp::Sum,
                                  Datatype::Int32, /*avx=*/false);
    reduce.deps = {dep(recv), dep(copied)};
    const int reduced = rp.add(reduce);
    Action xreduce = cross_reduce_action(across, bytes, in, out, ReduceOp::Sum,
                                         Datatype::Int32, /*avx=*/true);
    xreduce.deps = {dep(reduced), cross_dep(across, compute, 1e-7)};
    const int xreduced = rp.add(xreduce);
    Action xcopy = cross_copy_action(diagonal, bytes, in, hi);
    xcopy.deps = {cross_dep(diagonal, compute, 1e-7)};
    const int xcopied = rp.add(xcopy);
    Action fold = reduce_action(bytes, hi, out, ReduceOp::Sum,
                                Datatype::Int32, /*avx=*/true);
    fold.deps = {dep(xreduced), dep(xcopied)};
    const int folded = rp.add(fold);
    rp.add(send_action(across, 2, eager, in));
    const int landed = rp.add(recv_action(across, 2, eager, landing));
    Action join;
    join.kind = Action::Kind::Noop;
    join.deps = {dep(folded), dep(landed)};
    rp.add(join);
  }
  return plan;
}

TEST(CollRuntime, EveryActionKindCompletesThroughOnePath) {
  CollHarness h(machine::with_numa(machine::make_aries(1, 4), 2));
  constexpr std::size_t kCount = 4096, kBytes = kCount * 4, kEager = 1024;
  ASSERT_GT(kBytes, h.world.p2p().eager_limit);  // one rendezvous swap
  ASSERT_LE(kEager, h.world.p2p().eager_limit);  // one eager swap
  const Plan plan = every_kind_plan(kBytes, kEager);
  std::vector<std::vector<std::int32_t>> in(4), out(4), landing(4);
  for (int r = 0; r < 4; ++r) {
    in[r] = pattern_vec(r, kCount);
    out[r].assign(kCount, -1);
    landing[r].assign(kEager / 4, -1);
  }
  const auto done = run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.rt.start_plan(
        h.world.world_comm(), r, plan,
        {BufView{reinterpret_cast<std::byte*>(in[r].data()), kBytes,
                 Datatype::Int32},
         BufView{reinterpret_cast<std::byte*>(out[r].data()), kBytes,
                 Datatype::Int32},
         BufView{reinterpret_cast<std::byte*>(landing[r].data()), kEager,
                 Datatype::Int32}});
  });

  const std::vector<std::int32_t> sum = expected_reduce(ReduceOp::Sum, 4,
                                                        kCount);
  for (int r = 0; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(in[r], pattern_vec(r, kCount));  // inputs are read-only
    EXPECT_EQ(out[r], sum);
    const std::vector<std::int32_t> across = pattern_vec(r ^ 2, kCount);
    EXPECT_EQ(landing[r], std::vector<std::int32_t>(
                              across.begin(), across.begin() + kEager / 4));
  }
  // Every action kind ran, each once per rank per use in the plan.
  obs::MetricsRegistry& m = h.world.metrics();
  const std::pair<const char*, double> kinds[] = {
      {"send", 8},   {"recv", 8},       {"copy", 4},         {"reduce", 8},
      {"compute", 4}, {"noop", 4}, {"cross_copy", 4}, {"cross_reduce", 4}};
  for (const auto& [kind, count] : kinds) {
    EXPECT_EQ(m.counter(std::string("coll.actions.") + kind).value(), count)
        << kind;
  }
  // Each rank's completion time, pinned to the values of the per-kind
  // completion closures this path replaced: merging them must keep every
  // event's time and order.
  const double want[] = {2.3412354208754204e-05, 1.9657175757575755e-05,
                         2.3144044444444443e-05, 2.4168556228956225e-05};
  for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(done[r], want[r]) << r;
  EXPECT_EQ(h.rt.live_instances(), 0u);
}

}  // namespace
}  // namespace han::coll
