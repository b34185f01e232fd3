// Tests for the derived n-level hierarchy: topology descriptors, the
// recursive communicator ladder (3-level NUMA splits, leader chains, the
// n-level root trick), degenerate-shape collapse across every builder,
// and the timing benefit of the derived 3-level ladder on NUMA machines.
#include <gtest/gtest.h>

#include <algorithm>

#include "coll_test_util.hpp"
#include "han/han.hpp"

namespace han::core {
namespace {

using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;
using test::expected_reduce;
using test::pattern_vec;
using test::run_collective;

struct HierHarness : test::CollHarness {
  explicit HierHarness(machine::MachineProfile profile, bool data_mode = true)
      : CollHarness(std::move(profile), data_mode), han(world, rt, mods) {}
  HanModule han;
};

HanConfig cfg3() {
  HanConfig c;
  c.fs = 4 << 10;
  c.imod = "adapt";
  c.smod = "sm";
  c.ibalg = coll::Algorithm::Binary;
  c.iralg = coll::Algorithm::Binary;
  return c;
}

// --- TopologyDescriptor ---------------------------------------------------

TEST(TopologyDescriptor, FlatAndFromProfile) {
  const TopologyDescriptor flat = TopologyDescriptor::flat();
  EXPECT_EQ(flat.depth(), 2);
  EXPECT_EQ(flat.to_string(), "node<cluster");
  EXPECT_EQ(TopologyDescriptor::from_profile(machine::make_aries(4, 8)),
            flat);
  const TopologyDescriptor numa = TopologyDescriptor::from_profile(
      machine::with_numa(machine::make_aries(4, 8), 2));
  EXPECT_EQ(numa.depth(), 3);
  EXPECT_EQ(numa.to_string(), "numa<node<cluster");
}

TEST(TopologyDescriptor, ParseRoundTrip) {
  for (const char* text : {"node<cluster", "numa<node<cluster",
                           "numa<cluster"}) {
    TopologyDescriptor out;
    ASSERT_TRUE(TopologyDescriptor::parse(text, &out)) << text;
    EXPECT_EQ(out.to_string(), text);
  }
}

TEST(TopologyDescriptor, ParseRejectsMalformed) {
  TopologyDescriptor out;
  EXPECT_FALSE(TopologyDescriptor::parse("", &out));
  EXPECT_FALSE(TopologyDescriptor::parse("cluster", &out));        // depth 1
  EXPECT_FALSE(TopologyDescriptor::parse("node<node", &out));      // dup
  EXPECT_FALSE(TopologyDescriptor::parse("cluster<node", &out));   // order
  EXPECT_FALSE(TopologyDescriptor::parse("numa<node", &out));      // no top
  EXPECT_FALSE(TopologyDescriptor::parse("rack<cluster", &out));   // unknown
}

// --- machine plumbing -----------------------------------------------------

TEST(NumaMachine, WithNumaSplitsBuses) {
  const machine::MachineProfile base = machine::make_aries(4, 8);
  const machine::MachineProfile numa = machine::with_numa(base, 2);
  EXPECT_EQ(numa.numa_per_node, 2);
  EXPECT_DOUBLE_EQ(numa.membus_bandwidth, base.membus_bandwidth / 2);
  EXPECT_GT(numa.inter_numa_bandwidth, 0.0);
  EXPECT_LT(numa.inter_numa_bandwidth, numa.membus_bandwidth);
}

TEST(NumaMachine, RankPlacement) {
  mpi::SimWorld w(machine::with_numa(machine::make_aries(2, 8), 2));
  EXPECT_EQ(w.rank(0).numa, 0);
  EXPECT_EQ(w.rank(3).numa, 0);
  EXPECT_EQ(w.rank(4).numa, 1);
  EXPECT_EQ(w.rank(7).numa, 1);
  EXPECT_EQ(w.rank(12).numa, 1);  // node 1, local 4
}

TEST(NumaMachine, StockRegistryHasNumaVariants) {
  int numa_entries = 0;
  for (const machine::StockMachine& sm : machine::stock_machines()) {
    if (sm.profile.numa_per_node > 1) ++numa_entries;
    machine::MachineProfile resolved;
    ASSERT_TRUE(machine::make_stock(sm.profile.name, sm.profile.nodes,
                                    sm.profile.procs_per_node,
                                    sm.profile.numa_per_node, &resolved));
    EXPECT_EQ(resolved.numa_per_node, sm.profile.numa_per_node) << sm.name;
  }
  EXPECT_GE(numa_entries, 2) << "each stock family needs a NUMA variant";
  machine::MachineProfile unused;
  EXPECT_FALSE(machine::make_stock("quantum", 2, 8, 1, &unused));
}

TEST(NumaMachine, CrossNumaPipeSlowerThanLocal) {
  auto time_pipe = [](int dst) {
    mpi::SimWorld w(machine::with_numa(machine::make_aries(1, 8), 2));
    double done = 0.0;
    w.run([&](mpi::Rank& rank) -> sim::CoTask {
      if (rank.world_rank == 0) {
        return [](mpi::SimWorld& w3, int dst3) -> sim::CoTask {
          mpi::Request r = w3.isend(w3.world_comm(), 0, dst3, 1,
                                   BufView::timing_only(1 << 20));
          co_await *r;
        }(w, dst);
      }
      if (rank.world_rank == dst) {
        return [](mpi::SimWorld& w2, int dst2, double& done2) -> sim::CoTask {
          mpi::Request r = w2.irecv(w2.world_comm(), dst2, 0, 1,
                                   BufView::timing_only(1 << 20));
          co_await *r;
          done2 = w2.now();
        }(w, dst, done);
      }
      return [](mpi::SimWorld&) -> sim::CoTask { co_return; }(w);
    });
    return done;
  };
  EXPECT_GT(time_pipe(4), time_pipe(1) * 1.1)
      << "a cross-socket pipe must be slower than a local one";
}

// --- three-level split ----------------------------------------------------

TEST(HierarchySplit, ThreeLevelLadder) {
  HierHarness h(machine::with_numa(machine::make_aries(3, 8), 2));
  Hierarchy& hc = h.han.hierarchy(h.world.world_comm());
  ASSERT_EQ(hc.depth(), 3);
  EXPECT_EQ(hc.level_name(0), "numa");
  EXPECT_EQ(hc.level_name(1), "node");
  EXPECT_EQ(hc.level_name(2), "cluster");
  EXPECT_EQ(hc.node_count(), 3);
  EXPECT_EQ(hc.max_ppn(), 8);
  for (int pr = 0; pr < 24; ++pr) {
    // Leaf: the 4 ranks sharing pr's NUMA domain.
    ASSERT_NE(hc.comm(0, pr), nullptr) << pr;
    EXPECT_EQ(hc.comm(0, pr)->size(), 4) << pr;
    EXPECT_EQ(hc.rank(0, pr), pr % 4) << pr;
    // Mid: every rank gets a family (the n-level root trick) joining its
    // slot across the node's 2 domains.
    ASSERT_NE(hc.comm(1, pr), nullptr) << pr;
    EXPECT_EQ(hc.comm(1, pr)->size(), 2) << pr;
    // Top: same slot below, one member per node.
    ASSERT_NE(hc.comm(2, pr), nullptr) << pr;
    EXPECT_EQ(hc.comm(2, pr)->size(), 3) << pr;
  }
  // Leader chains: NUMA leaders are local ranks 0 and 4; node leaders are
  // local rank 0 only.
  EXPECT_TRUE(hc.leader_below(1, 0));
  EXPECT_TRUE(hc.leader_below(1, 4));
  EXPECT_FALSE(hc.leader_below(1, 5));
  EXPECT_TRUE(hc.leader_below(2, 0));
  EXPECT_FALSE(hc.leader_below(2, 4));
  // Top family of rank 5 (slot 1 of domain 0) spans ranks 5, 13, 21.
  const mpi::Comm* top = hc.comm(2, 5);
  EXPECT_EQ(top->world_rank(0), 5);
  EXPECT_EQ(top->world_rank(1), 13);
  EXPECT_EQ(top->world_rank(2), 21);
  // The root trick's membership test: 5 shares slot-below with 13 at the
  // top level, but not with 12 (slot 0).
  EXPECT_TRUE(hc.same_slots_below(2, 5, 13));
  EXPECT_FALSE(hc.same_slots_below(2, 5, 12));
}

TEST(HierarchySplit, SingleNodeTopIsNulled) {
  HierHarness h(machine::with_numa(machine::make_aries(1, 8), 2));
  Hierarchy& hc = h.han.hierarchy(h.world.world_comm());
  ASSERT_EQ(hc.depth(), 3);
  EXPECT_EQ(hc.node_count(), 1);
  for (int pr = 0; pr < 8; ++pr) {
    EXPECT_EQ(hc.comm(2, pr), nullptr) << pr;  // nothing crosses the top
    ASSERT_NE(hc.comm(1, pr), nullptr) << pr;
    EXPECT_EQ(hc.comm(1, pr)->size(), 2) << pr;
  }
}

// --- three-level data correctness ----------------------------------------

TEST(Hierarchy3Bcast, DataArrivesEverywhere) {
  HierHarness h(machine::with_numa(machine::make_aries(3, 8), 2));
  const int n = 24;
  const std::size_t count = 8192;  // 32KB → 8 segments at fs=4K
  std::vector<std::vector<std::int32_t>> bufs(n);
  for (int r = 0; r < n; ++r) {
    bufs[r] = r == 0 ? pattern_vec(0, count)
                     : std::vector<std::int32_t>(count, -1);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    return h.han.ibcast_cfg(h.world.world_comm(), rank.world_rank, 0,
                            BufView::of(bufs[rank.world_rank],
                                        Datatype::Int32),
                            Datatype::Int32, cfg3());
  });
  const auto expect = pattern_vec(0, count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(bufs[r], expect) << "rank " << r;
}

TEST(Hierarchy3Bcast, NonLeaderRoot) {
  // Root 13 sits on node 1, domain 1, slot 1: the root trick must ride
  // the families holding the root at every level.
  HierHarness h(machine::with_numa(machine::make_aries(3, 8), 2));
  const int n = 24, root = 13;
  const std::size_t count = 4096;
  std::vector<std::vector<std::int32_t>> bufs(n);
  for (int r = 0; r < n; ++r) {
    bufs[r] = r == root ? pattern_vec(root, count)
                        : std::vector<std::int32_t>(count, -1);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    return h.han.ibcast_cfg(h.world.world_comm(), rank.world_rank, root,
                            BufView::of(bufs[rank.world_rank],
                                        Datatype::Int32),
                            Datatype::Int32, cfg3());
  });
  const auto expect = pattern_vec(root, count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(bufs[r], expect) << "rank " << r;
}

TEST(Hierarchy3Allreduce, EveryRankHoldsSum) {
  HierHarness h(machine::with_numa(machine::make_aries(3, 8), 2));
  const int n = 24;
  const std::size_t count = 8192;
  std::vector<std::vector<std::int32_t>> send(n), recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, count);
    recv[r].assign(count, -1);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.han.iallreduce_cfg(h.world.world_comm(), r,
                                BufView::of(send[r], Datatype::Int32),
                                BufView::of(recv[r], Datatype::Int32),
                                Datatype::Int32, ReduceOp::Sum, cfg3());
  });
  const auto expect = expected_reduce(ReduceOp::Sum, n, count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(recv[r], expect) << "rank " << r;
}

TEST(Hierarchy3Allreduce, FourDomains) {
  HierHarness h(machine::with_numa(machine::make_aries(2, 8), 4));
  const int n = 16;
  const std::size_t count = 2048;
  std::vector<std::vector<std::int32_t>> send(n), recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, count);
    recv[r].assign(count, -1);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.han.iallreduce_cfg(h.world.world_comm(), r,
                                BufView::of(send[r], Datatype::Int32),
                                BufView::of(recv[r], Datatype::Int32),
                                Datatype::Int32, ReduceOp::Max, cfg3());
  });
  const auto expect = expected_reduce(ReduceOp::Max, n, count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(recv[r], expect) << "rank " << r;
}

TEST(Hierarchy3Reduce, RootHoldsSum) {
  HierHarness h(machine::with_numa(machine::make_aries(2, 8), 2));
  const int n = 16, root = 0;
  const std::size_t count = 4096;
  std::vector<std::vector<std::int32_t>> send(n), recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, count);
    recv[r].assign(count, -99);
  }
  run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    return h.han.ireduce_cfg(h.world.world_comm(), r, root,
                             BufView::of(send[r], Datatype::Int32),
                             BufView::of(recv[r], Datatype::Int32),
                             Datatype::Int32, ReduceOp::Sum, cfg3());
  });
  EXPECT_EQ(recv[root], expected_reduce(ReduceOp::Sum, n, count));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(send[r], pattern_vec(r, count)) << "sendbuf clobbered " << r;
  }
}

// --- degenerate-shape collapse (parameterized, all builders) --------------

struct DegenCase {
  const char* tag;
  int nodes, ppn, domains;
  int expect_depth;
  bool expect_top_null;  // top family nulled for every rank
};

// Named ctest cases: without a printer, gtest prints the raw struct bytes.
void PrintTo(const DegenCase& c, std::ostream* os) {
  *os << c.tag << " nodes=" << c.nodes << " ppn=" << c.ppn
      << " domains=" << c.domains << " depth=" << c.expect_depth
      << " top_null=" << c.expect_top_null;
}

class DegenerateLadder : public ::testing::TestWithParam<DegenCase> {};

machine::MachineProfile degen_profile(const DegenCase& c) {
  return machine::with_numa(machine::make_aries(c.nodes, c.ppn), c.domains);
}

TEST_P(DegenerateLadder, LadderCollapses) {
  const DegenCase& c = GetParam();
  HierHarness h(degen_profile(c));
  Hierarchy& hc = h.han.hierarchy(h.world.world_comm());
  EXPECT_EQ(hc.depth(), c.expect_depth);
  const int n = h.world.world_size();
  for (int pr = 0; pr < n; ++pr) {
    ASSERT_NE(hc.comm(0, pr), nullptr) << pr;  // level 0 is never null
    if (c.expect_top_null) {
      EXPECT_EQ(hc.comm(hc.depth() - 1, pr), nullptr) << pr;
    } else {
      EXPECT_NE(hc.comm(hc.depth() - 1, pr), nullptr) << pr;
    }
  }
}

TEST_P(DegenerateLadder, AllBuildersCorrect) {
  const DegenCase& c = GetParam();
  HierHarness h(degen_profile(c));
  const int n = h.world.world_size();
  const std::size_t count = 1024;
  const HanConfig cfg = cfg3();

  {  // bcast
    std::vector<std::vector<std::int32_t>> bufs(n);
    for (int r = 0; r < n; ++r) {
      bufs[r] = r == 0 ? pattern_vec(0, count)
                       : std::vector<std::int32_t>(count, -1);
    }
    run_collective(h.world, [&](mpi::Rank& rank) {
      return h.han.ibcast_cfg(h.world.world_comm(), rank.world_rank, 0,
                              BufView::of(bufs[rank.world_rank],
                                          Datatype::Int32),
                              Datatype::Int32, cfg);
    });
    const auto expect = pattern_vec(0, count);
    for (int r = 0; r < n; ++r) EXPECT_EQ(bufs[r], expect) << "bcast " << r;
  }
  {  // reduce
    std::vector<std::vector<std::int32_t>> send(n), recv(n);
    for (int r = 0; r < n; ++r) {
      send[r] = pattern_vec(r, count);
      recv[r].assign(count, -1);
    }
    run_collective(h.world, [&](mpi::Rank& rank) {
      const int r = rank.world_rank;
      return h.han.ireduce_cfg(h.world.world_comm(), r, 0,
                               BufView::of(send[r], Datatype::Int32),
                               BufView::of(recv[r], Datatype::Int32),
                               Datatype::Int32, ReduceOp::Sum, cfg);
    });
    EXPECT_EQ(recv[0], expected_reduce(ReduceOp::Sum, n, count));
  }
  {  // allreduce
    std::vector<std::vector<std::int32_t>> send(n), recv(n);
    for (int r = 0; r < n; ++r) {
      send[r] = pattern_vec(r, count);
      recv[r].assign(count, -1);
    }
    run_collective(h.world, [&](mpi::Rank& rank) {
      const int r = rank.world_rank;
      return h.han.iallreduce_cfg(h.world.world_comm(), r,
                                  BufView::of(send[r], Datatype::Int32),
                                  BufView::of(recv[r], Datatype::Int32),
                                  Datatype::Int32, ReduceOp::Sum, cfg);
    });
    const auto expect = expected_reduce(ReduceOp::Sum, n, count);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(recv[r], expect) << "allreduce " << r;
    }
  }
  {  // gather + scatter + allgather (flat internal ladder, NUMA machine)
    std::vector<std::vector<std::int32_t>> send(n);
    std::vector<std::int32_t> gathered(count * n, -1);
    for (int r = 0; r < n; ++r) send[r] = pattern_vec(r, count);
    run_collective(h.world, [&](mpi::Rank& rank) {
      const int r = rank.world_rank;
      return h.han.igather(h.world.world_comm(), r, 0,
                           BufView::of(send[r], Datatype::Int32),
                           r == 0 ? BufView::of(gathered, Datatype::Int32)
                                  : BufView::timing_only(gathered.size() * 4),
                           coll::CollConfig{});
    });
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(gathered[r * count + i], test::pattern(r, i))
            << "gather block " << r;
      }
    }
    std::vector<std::vector<std::int32_t>> scattered(n);
    for (int r = 0; r < n; ++r) scattered[r].assign(count, -1);
    run_collective(h.world, [&](mpi::Rank& rank) {
      const int r = rank.world_rank;
      return h.han.iscatter(
          h.world.world_comm(), r, 0,
          r == 0 ? BufView::of(gathered, Datatype::Int32)
                 : BufView::timing_only(gathered.size() * 4),
          BufView::of(scattered[r], Datatype::Int32), coll::CollConfig{});
    });
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(scattered[r], pattern_vec(r, count)) << "scatter " << r;
    }
    std::vector<std::vector<std::int32_t>> all(n);
    for (int r = 0; r < n; ++r) all[r].assign(count * n, -1);
    run_collective(h.world, [&](mpi::Rank& rank) {
      const int r = rank.world_rank;
      return h.han.iallgather(h.world.world_comm(), r,
                              BufView::of(send[r], Datatype::Int32),
                              BufView::of(all[r], Datatype::Int32),
                              coll::CollConfig{});
    });
    for (int r = 0; r < n; ++r) EXPECT_EQ(all[r], gathered) << "allgather";
  }
  {  // barrier
    auto done = run_collective(h.world, [&](mpi::Rank& rank) {
      return h.han.ibarrier(h.world.world_comm(), rank.world_rank);
    });
    for (double d : done) EXPECT_GE(d, 0.0);
  }
}

TEST_P(DegenerateLadder, FlatMachineDerivedEqualsForcedFlat) {
  // On a 1-domain machine the derived descriptor *is* node<cluster, so
  // lvl=0 (derive) and lvl=2 (force flat) must time identically.
  const DegenCase& c = GetParam();
  if (c.domains != 1) GTEST_SKIP() << "NUMA ladder intentionally differs";
  auto timed = [&](int lvl) {
    HierHarness h(degen_profile(c), /*data_mode=*/false);
    HanConfig cfg = cfg3();
    cfg.lvl = lvl;
    auto done = run_collective(h.world, [&](mpi::Rank& rank) {
      return h.han.ibcast_cfg(h.world.world_comm(), rank.world_rank, 0,
                              BufView::timing_only(64 << 10), Datatype::Byte,
                              cfg);
    });
    return *std::max_element(done.begin(), done.end());
  };
  EXPECT_DOUBLE_EQ(timed(0), timed(2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DegenerateLadder,
    ::testing::Values(
        // One node, two domains: the cluster level nulls and collapses.
        DegenCase{"one_node_numa", 1, 8, 2, 3, true},
        // One proc per domain: the dead numa level splices away, leaving
        // exactly the flat node<cluster ladder.
        DegenCase{"one_proc_per_domain", 4, 2, 2, 3, false},
        // One domain: from_profile already derives the flat descriptor.
        DegenCase{"one_domain", 2, 4, 1, 2, false},
        // One proc per node.
        DegenCase{"one_ppn", 6, 1, 1, 2, false},
        // One node, flat.
        DegenCase{"one_node", 1, 4, 1, 2, true},
        // World of one.
        DegenCase{"one_rank", 1, 1, 1, 2, true}));

// --- timing: derived 3-level beats forced flat on NUMA machines -----------

TEST(HierarchyTiming, ThreeLevelsBeatTwoOnNumaMachine) {
  // On a NUMA machine, 2-level HAN's node-wide shm bcast drags every far-
  // socket reader across the inter-socket link; the 3-level pipeline
  // crosses it once per segment.
  const machine::MachineProfile prof =
      machine::with_numa(machine::make_aries(8, 16), 2);
  const std::size_t bytes = 8 << 20;
  HanConfig cfg;
  cfg.fs = 512 << 10;
  cfg.imod = "adapt";
  cfg.smod = "sm";
  cfg.ibalg = coll::Algorithm::Chain;
  cfg.iralg = coll::Algorithm::Chain;
  cfg.ibs = 64 << 10;

  auto timed = [&](int lvl) {
    HierHarness h(prof, /*data_mode=*/false);
    HanConfig c = cfg;
    c.lvl = lvl;
    auto done = run_collective(h.world, [&](mpi::Rank& rank) {
      return h.han.ibcast_cfg(h.world.world_comm(), rank.world_rank, 0,
                              BufView::timing_only(bytes), Datatype::Byte, c);
    });
    return *std::max_element(done.begin(), done.end());
  };
  const double t2 = timed(/*lvl=*/2);
  const double t3 = timed(/*lvl=*/0);
  EXPECT_LT(t3, t2) << "3-level " << t3 << " vs 2-level " << t2;
}

}  // namespace
}  // namespace han::core
