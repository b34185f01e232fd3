// Data-mode correctness of the vendor comparator stacks: every stack's
// Bcast/Allreduce must move/reduce real payloads correctly (parameterized
// across stacks, shapes, sizes — including the paths that trigger vendor
// internals: the SALaR segmented ring, the solo-threshold switch, the
// MVAPICH2 flat bcast).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "coll_test_util.hpp"
#include "vendor/stack.hpp"

namespace han::vendor {
namespace {

using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;
using test::expected_reduce;
using test::pattern_vec;

struct StackCase {
  const char* stack;
  int nodes, ppn;
  std::size_t count;  // int32 elements
  int root;
};

// Named ctest cases: without a printer, gtest prints the raw struct bytes.
void PrintTo(const StackCase& c, std::ostream* os) {
  *os << c.stack << " nodes=" << c.nodes << " ppn=" << c.ppn
      << " count=" << c.count << " root=" << c.root;
}

class StackBcastData : public ::testing::TestWithParam<StackCase> {};

TEST_P(StackBcastData, PayloadReachesEveryRank) {
  const StackCase& c = GetParam();
  auto stack = make_stack(c.stack, machine::make_opath(c.nodes, c.ppn),
                          /*data_mode=*/true);
  const int n = stack->world().world_size();
  std::vector<std::vector<std::int32_t>> bufs(n);
  for (int r = 0; r < n; ++r) {
    bufs[r] = r == c.root ? pattern_vec(c.root, c.count)
                          : std::vector<std::int32_t>(c.count, -1);
  }
  stack->world().run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](MpiStack& s, std::vector<std::vector<std::int32_t>>& bufs2,
              int root, int me) -> sim::CoTask {
      mpi::Request r = s.ibcast(me, root,
                                BufView::of(bufs2[me], Datatype::Int32),
                                Datatype::Int32);
      co_await *r;
    }(*stack, bufs, c.root, rank.world_rank);
  });
  const auto expect = pattern_vec(c.root, c.count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(bufs[r], expect) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, StackBcastData,
    ::testing::Values(
        StackCase{"ompi", 3, 4, 2000, 0},
        StackCase{"ompi", 2, 2, 300000, 1},  // large → chain path
        StackCase{"han", 3, 4, 2000, 0},
        StackCase{"han", 3, 4, 300000, 5},
        StackCase{"cray", 3, 4, 2000, 0},
        StackCase{"cray", 2, 4, 300000, 2},  // large → chain + solo intra
        StackCase{"intel", 3, 4, 2000, 4},
        StackCase{"mvapich", 3, 4, 2000, 0},   // flat binomial path
        StackCase{"mvapich", 2, 4, 300000, 0}));

class StackAllreduceData : public ::testing::TestWithParam<StackCase> {};

TEST_P(StackAllreduceData, EveryRankHoldsSum) {
  const StackCase& c = GetParam();
  auto stack = make_stack(c.stack, machine::make_opath(c.nodes, c.ppn),
                          /*data_mode=*/true);
  const int n = stack->world().world_size();
  std::vector<std::vector<std::int32_t>> send(n), recv(n);
  for (int r = 0; r < n; ++r) {
    send[r] = pattern_vec(r, c.count);
    recv[r].assign(c.count, -99);
  }
  stack->world().run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](MpiStack& s, std::vector<std::vector<std::int32_t>>& send4,
              std::vector<std::vector<std::int32_t>>& recv4,
              int me) -> sim::CoTask {
      mpi::Request r = s.iallreduce(me, BufView::of(send4[me], Datatype::Int32),
                                    BufView::of(recv4[me], Datatype::Int32),
                                    Datatype::Int32, ReduceOp::Sum);
      co_await *r;
    }(*stack, send, recv, rank.world_rank);
  });
  const auto expect = expected_reduce(ReduceOp::Sum, n, c.count);
  for (int r = 0; r < n; ++r) EXPECT_EQ(recv[r], expect) << "rank " << r;
  // MPI forbids touching send buffers.
  for (int r = 0; r < n; ++r) EXPECT_EQ(send[r], pattern_vec(r, c.count));
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, StackAllreduceData,
    ::testing::Values(
        StackCase{"ompi", 3, 4, 2000, 0},
        StackCase{"ompi", 2, 2, 300000, 0},    // ring path (>=1MB)
        StackCase{"han", 3, 4, 2000, 0},
        StackCase{"han", 3, 4, 300000, 0},     // pipelined 4-stage path
        StackCase{"cray", 3, 4, 2000, 0},      // recdoub inter path
        StackCase{"cray", 5, 4, 600000, 0},    // ring + SALaR segments
        StackCase{"intel", 3, 4, 2000, 0},
        StackCase{"intel", 5, 2, 1200000, 0},  // ring path (>=4MB)
        StackCase{"mvapich", 3, 4, 2000, 0},
        StackCase{"mvapich", 5, 4, 1200000, 0}));  // segmented SALaR path

TEST(StackSingleNode, AllStacksHandleOneNode) {
  for (const char* name : {"ompi", "han", "cray", "intel", "mvapich"}) {
    auto stack = make_stack(name, machine::make_opath(1, 4), true);
    std::vector<std::vector<std::int32_t>> send(4), recv(4);
    for (int r = 0; r < 4; ++r) {
      send[r] = pattern_vec(r, 100);
      recv[r].assign(100, 0);
    }
    stack->world().run([&](mpi::Rank& rank) -> sim::CoTask {
      return [](MpiStack& s, std::vector<std::vector<std::int32_t>>& send3,
                std::vector<std::vector<std::int32_t>>& recv3,
                int me) -> sim::CoTask {
        mpi::Request r = s.iallreduce(
            me, BufView::of(send3[me], Datatype::Int32),
            BufView::of(recv3[me], Datatype::Int32), Datatype::Int32,
            ReduceOp::Max);
        co_await *r;
      }(*stack, send, recv, rank.world_rank);
    });
    const auto expect = expected_reduce(ReduceOp::Max, 4, 100);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(recv[r], expect) << name << " rank " << r;
    }
  }
}

TEST(StackSingleRankPerNode, NoIntraLevel) {
  for (const char* name : {"han", "cray", "mvapich"}) {
    auto stack = make_stack(name, machine::make_opath(4, 1), true);
    std::vector<std::vector<std::int32_t>> send(4), recv(4);
    for (int r = 0; r < 4; ++r) {
      send[r] = pattern_vec(r, 64);
      recv[r].assign(64, 0);
    }
    stack->world().run([&](mpi::Rank& rank) -> sim::CoTask {
      return [](MpiStack& s, std::vector<std::vector<std::int32_t>>& send2,
                std::vector<std::vector<std::int32_t>>& recv2,
                int me) -> sim::CoTask {
        mpi::Request r = s.iallreduce(
            me, BufView::of(send2[me], Datatype::Int32),
            BufView::of(recv2[me], Datatype::Int32), Datatype::Int32,
            ReduceOp::Sum);
        co_await *r;
      }(*stack, send, recv, rank.world_rank);
    });
    const auto expect = expected_reduce(ReduceOp::Sum, 4, 64);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(recv[r], expect) << name << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace han::vendor
