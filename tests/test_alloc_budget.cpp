// Heap-allocation budget of the steady-state collective path: a collective
// action down through its messages to the fluid-network flows.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is an executable of its own: the counter must
// touch no other test. It replays one fixed round twice on a 2x4 aries
// machine in timing mode (an SM bcast on each node, a rendezvous-size
// ADAPT allreduce, eager point-to-point messages around a ring, and a ring
// reduce-scatter). The first round warms every pool; the second must stay
// within kBudgetPerAction heap allocations per executed collective action.
// A second round does the same for the decided HAN entry points, whose
// repeats bind persistent graph shapes (docs/TASKGRAPH.md), and once more
// with a schedule named by an id too long for the small-string buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "coll/runtime.hpp"
#include "han/han.hpp"
#include "simmpi/world.hpp"

namespace {
std::atomic<long> g_allocations{0};

void* counted_malloc(std::size_t bytes) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* counted_new(std::size_t bytes) {
  if (void* p = counted_malloc(bytes)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every form that pairs with the replaced deletes, so no allocation comes
// from a new the sanitizers (or the library) supply while free() frees it.
void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_malloc(bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_malloc(bytes);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace han::coll {
namespace {

using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;

constexpr double kBudgetPerAction = 2.0;

constexpr const char* kActionKinds[] = {
    "send", "recv", "copy", "reduce", "compute", "noop", "cross_copy",
    "cross_reduce"};

double actions_executed(obs::MetricsRegistry& m) {
  double total = 0.0;
  for (const char* kind : kActionKinds) {
    total += m.counter(std::string("coll.actions.") + kind).value();
  }
  return total;
}

struct Round {
  explicit Round(mpi::SimWorld& w) : world(w), rt(w), mods(w, rt) {
    node_comms = world.comm_split_shared(world.world_comm());
  }

  sim::CoTask rank_program(mpi::Rank& rank) {
    const int r = rank.world_rank;
    const int n = world.world_size();
    const mpi::Comm& all = world.world_comm();
    const mpi::Comm& node = *node_comms[r];
    const CollConfig cfg;
    // SM bcast within each node.
    co_await *mods.sm().ibcast(node, rank.local_rank, 0,
                               BufView::timing_only(4096), Datatype::Byte,
                               cfg);
    // Rendezvous-size ADAPT allreduce across the machine.
    co_await *mods.adapt().iallreduce(
        all, r, BufView::timing_only(64 << 10, Datatype::Int32),
        BufView::timing_only(64 << 10, Datatype::Int32), Datatype::Int32,
        ReduceOp::Sum, cfg);
    // Eager messages around the ring of world ranks.
    for (int i = 0; i < 4; ++i) {
      std::vector<mpi::Request> pair;
      pair.push_back(
          world.isend(all, r, (r + 1) % n, i, BufView::timing_only(1024)));
      pair.push_back(world.irecv(all, r, (r + n - 1) % n, i,
                                 BufView::timing_only(1024)));
      co_await mpi::wait_all(world.engine(), std::move(pair));
    }
    // Ring reduce-scatter across the machine.
    co_await *mods.ring().ireduce_scatter(
        all, r, BufView::timing_only(64 << 10, Datatype::Int32),
        BufView::timing_only((64 << 10) / 8, Datatype::Int32),
        Datatype::Int32, ReduceOp::Sum, cfg);
  }

  void run() {
    world.run([this](mpi::Rank& rank) { return rank_program(rank); });
  }

  mpi::SimWorld& world;
  CollRuntime rt;
  ModuleSet mods;
  std::vector<mpi::Comm*> node_comms;
};

/// Decided HAN calls on every rank, one after another: an allreduce, a
/// bcast from two roots, a reduce-scatter and an allgather, at 4 KiB and
/// 64 KiB, kReps times over, as an application repeats its collectives.
/// A round is one busy period: its first calls of each key build the graph
/// shapes (and the plan templates below them) and the repeats bind them.
struct HanRound {
  static constexpr int kReps = 8;

  explicit HanRound(core::HanWorld& w) : han(w) {}

  sim::CoTask rank_program(mpi::Rank& rank) {
    const int r = rank.world_rank;
    const int n = han.world.world_size();
    const mpi::Comm& all = han.world.world_comm();
    const CollConfig cfg;
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t bytes : {std::size_t{4} << 10, std::size_t{64} << 10}) {
        const BufView full = BufView::timing_only(bytes, Datatype::Int32);
        const BufView block = BufView::timing_only(
            bytes / static_cast<std::size_t>(n), Datatype::Int32);
        co_await *han.han.iallreduce(all, r, full, full, Datatype::Int32,
                                     ReduceOp::Sum, cfg);
        for (int root : {0, n - 1}) {
          co_await *han.han.ibcast(all, r, root, full, Datatype::Int32, cfg);
        }
        co_await *han.han.ireduce_scatter(all, r, full, block,
                                          Datatype::Int32, ReduceOp::Sum, cfg);
        co_await *han.han.iallgather(all, r, block, full, cfg);
      }
    }
  }

  void run() {
    han.world.run([this](mpi::Rank& rank) { return rank_program(rank); });
  }

  core::HanWorld& han;
};

/// Run `round` twice on `world`; the second (warm) run must stay within
/// the budget. `label` names the round in the printed summary; the warm
/// run's allocations go to `warm_allocations` if given.
template <typename R>
void expect_warm_round_within_budget(mpi::SimWorld& world, R& round,
                                     const char* label,
                                     long* warm_allocations = nullptr) {
  ASSERT_FALSE(world.data_mode());
  round.run();  // cold: templates, pools and match queues grow here

  const double actions_before = actions_executed(world.metrics());
  const std::uint64_t messages_before = world.messages_sent();
  const long allocations_before = g_allocations.load();
  round.run();
  const long allocations = g_allocations.load() - allocations_before;
  const double actions = actions_executed(world.metrics()) - actions_before;
  const std::uint64_t messages = world.messages_sent() - messages_before;

  ASSERT_GT(actions, 0.0);
  ASSERT_GT(messages, 0u);
  const double per_action = static_cast<double>(allocations) / actions;
  std::printf("warm %s round: %ld allocations, %.0f actions, %llu messages: "
              "%.3f allocations per action\n",
              label, allocations, actions,
              static_cast<unsigned long long>(messages), per_action);
  ::testing::Test::RecordProperty("allocations_per_action",
                                  std::to_string(per_action));
  EXPECT_LE(per_action, kBudgetPerAction);
  if (warm_allocations != nullptr) *warm_allocations = allocations;
}

TEST(AllocBudget, WarmRoundStaysWithinBudgetPerAction) {
  mpi::SimWorld world(machine::make_aries(2, 4));
  Round round(world);
  expect_warm_round_within_budget(world, round, "module");
}

TEST(AllocBudget, WarmDecidedHanRoundStaysWithinBudgetPerAction) {
  core::HanWorld plain(machine::make_aries(2, 4));
  HanRound plain_round(plain);
  long plain_allocations = 0;
  expect_warm_round_within_budget(plain.world, plain_round, "decided HAN",
                                  &plain_allocations);

  // The same round with the allreduce's canonical chain named by its spec
  // id. The id may cost where a shape is built; a repeat that copied it
  // would allocate once per allreduce call.
  core::HanWorld named(machine::make_aries(2, 4));
  named.han.set_decider([](CollKind kind, int nodes, int ppn,
                           std::size_t bytes) {
    core::HanConfig cfg =
        core::HanModule::default_config(kind, nodes, ppn, bytes);
    if (kind == CollKind::Allreduce) cfg.sched = "ar1:k1:sr0.ir1.ib2.sb3";
    return cfg;
  });
  HanRound named_round(named);
  long named_allocations = 0;
  expect_warm_round_within_budget(named.world, named_round,
                                  "decided HAN, named schedule",
                                  &named_allocations);
  const long allreduce_calls =
      HanRound::kReps * 2L * named.world.world_size();
  EXPECT_LT(named_allocations - plain_allocations, allreduce_calls);
}

}  // namespace
}  // namespace han::coll
