// Structural validators: coll::validate_plan and task::validate_graph
// must name the first defect of a malformed schedule, and the runtime's
// entry point and the scheduler's compile must refuse one.
#include <gtest/gtest.h>

#include "coll_test_util.hpp"
#include "coll/validate.hpp"
#include "han/han.hpp"
#include "han/task/graph.hpp"
#include "han/task/scheduler.hpp"

namespace han {
namespace {

using coll::Action;
using coll::DepRef;
using coll::Plan;
using coll::SlotRef;
using coll::validate_plan;

// --- Plan validation ----------------------------------------------------

Plan two_rank_sendrecv() {
  Plan p(/*comm_size=*/2, /*user_slots=*/1);
  p.ranks[0].add(coll::send_action(/*peer=*/1, /*tag=*/0, 16, SlotRef{0, 0}));
  p.ranks[1].add(coll::recv_action(/*peer=*/0, /*tag=*/0, 16, SlotRef{0, 0}));
  return p;
}

TEST(PlanValidate, WellFormedPasses) {
  EXPECT_EQ(validate_plan(two_rank_sendrecv(), 2), "");
}

TEST(PlanValidate, RankCountMismatch) {
  EXPECT_NE(validate_plan(two_rank_sendrecv(), 3), "");
}

TEST(PlanValidate, PeerOutOfRange) {
  Plan p = two_rank_sendrecv();
  p.ranks[0].actions[0].peer = 2;
  EXPECT_NE(validate_plan(p, 2), "");
}

TEST(PlanValidate, SlotOutOfRange) {
  Plan p = two_rank_sendrecv();
  p.ranks[0].actions[0].src.slot = 5;  // 1 user slot, no temps
  const std::string err = validate_plan(p, 2);
  EXPECT_NE(err.find("slot"), std::string::npos) << err;
}

TEST(PlanValidate, TempSlotOverrun) {
  Plan p(1, 1);
  p.ranks[0].temp_slots.push_back(8);
  // Copy 16 bytes into an 8-byte temp (slot 1 = first temp).
  p.ranks[0].add(coll::copy_action(16, SlotRef{0, 0}, SlotRef{1, 0}));
  const std::string err = validate_plan(p, 1);
  EXPECT_NE(err.find("overruns"), std::string::npos) << err;
}

TEST(PlanValidate, CrossSlotCheckedAgainstPeer) {
  // CrossCopy reads the *peer's* slot table: rank 1 has a temp, rank 0
  // does not, so reading peer slot 1 is fine but local slot 1 is not.
  Plan p(2, 1);
  p.ranks[1].temp_slots.push_back(32);
  p.ranks[0].add(
      coll::cross_copy_action(/*peer=*/1, 32, SlotRef{1, 0}, SlotRef{0, 0}));
  EXPECT_EQ(validate_plan(p, 2), "");
  p.ranks[0].actions[0].peer = 0;  // now slot 1 resolves on rank 0: invalid
  EXPECT_NE(validate_plan(p, 2), "");
}

TEST(PlanValidate, DepIndexOutOfRange) {
  Plan p = two_rank_sendrecv();
  p.ranks[1].actions[0].deps.push_back(DepRef{0, 7, 0.0});
  EXPECT_NE(validate_plan(p, 2), "");
}

TEST(PlanValidate, SelfDependency) {
  Plan p = two_rank_sendrecv();
  p.ranks[0].actions[0].deps.push_back(coll::dep(0));
  const std::string err = validate_plan(p, 2);
  EXPECT_NE(err.find("itself"), std::string::npos) << err;
}

TEST(PlanValidate, CrossRankCycle) {
  // rank0.a0 -> rank1.a0 -> rank0.a0: a deadlock the per-rank view of
  // get_or_create's index asserts could never see.
  Plan p(2, 1);
  Action a;
  a.kind = Action::Kind::Noop;
  p.ranks[0].add(a);
  p.ranks[1].add(a);
  p.ranks[0].actions[0].deps.push_back(coll::cross_dep(1, 0, 0.0));
  p.ranks[1].actions[0].deps.push_back(coll::cross_dep(0, 0, 0.0));
  const std::string err = validate_plan(p, 2);
  EXPECT_NE(err.find("cycle"), std::string::npos) << err;
}

TEST(PlanValidate, NegativeTag) {
  Plan p = two_rank_sendrecv();
  p.ranks[0].actions[0].tag = -1;
  EXPECT_NE(validate_plan(p, 2), "");
}

// --- TaskGraph validation ----------------------------------------------

/// A node naming a real module and communicator; validation never
/// issues it.
task::TaskNode noop_node(int step, std::vector<int> deps = {}) {
  static test::CollHarness h(machine::make_aries(1, 2));
  task::TaskNode n;
  n.step = step;
  n.deps = std::move(deps);
  n.mod = &h.mods.libnbc();
  n.comm = &h.world.world_comm();
  return n;
}

TEST(GraphValidate, WellFormedPasses) {
  task::TaskGraph g;
  const int a = g.add(noop_node(0));
  g.add(noop_node(1, {a}));
  EXPECT_EQ(task::validate_graph(g), "");
}

TEST(GraphValidate, MissingModuleOrComm) {
  task::TaskNode no_mod = noop_node(0);
  no_mod.mod = nullptr;
  task::TaskNode no_comm = noop_node(0);
  no_comm.comm = nullptr;
  for (const task::TaskNode& n : {no_mod, no_comm}) {
    task::TaskGraph g;
    g.add(n);
    const std::string err = task::validate_graph(g);
    EXPECT_NE(err.find("no module / comm"), std::string::npos) << err;
  }
}

TEST(GraphValidate, NegativeStep) {
  task::TaskGraph g;
  g.add(noop_node(-1));
  EXPECT_NE(task::validate_graph(g), "");
}

TEST(GraphValidate, DepOutOfRange) {
  task::TaskGraph g;
  g.add(noop_node(0, {3}));
  EXPECT_NE(task::validate_graph(g), "");
}

TEST(GraphValidate, Cycle) {
  task::TaskGraph g;
  g.add(noop_node(0, {1}));
  g.add(noop_node(0, {0}));
  const std::string err = task::validate_graph(g);
  EXPECT_NE(err.find("cycle"), std::string::npos) << err;
}

// --- rejection at the execution entry points ----------------------------

using ValidateDeath = ::testing::Test;

TEST(ValidateDeath, SchedulerRejectsCyclicGraph) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  core::HanWorld hw(machine::make_aries(1, 2));
  // Two node-level tasks of rank 0, each waiting on the other.
  task::RankView view;
  view.h = &hw.han.flat_hierarchy(hw.world.world_comm());
  view.tiers = 1;
  task::ShapeNode node;
  node.mod = &hw.mods.libnbc();
  task::GraphShape shape;
  shape.nodes = {node, node};
  shape.deps_begin = {0, 1, 2};
  shape.deps = {1, 0};
  EXPECT_DEATH(task::TaskScheduler::compile(std::move(shape), view), "cycle");
}

TEST(ValidateDeath, RuntimeRejectsMalformedPlan) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  test::CollHarness h(machine::make_aries(1, 2));
  // A root outside the communicator: every rank sends its block to
  // peer 99.
  coll::BuildSpec spec;
  spec.root = 99;
  spec.bytes = 8;
  EXPECT_DEATH(h.rt.start(h.world.world_comm(), 0,
                          coll::PlanBuilder::LinearGather, spec,
                          {mpi::BufView::timing_only(8),
                           mpi::BufView::timing_only(16)}),
               "out-of-range");
}

}  // namespace
}  // namespace han
