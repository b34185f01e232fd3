// han::verify mutation corpus: every test seeds a known-bad schedule (or
// a known-good one that earlier analyzer iterations mis-flagged) and
// asserts the analyzer reports exactly the right diagnostic class with a
// usable witness. The clean-sweep tests then pin the real builders to
// zero findings, and the gate tests cover the CollRuntime hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "coll/builders.hpp"
#include "coll/ring/ring_builders.hpp"
#include "coll/validate.hpp"
#include "han/verify/sweep.hpp"
#include "han/verify/verify.hpp"
#include "machine/machine.hpp"
#include "simbase/rng.hpp"
#include "coll_test_util.hpp"

namespace han::verify {
namespace {

using coll::Action;
using coll::BuildSpec;
using coll::compute_action;
using coll::copy_action;
using coll::cross_copy_action;
using coll::cross_dep;
using coll::dep;
using coll::Plan;
using coll::recv_action;
using coll::reduce_action;
using coll::send_action;
using coll::SlotRef;

const Finding* find_diag(const Report& rep, Diag d) {
  for (const Finding& f : rep.findings) {
    if (f.code == d) return &f;
  }
  return nullptr;
}

int count_diag(const Report& rep, Diag d) {
  int n = 0;
  for (const Finding& f : rep.findings) n += f.code == d;
  return n;
}

// ---- deadlock class ----------------------------------------------------

// The MPI classic: both ranks do a blocking send then recv. Deadlocks
// under rendezvous (each send waits for the peer's recv, which waits for
// the local send), completes if sends are eager.
Plan blocking_exchange() {
  Plan p(2, /*user_slots=*/2);
  for (int r = 0; r < 2; ++r) {
    auto& rp = p.ranks[r];
    const int s = rp.add(send_action(1 - r, 0, 64, SlotRef{0, 0}));
    Action v = recv_action(1 - r, 0, 64, SlotRef{1, 0});
    v.deps.push_back(dep(s));  // "blocking" send: recv waits on it
    rp.add(std::move(v));
  }
  return p;
}

TEST(VerifyDeadlock, BlockingExchangeDeadlocksUnderRendezvous) {
  const Report rep = analyze_plan(blocking_exchange(), 2);
  const Finding* f = find_diag(rep, Diag::WaitCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
  // Witness: a cycle touching both ranks.
  ASSERT_GE(f->cycle.size(), 4u);
  bool r0 = false, r1 = false;
  for (const Event& e : f->cycle) {
    r0 |= e.rank == 0;
    r1 |= e.rank == 1;
  }
  EXPECT_TRUE(r0 && r1) << f->message;
}

TEST(VerifyDeadlock, BlockingExchangeEscapesWhenEager) {
  Options opts;
  opts.assume_rendezvous = false;
  const Report rep = analyze_plan(blocking_exchange(), 2, opts);
  EXPECT_EQ(find_diag(rep, Diag::WaitCycle), nullptr) << rep.to_string();
  EXPECT_TRUE(rep.clean());
}

TEST(VerifyDeadlock, RecvBeforeSendCycleIsProtocolIndependent) {
  // Both ranks post the recv first and gate their send on it: a hard
  // dependency cycle through the data edges, deadlocked even with eager
  // sends.
  Plan p(2, 2);
  for (int r = 0; r < 2; ++r) {
    auto& rp = p.ranks[r];
    const int v = rp.add(recv_action(1 - r, 0, 64, SlotRef{1, 0}));
    Action s = send_action(1 - r, 0, 64, SlotRef{0, 0});
    s.deps.push_back(dep(v));
    rp.add(std::move(s));
  }
  Options opts;
  opts.assume_rendezvous = false;
  const Report rep = analyze_plan(p, 2, opts);
  EXPECT_NE(find_diag(rep, Diag::WaitCycle), nullptr) << rep.to_string();
}

TEST(VerifyDeadlock, CrossRankDependencyCycle) {
  // rank 0's compute waits on rank 1's and vice versa.
  Plan p(2, 1);
  Action a = compute_action(1e-6);
  a.deps.push_back(cross_dep(1, 0, 0.0));
  p.ranks[0].add(std::move(a));
  Action b = compute_action(1e-6);
  b.deps.push_back(cross_dep(0, 0, 0.0));
  p.ranks[1].add(std::move(b));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::WaitCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->cycle.empty());
}

TEST(VerifyDeadlock, NonblockingExchangeIsClean) {
  Plan p(2, 2);
  for (int r = 0; r < 2; ++r) {
    auto& rp = p.ranks[r];
    rp.add(recv_action(1 - r, 0, 64, SlotRef{1, 0}));
    rp.add(send_action(1 - r, 0, 64, SlotRef{0, 0}));
  }
  const Report rep = analyze_plan(p, 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(rep.error_count(), 0);
  EXPECT_EQ(rep.match_edges, 2);
}

// ---- matching class ----------------------------------------------------

TEST(VerifyMatching, UnmatchedSendFlagged) {
  Plan p(2, 1);
  p.ranks[0].add(send_action(1, 3, 64, SlotRef{0, 0}));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::UnmatchedSend);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank_a, 0);
  EXPECT_EQ(f->index_a, 0);
}

TEST(VerifyMatching, UnmatchedRecvFlagged) {
  Plan p(2, 1);
  p.ranks[1].add(recv_action(0, 3, 64, SlotRef{0, 0}));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::UnmatchedRecv);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank_a, 1);
  EXPECT_EQ(f->index_a, 0);
}

TEST(VerifyMatching, SizeMismatchFlagged) {
  Plan p(2, 2);
  p.ranks[0].add(send_action(1, 0, 64, SlotRef{0, 0}));
  p.ranks[1].add(recv_action(0, 0, 128, SlotRef{1, 0}));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::SizeMismatch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank_a, 0);
  EXPECT_EQ(f->rank_b, 1);
}

TEST(VerifyMatching, SwappedPeerMutationOnGather) {
  BuildSpec spec;
  spec.bytes = 256;
  Plan p = coll::build_linear_gather(4, spec);
  ASSERT_TRUE(coll::validate_plan(p, 4).empty());
  // Mutation: redirect rank 2's contribution to rank 1 instead of root.
  bool mutated = false;
  for (Action& a : p.ranks[2].actions) {
    if (a.kind == Action::Kind::Send) {
      a.peer = 1;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const Report rep = analyze_plan(p, 4);
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(find_diag(rep, Diag::UnmatchedSend), nullptr);
  EXPECT_NE(find_diag(rep, Diag::UnmatchedRecv), nullptr);
}

TEST(VerifyMatching, SwappedTagMutationOnBcast) {
  BuildSpec spec;
  spec.alg = coll::Algorithm::Binomial;
  spec.bytes = 4096;
  Plan p = coll::build_tree_bcast(4, spec);
  bool mutated = false;
  for (Action& a : p.ranks[3].actions) {
    if (a.kind == Action::Kind::Recv) {
      a.tag += 7;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const Report rep = analyze_plan(p, 4);
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(find_diag(rep, Diag::UnmatchedRecv), nullptr);
  EXPECT_NE(find_diag(rep, Diag::UnmatchedSend), nullptr);
}

TEST(VerifyMatching, ForcedPostingInversionIsError) {
  // Two same-key sends on rank 0 where cross-rank dependencies force the
  // later-emitted one to post first, inverting FIFO pairing.
  Plan p(2, 2);
  auto& r0 = p.ranks[0];
  Action s0 = send_action(1, 5, 64, SlotRef{0, 0});
  s0.deps.push_back(cross_dep(1, 2, 0.0));  // waits on rank 1's compute
  r0.add(std::move(s0));
  r0.add(send_action(1, 5, 64, SlotRef{0, 0}));
  auto& r1 = p.ranks[1];
  r1.add(recv_action(0, 5, 64, SlotRef{1, 0}));
  r1.add(recv_action(0, 5, 64, SlotRef{1, 0}));
  Action c = compute_action(1e-6);
  c.deps.push_back(cross_dep(0, 1, 0.0));  // ... which waits on send #2
  r1.add(std::move(c));
  const Report rep = analyze_plan(p, 2);
  bool inversion_error = false;
  for (const Finding& f : rep.findings) {
    inversion_error |= f.code == Diag::MatchOrderAmbiguous &&
                       f.severity == Severity::Error;
  }
  EXPECT_TRUE(inversion_error) << rep.to_string();
}

TEST(VerifyMatching, DepFreeSameKeySendsPostInIndexOrder) {
  // Two dep-free same-key sends: the runtime issues them in index order
  // within one cascade, which the analyzer proves — not even a warning.
  Plan p(2, 2);
  p.ranks[0].add(send_action(1, 5, 64, SlotRef{0, 0}));
  p.ranks[0].add(send_action(1, 5, 64, SlotRef{0, 0}));
  Action v0 = recv_action(0, 5, 64, SlotRef{1, 0});
  const int v0i = p.ranks[1].add(std::move(v0));
  Action v1 = recv_action(0, 5, 64, SlotRef{1, 64});
  v1.deps.push_back(dep(v0i));
  p.ranks[1].add(std::move(v1));
  const Report rep = analyze_plan(p, 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::MatchOrderAmbiguous), nullptr);
}

TEST(VerifyMatching, RacySameKeyOpsAreWarningOnly) {
  // Same-key sends gated on *unordered* recvs from different peers: their
  // posting order really is timing-dependent — a warning (the pairing is
  // a guess), but not an error (no forced inversion).
  Plan p(4, 2);
  auto& r0 = p.ranks[0];
  const int vx = r0.add(recv_action(1, 1, 64, SlotRef{1, 0}));
  const int vy = r0.add(recv_action(2, 2, 64, SlotRef{1, 64}));
  Action sa = send_action(3, 5, 64, SlotRef{0, 0});
  sa.deps.push_back(dep(vx));
  r0.add(std::move(sa));
  Action sb = send_action(3, 5, 64, SlotRef{0, 0});
  sb.deps.push_back(dep(vy));
  r0.add(std::move(sb));
  p.ranks[1].add(send_action(0, 1, 64, SlotRef{0, 0}));
  p.ranks[2].add(send_action(0, 2, 64, SlotRef{0, 0}));
  const int w0 = p.ranks[3].add(recv_action(0, 5, 64, SlotRef{1, 0}));
  Action w1 = recv_action(0, 5, 64, SlotRef{1, 64});
  w1.deps.push_back(dep(w0));
  p.ranks[3].add(std::move(w1));
  const Report rep = analyze_plan(p, 4);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  const Finding* f = find_diag(rep, Diag::MatchOrderAmbiguous);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_EQ(f->rank_a, 0);
}

// ---- race class --------------------------------------------------------

TEST(VerifyRace, DroppedDepRecvReduceRace) {
  // recv into tmp, reduce tmp into acc — with the recv->reduce dependency
  // dropped (the classic builder mutation).
  Plan p(2, 2);
  p.ranks[1].add(send_action(0, 0, 256, SlotRef{0, 0}));
  auto& r0 = p.ranks[0];
  r0.temp_slots.push_back(256);
  const SlotRef tmp{2, 0};
  r0.add(recv_action(1, 0, 256, tmp));
  r0.add(reduce_action(256, tmp, SlotRef{1, 0}, mpi::ReduceOp::Sum,
                       mpi::Datatype::Int32, false));  // no dep!
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::BufferRace);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->slot, 2);
  EXPECT_EQ(f->lo, 0u);
  EXPECT_EQ(f->hi, 256u);
}

TEST(VerifyRace, DroppedDepMutationOnRecdoub) {
  BuildSpec spec;
  spec.bytes = 1024;
  spec.dtype = mpi::Datatype::Int32;
  Plan p = coll::build_recdoub_allreduce(4, spec);
  ASSERT_TRUE(analyze_plan(p, 4).clean());
  bool mutated = false;
  for (Action& a : p.ranks[2].actions) {
    if (a.kind == Action::Kind::Reduce && !a.deps.empty()) {
      a.deps.clear();
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const Report rep = analyze_plan(p, 4);
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(find_diag(rep, Diag::BufferRace), nullptr) << rep.to_string();
}

TEST(VerifyRace, OverlappingRecvWindowsRace) {
  // Two concurrent recvs into overlapping halves of one slot.
  Plan p(3, 2);
  p.ranks[1].add(send_action(0, 0, 100, SlotRef{0, 0}));
  p.ranks[2].add(send_action(0, 0, 100, SlotRef{0, 0}));
  p.ranks[0].add(recv_action(1, 0, 100, SlotRef{1, 0}));
  p.ranks[0].add(recv_action(2, 0, 100, SlotRef{1, 50}));
  const Report rep = analyze_plan(p, 3);
  EXPECT_EQ(count_diag(rep, Diag::BufferRace), 1) << rep.to_string();
  const Finding* f = find_diag(rep, Diag::BufferRace);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->slot, 1);
  EXPECT_EQ(f->lo, 50u);
  EXPECT_EQ(f->hi, 100u);
}

TEST(VerifyRace, OverlappingWriteMutationOnGather) {
  BuildSpec spec;
  spec.bytes = 64;
  Plan p = coll::build_linear_gather(4, spec);
  ASSERT_TRUE(analyze_plan(p, 4).clean());
  // Mutation: root's recv from rank 2 lands on rank 1's region.
  bool mutated = false;
  for (Action& a : p.ranks[0].actions) {
    if (a.kind == Action::Kind::Recv && a.peer == 2) {
      a.dst.offset = 64;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const Report rep = analyze_plan(p, 4);
  const Finding* f = find_diag(rep, Diag::BufferRace);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->slot, 1);
}

TEST(VerifyRace, UnorderedAccumulationsGetOwnDiagnostic) {
  // Two reduces into the same interval, each gated only on its own recv:
  // the accumulation order is timing-dependent (fp nondeterminism).
  Plan p(3, 2);
  p.ranks[1].add(send_action(0, 0, 128, SlotRef{0, 0}));
  p.ranks[2].add(send_action(0, 0, 128, SlotRef{0, 0}));
  auto& r0 = p.ranks[0];
  r0.temp_slots.push_back(128);
  r0.temp_slots.push_back(128);
  const int v1 = r0.add(recv_action(1, 0, 128, SlotRef{2, 0}));
  const int v2 = r0.add(recv_action(2, 0, 128, SlotRef{3, 0}));
  Action red1 = reduce_action(128, SlotRef{2, 0}, SlotRef{1, 0},
                              mpi::ReduceOp::Sum, mpi::Datatype::Int32,
                              false);
  red1.deps.push_back(dep(v1));
  r0.add(std::move(red1));
  Action red2 = reduce_action(128, SlotRef{3, 0}, SlotRef{1, 0},
                              mpi::ReduceOp::Sum, mpi::Datatype::Int32,
                              false);
  red2.deps.push_back(dep(v2));
  r0.add(std::move(red2));
  const Report rep = analyze_plan(p, 3);
  EXPECT_NE(find_diag(rep, Diag::ReduceOrderAmbiguous), nullptr)
      << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::BufferRace), nullptr);
}

TEST(VerifyRace, ChainedAccumulationsAreClean) {
  Plan p(3, 2);
  p.ranks[1].add(send_action(0, 0, 128, SlotRef{0, 0}));
  p.ranks[2].add(send_action(0, 0, 128, SlotRef{0, 0}));
  auto& r0 = p.ranks[0];
  r0.temp_slots.push_back(128);
  r0.temp_slots.push_back(128);
  const int v1 = r0.add(recv_action(1, 0, 128, SlotRef{2, 0}));
  const int v2 = r0.add(recv_action(2, 0, 128, SlotRef{3, 0}));
  Action red1 = reduce_action(128, SlotRef{2, 0}, SlotRef{1, 0},
                              mpi::ReduceOp::Sum, mpi::Datatype::Int32,
                              false);
  red1.deps.push_back(dep(v1));
  const int r1i = r0.add(std::move(red1));
  Action red2 = reduce_action(128, SlotRef{3, 0}, SlotRef{1, 0},
                              mpi::ReduceOp::Sum, mpi::Datatype::Int32,
                              false);
  red2.deps.push_back(dep(v2));
  red2.deps.push_back(dep(r1i));  // fixed order
  r0.add(std::move(red2));
  const Report rep = analyze_plan(p, 3);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

TEST(VerifyRace, SendSnapshotThenOverwriteIsClean) {
  // Regression: a send snapshots its payload at issue, so a reduce that
  // overwrites the buffer afterwards (gated on the exchange's recv, the
  // recursive-doubling shape) is NOT a race.
  Plan p(2, 2);
  for (int r = 0; r < 2; ++r) {
    auto& rp = p.ranks[r];
    rp.temp_slots.push_back(256);
    const SlotRef acc{1, 0}, tmp{2, 0};
    const int init = rp.add(copy_action(256, SlotRef{0, 0}, acc));
    Action s = send_action(1 - r, 0, 256, acc);
    s.deps.push_back(dep(init));
    rp.add(std::move(s));
    Action v = recv_action(1 - r, 0, 256, tmp);
    v.deps.push_back(dep(init));
    const int vi = rp.add(std::move(v));
    Action red = reduce_action(256, tmp, acc, mpi::ReduceOp::Sum,
                               mpi::Datatype::Int32, false);
    red.deps.push_back(dep(vi));
    rp.add(std::move(red));
  }
  const Report rep = analyze_plan(p, 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::BufferRace), nullptr);
}

TEST(VerifyRace, RingPhaseOverlapIsClean) {
  // Regression: ring allreduce's allgather-phase recv lands on bytes the
  // reduce-scatter-phase send read; the data's trip around the ring
  // orders them. Earlier analyzer iterations flagged this.
  BuildSpec spec;
  spec.bytes = 8 * 64 * 1024;
  spec.dtype = mpi::Datatype::Int32;
  const Plan p = coll::build_ring_allreduce(8, spec);
  const Report rep = analyze_plan(p, 8);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(rep.findings.size(), 0u);
}

// ---- cross-access class ------------------------------------------------

TEST(VerifyCross, UnorderedCrossAccessFlagged) {
  Plan p(2, 2);
  p.ranks[1].add(compute_action(1e-6));
  // rank 0 reads rank 1's slot with no ordering against rank 1 at all.
  p.ranks[0].add(cross_copy_action(1, 64, SlotRef{0, 0}, SlotRef{1, 0}));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::CrossAccessUnordered);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank_a, 0);
  EXPECT_EQ(f->rank_b, 1);
}

TEST(VerifyCross, SequencedCrossAccessClean) {
  Plan p(2, 2);
  p.ranks[1].add(compute_action(1e-6));
  Action cc = cross_copy_action(1, 64, SlotRef{0, 0}, SlotRef{1, 0});
  cc.deps.push_back(cross_dep(1, 0, 0.0));
  p.ranks[0].add(std::move(cc));
  const Report rep = analyze_plan(p, 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::CrossAccessUnordered), nullptr);
}

// ---- graph level -------------------------------------------------------

GraphNodeSummary gnode(int ctx, int step, int op,
                       std::vector<int> members,
                       std::vector<int> deps = {}) {
  GraphNodeSummary n;
  n.ctx = ctx;
  n.step = step;
  n.op = op;
  n.members = std::move(members);
  n.deps = std::move(deps);
  return n;
}

TEST(VerifyGraph, CountMismatchFlagged) {
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}), gnode(7, 1, 0, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(7, 0, 0, {0, 1})};
  const Report rep = analyze_task_graphs(gs, 1);
  const Finding* f = find_diag(rep, Diag::CollectiveCountMismatch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
}

TEST(VerifyGraph, OrderMismatchFlagged) {
  // Crossed call order: rank 0 runs Bcast then Reduce on the context,
  // rank 1 the reverse.
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}), gnode(7, 1, 1, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(7, 0, 1, {0, 1}), gnode(7, 1, 0, {0, 1})};
  const Report rep = analyze_task_graphs(gs, 1);
  EXPECT_NE(find_diag(rep, Diag::CollectiveOrderMismatch), nullptr)
      << rep.to_string();
}

std::vector<GraphSummary> window_trap() {
  // Two contexts, issued in opposite per-rank order at adjacent steps.
  // With window 1 each rank's step-1 issue waits on its step-0 completion,
  // which needs the peer's step-1 issue: a cycle. Window >= 2 unblocks it.
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}), gnode(8, 1, 0, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(8, 0, 0, {0, 1}), gnode(7, 1, 0, {0, 1})};
  return gs;
}

TEST(VerifyGraph, WindowDependentCycleAtWindowOne) {
  const Report rep = analyze_task_graphs(window_trap(), 1);
  const Finding* f = find_diag(rep, Diag::GraphWaitCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("window 1"), std::string::npos) << f->message;
}

TEST(VerifyGraph, WindowDependentCycleClearsAtWindowTwo) {
  const Report rep = analyze_task_graphs(window_trap(), 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::GraphWaitCycle), nullptr);
}

TEST(VerifyGraph, WindowZeroClampsToOne) {
  const Report rep = analyze_task_graphs(window_trap(), 0);
  EXPECT_NE(find_diag(rep, Diag::GraphWaitCycle), nullptr);
}

TEST(VerifyGraph, DependencyCycleAcrossInstances) {
  // rank 0: node0 (ctx A) depends on node1 (ctx B); rank 1: node0 (ctx B)
  // depends on node1 (ctx A). Instances tie each pair across ranks:
  // deadlock at every window.
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}, {1}), gnode(8, 0, 0, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(8, 0, 0, {0, 1}, {1}), gnode(7, 0, 0, {0, 1})};
  const Report rep = analyze_task_graphs(gs, 3);
  const Finding* f = find_diag(rep, Diag::GraphWaitCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->cycle.empty());
}

TEST(VerifyGraph, MatchedGraphsClean) {
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}), gnode(8, 1, 0, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(7, 0, 0, {0, 1}), gnode(8, 1, 0, {0, 1})};
  const Report rep = analyze_task_graphs(gs, 1);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

/// Seeded random corpus of multi-rank summaries: 2-6 ranks with distinct,
/// shuffled world ranks. Each of 3 contexts has a member subset (which may
/// drop a present rank or name an absent one) and a script of 0-2 ops
/// that every member runs, except that one rank in ten drops or alters an
/// op. A rank interleaves its scripts at random with 0-2 comm-less nodes
/// (at most 8 nodes), on nondecreasing steps 0-3 with random earlier-node
/// deps. One context node in 16 names no members.
std::vector<std::vector<GraphSummary>> random_graph_corpus() {
  sim::Rng rng(0x4a11);
  auto below = [&](int n) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  constexpr int kIds = 8;
  constexpr int kCtxs[] = {5, 6, 7};
  std::vector<std::vector<GraphSummary>> corpus;
  for (int c = 0; c < 300; ++c) {
    const int nranks = 2 + below(5);
    std::vector<int> ids(kIds);
    for (int i = 0; i < kIds; ++i) ids[i] = i;
    for (int i = kIds - 1; i > 0; --i) std::swap(ids[i], ids[below(i + 1)]);
    std::vector<int> members[3];
    std::vector<int> scripts[3];
    for (int k = 0; k < 3; ++k) {
      for (int id = 0; id < kIds; ++id) {
        const bool present =
            std::find(ids.begin(), ids.begin() + nranks, id) !=
            ids.begin() + nranks;
        if (below(8) < (present ? 7 : 1)) members[k].push_back(id);
      }
      for (int len = below(3); len > 0; --len) scripts[k].push_back(below(3));
    }
    std::vector<GraphSummary> gs(nranks);
    for (int r = 0; r < nranks; ++r) {
      gs[r].world_rank = ids[r];
      std::vector<std::vector<int>> queues;  // ctx index, then ops
      for (int k = 0; k < 3; ++k) {
        if (std::find(members[k].begin(), members[k].end(), ids[r]) ==
            members[k].end()) {
          continue;
        }
        std::vector<int> q{k};
        q.insert(q.end(), scripts[k].begin(), scripts[k].end());
        if (q.size() > 1 && below(10) == 0) {
          if (below(2) == 0) {
            q.pop_back();
          } else {
            q[1 + below(static_cast<int>(q.size()) - 1)] = 3;
          }
        }
        queues.push_back(std::move(q));
      }
      for (int local = below(3); local > 0; --local) queues.push_back({-1, 0});
      std::vector<std::size_t> next(queues.size(), 1);
      int step = 0;
      for (;;) {
        std::vector<int> open;
        for (std::size_t q = 0; q < queues.size(); ++q) {
          if (next[q] < queues[q].size()) open.push_back(static_cast<int>(q));
        }
        if (open.empty()) break;
        const std::size_t qi = static_cast<std::size_t>(
            open[below(static_cast<int>(open.size()))]);
        const std::vector<int>& q = queues[qi];
        const int op = q[next[qi]++];
        const int j = static_cast<int>(gs[r].nodes.size());
        std::vector<int> deps;
        for (int d = 0; d < j; ++d) {
          if (below(5) == 0) deps.push_back(d);
        }
        if (step < 3 && below(3) == 0) ++step;
        const bool named = q[0] >= 0 && below(16) != 0;
        gs[r].nodes.push_back(gnode(q[0] < 0 ? -1 : kCtxs[q[0]], step, op,
                                    named ? members[q[0]] : std::vector<int>{},
                                    std::move(deps)));
      }
    }
    corpus.push_back(std::move(gs));
  }
  return corpus;
}

/// FNV-1a over everything a graph-level Report carries.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void num(long long v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(static_cast<unsigned long long>(v) >>
                                      (8 * i)));
    }
  }
  void str(const std::string& s) {
    num(static_cast<long long>(s.size()));
    for (char ch : s) byte(static_cast<unsigned char>(ch));
  }
  void report(const Report& rep) {
    str(rep.to_string());
    num(rep.actions);
    num(rep.match_edges);
    num(static_cast<long long>(rep.findings.size()));
    for (const Finding& f : rep.findings) {
      num(f.rank_a);
      num(f.index_a);
      num(f.rank_b);
      num(f.index_b);
      num(static_cast<long long>(f.cycle.size()));
      for (const Event& e : f.cycle) {
        num(e.rank);
        num(e.index);
        num(e.completion ? 1 : 0);
      }
    }
  }
};

TEST(VerifyGraph, GoldenReportsOnRandomGraphs) {
  // Every report of the corpus at windows 1-4, hashed. The value was
  // recorded before the flat wait-for graph replaced the per-window
  // adjacency lists; any drift in findings, their order, witness cycles
  // or footprint counters changes it.
  Fnv1a hash;
  int cycles = 0, count_mismatches = 0, order_mismatches = 0;
  for (const std::vector<GraphSummary>& gs : random_graph_corpus()) {
    for (int w = 1; w <= 4; ++w) {
      const Report rep = analyze_task_graphs(gs, w);
      hash.report(rep);
      cycles += count_diag(rep, Diag::GraphWaitCycle);
      count_mismatches += count_diag(rep, Diag::CollectiveCountMismatch);
      order_mismatches += count_diag(rep, Diag::CollectiveOrderMismatch);
    }
  }
  EXPECT_GT(cycles, 0);
  EXPECT_GT(count_mismatches, 0);
  EXPECT_GT(order_mismatches, 0);
  EXPECT_EQ(hash.h, 0xcbbac5ee5a7aa09full) << std::hex << hash.h;
}

bool has_cycle(const Report& rep) {
  return find_diag(rep, Diag::GraphWaitCycle) != nullptr;
}

void expect_same_report(const Report& a, const Report& b,
                        const std::string& what) {
  EXPECT_EQ(a.actions, b.actions) << what;
  EXPECT_EQ(a.match_edges, b.match_edges) << what;
  EXPECT_EQ(a.race_pairs, b.race_pairs) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
  ASSERT_EQ(a.findings.size(), b.findings.size()) << what;
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const Finding& x = a.findings[i];
    const Finding& y = b.findings[i];
    EXPECT_EQ(x.code, y.code) << what;
    EXPECT_EQ(x.severity, y.severity) << what;
    EXPECT_EQ(x.message, y.message) << what;
    EXPECT_EQ(std::tie(x.rank_a, x.index_a, x.rank_b, x.index_b, x.slot,
                       x.lo, x.hi),
              std::tie(y.rank_a, y.index_a, y.rank_b, y.index_b, y.slot,
                       y.lo, y.hi))
        << what;
    ASSERT_EQ(x.cycle.size(), y.cycle.size()) << what;
    for (std::size_t e = 0; e < x.cycle.size(); ++e) {
      EXPECT_EQ(std::tie(x.cycle[e].rank, x.cycle[e].index,
                         x.cycle[e].completion),
                std::tie(y.cycle[e].rank, y.cycle[e].index,
                         y.cycle[e].completion))
          << what;
    }
  }
}

const std::vector<std::vector<int>> kWindowLists = {{1, 2, 3}, {3, 1, 2},
                                                    {2, 2}};

TEST(VerifyGraph, MultiWindowMatchesPerWindow) {
  // The multi-window overload builds one graph for all windows and reuses
  // the tightest clean window's report for every wider one; it must equal
  // a separate single-window analysis per window.
  int window_dependent = 0;
  Options no_deadlock;
  no_deadlock.check_deadlock = false;
  const std::vector<std::vector<GraphSummary>> corpus = random_graph_corpus();
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (const Options& opts : {Options{}, no_deadlock}) {
      std::vector<Report> single;  // single[w - 1]: window w
      for (int w = 1; w <= 3; ++w) {
        single.push_back(analyze_task_graphs(corpus[c], w, opts));
      }
      for (const std::vector<int>& windows : kWindowLists) {
        const std::vector<Report> multi =
            analyze_task_graphs(corpus[c], windows, opts);
        ASSERT_EQ(multi.size(), windows.size());
        for (std::size_t i = 0; i < windows.size(); ++i) {
          expect_same_report(multi[i], single[windows[i] - 1],
                             "corpus case " + std::to_string(c) +
                                 " window " + std::to_string(windows[i]));
        }
      }
      // The lemma the reuse rests on: no cycle at w, none at w + 1.
      for (int w = 1; w < 3; ++w) {
        if (!has_cycle(single[w - 1])) {
          EXPECT_FALSE(has_cycle(single[w])) << "corpus case " << c;
        }
      }
      window_dependent += has_cycle(single[0]) && !has_cycle(single[2]);
    }
  }
  EXPECT_GT(window_dependent, 0);

  // Every graph.* case of the smoke sweep, entry by entry.
  SweepOptions opts;
  opts.plans = false;
  opts.full_space = false;
  std::map<std::string, SweepEntry> single;
  for (int w = 1; w <= 3; ++w) {
    opts.windows = {w};
    for (SweepEntry& e : run_sweep(opts).entries) {
      single.emplace(e.name, std::move(e));
    }
  }
  for (const std::vector<int>& windows : kWindowLists) {
    opts.windows = windows;
    const SweepResult multi = run_sweep(opts);
    EXPECT_EQ(multi.entries.size(), single.size() / 3 * windows.size());
    for (const SweepEntry& e : multi.entries) {
      const auto it = single.find(e.name);
      ASSERT_NE(it, single.end()) << e.name;
      EXPECT_EQ(e.actions, it->second.actions) << e.name;
      EXPECT_EQ(e.errors, it->second.errors) << e.name;
      EXPECT_EQ(e.warnings, it->second.warnings) << e.name;
      EXPECT_EQ(e.lines, it->second.lines) << e.name;
    }
  }
}

TEST(VerifyGraph, WindowNearIntMaxGatesNothing) {
  // Any window the parser or a lookup file accepts is analyzed without
  // overflow: a window past every step gates no node, so the report is
  // the one at window 4 (steps are 0-3) up to the window in the message.
  constexpr int kMax = std::numeric_limits<int>::max();
  auto strip_window = [](std::string msg) {
    if (msg.rfind("window ", 0) == 0) msg.erase(0, msg.find(':'));
    return msg;
  };
  int cycles = 0;
  for (const std::vector<GraphSummary>& gs : random_graph_corpus()) {
    const Report one = analyze_task_graphs(gs, 1);
    const Report widest = analyze_task_graphs(gs, kMax);
    const std::vector<Report> multi =
        analyze_task_graphs(gs, std::vector<int>{1, kMax});
    ASSERT_EQ(multi.size(), 2u);
    expect_same_report(multi[0], one, "window 1");
    expect_same_report(multi[1], widest, "window INT_MAX");

    const Report four = analyze_task_graphs(gs, 4);
    ASSERT_EQ(widest.findings.size(), four.findings.size());
    for (std::size_t i = 0; i < four.findings.size(); ++i) {
      const Finding& x = widest.findings[i];
      const Finding& y = four.findings[i];
      EXPECT_EQ(x.code, y.code);
      EXPECT_EQ(strip_window(x.message), strip_window(y.message));
      ASSERT_EQ(x.cycle.size(), y.cycle.size());
      for (std::size_t e = 0; e < x.cycle.size(); ++e) {
        EXPECT_EQ(std::tie(x.cycle[e].rank, x.cycle[e].index,
                           x.cycle[e].completion),
                  std::tie(y.cycle[e].rank, y.cycle[e].index,
                           y.cycle[e].completion));
      }
    }
    cycles += count_diag(widest, Diag::GraphWaitCycle);
  }
  EXPECT_GT(cycles, 0);
}

// ---- sweep -------------------------------------------------------------

TEST(VerifySweep, AllBuildersCleanSmoke) {
  SweepOptions opts;
  opts.full_space = false;
  const SweepResult res = run_sweep(opts);
  EXPECT_GT(res.entries.size(), 100u);
  EXPECT_EQ(res.total_errors(), 0) << res.summary();
  EXPECT_EQ(res.total_warnings(), 0) << res.summary();
}

TEST(VerifySweep, JsonIsDeterministic) {
  SweepOptions opts;
  opts.graphs = false;  // plan family only: fast
  const SweepResult a = run_sweep(opts);
  const SweepResult b = run_sweep(opts);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("\"totals\""), std::string::npos);
  EXPECT_TRUE(std::is_sorted(
      a.entries.begin(), a.entries.end(),
      [](const SweepEntry& x, const SweepEntry& y) { return x.name < y.name; }));
}

TEST(VerifySweep, TruncatedAnalysisIsRecordedAsAnError) {
  // verify.hpp: a plan past max_race_pairs reports its truncated
  // analysis, never silently — the sweep and the exec matrix share this.
  Report rep;
  rep.actions = 7;
  rep.truncated = true;
  SweepResult out;
  record(out, "case", rep);
  ASSERT_EQ(out.entries.size(), 1u);
  const SweepEntry& e = out.entries[0];
  EXPECT_EQ(e.name, "case");
  EXPECT_EQ(e.actions, 7);
  EXPECT_EQ(e.errors, 1);
  EXPECT_EQ(e.warnings, 0);
  ASSERT_EQ(e.lines.size(), 1u);
  EXPECT_EQ(e.lines[0].rfind("error[truncated]: ", 0), 0u) << e.lines[0];
}

TEST(VerifySweep, ParseWindowsRejectsBadLists) {
  std::vector<int> windows;
  ASSERT_TRUE(parse_windows("1,2,3", &windows));
  EXPECT_EQ(windows, (std::vector<int>{1, 2, 3}));
  // A repeat would record one case name twice; 99999999999 overflows int.
  for (const char* bad : {"2,2", "99999999999", "0", "", "1,", "a"}) {
    EXPECT_FALSE(parse_windows(bad, &windows)) << '"' << bad << '"';
    EXPECT_TRUE(windows.empty()) << '"' << bad << '"';
  }
}

// ---- runtime gate ------------------------------------------------------

mpi::Request ibcast_for_gate(test::CollHarness& h, mpi::Rank& rank,
                             std::vector<std::vector<std::int32_t>>& bufs) {
  coll::CollConfig cfg;
  cfg.alg = coll::Algorithm::Binomial;
  return h.mods.libnbc().ibcast(
      h.world.world_comm(), rank.world_rank, /*root=*/0,
      mpi::BufView::of(bufs[rank.world_rank], mpi::Datatype::Int32),
      mpi::Datatype::Int32, cfg);
}

TEST(VerifyGate, CheckerSeesEveryFreshPlan) {
  test::CollHarness h(machine::make_aries(2, 2));
  int checked = 0;
  h.rt.set_plan_checker([&](const Plan& plan, int comm_size) {
    ++checked;
    EXPECT_TRUE(analyze_plan(plan, comm_size).clean());
    return std::string();
  });
  const int n = h.world.world_size();
  std::vector<std::vector<std::int32_t>> bufs(n);
  for (int r = 0; r < n; ++r) {
    bufs[r] = r == 0 ? test::pattern_vec(0, 64)
                     : std::vector<std::int32_t>(64, -1);
  }
  test::run_collective(h.world, [&](mpi::Rank& rank) {
    return ibcast_for_gate(h, rank, bufs);
  });
  EXPECT_GE(checked, 1);
  EXPECT_EQ(bufs[1], test::pattern_vec(0, 64));
}

TEST(VerifyGate, ArmedGateLetsCleanPlansThrough) {
  test::CollHarness h(machine::make_aries(2, 2));
  arm_plan_gate(h.rt);
  const int n = h.world.world_size();
  std::vector<std::vector<std::int32_t>> bufs(n);
  for (int r = 0; r < n; ++r) {
    bufs[r] = r == 0 ? test::pattern_vec(0, 64)
                     : std::vector<std::int32_t>(64, -1);
  }
  test::run_collective(h.world, [&](mpi::Rank& rank) {
    return ibcast_for_gate(h, rank, bufs);
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bufs[r], test::pattern_vec(0, 64)) << "rank " << r;
  }
}

// ---- striped lookup entries (v4 `sf=` tokens) --------------------------

// A cached striped schedule must be rebuilt on a multi-rail topology:
// on a single-rail rebuild effective_sf clamps to 1 and the stripe
// structure would be verified in name only.
TEST(VerifyLookup, StripedEntriesReverifyOnMultiRailTopology) {
  tune::LookupTable table;
  core::HanConfig cfg;
  cfg.fs = 256 << 10;
  cfg.sf = 2;
  cfg.sched = "bc1:k1:r2:sb1.ib0";
  table.insert(coll::CollKind::Bcast, 2, 2, 1 << 20, cfg);
  // A striped config whose sched id itself carries no :r token still
  // needs the rails (dispatch stripes by HanConfig::sf).
  core::HanConfig cfg2;
  cfg2.fs = 256 << 10;
  cfg2.sf = 4;
  cfg2.sched = "ar1:k1:sr0.ir1.ib2.sb3";
  table.insert(coll::CollKind::Allreduce, 2, 2, 1 << 20, cfg2);

  SweepResult sweep;
  verify_lookup(table, sweep);
  ASSERT_EQ(sweep.entries.size(), 2u);
  EXPECT_EQ(sweep.total_errors(), 0) << sweep.summary();
  EXPECT_EQ(sweep.total_warnings(), 0) << sweep.summary();
  // The rebuilt graphs really carried work (not degraded to no-ops).
  for (const SweepEntry& e : sweep.entries) {
    EXPECT_GT(e.actions, 0) << e.name;
  }
}

TEST(VerifyGateDeathTest, RejectedPlanAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        test::CollHarness h(machine::make_aries(2, 2));
        h.rt.set_plan_checker([](const Plan&, int) {
          return std::string("verify: injected rejection");
        });
        std::vector<std::vector<std::int32_t>> bufs(h.world.world_size());
        for (auto& b : bufs) b.assign(16, 1);
        test::run_collective(h.world, [&](mpi::Rank& rank) {
          return ibcast_for_gate(h, rank, bufs);
        });
      },
      "injected rejection");
}

}  // namespace
}  // namespace han::verify
