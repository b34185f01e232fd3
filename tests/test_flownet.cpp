// Unit + property tests for the max-min fair fluid-flow network.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "flownet/flownet.hpp"
#include "simbase/rng.hpp"

namespace han::net {
namespace {

using sim::Engine;

TEST(FlowNet, SingleFlowRunsAtCapacity) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 100.0);
  double done_at = -1.0;
  const ResourceId path[] = {r};
  fn.start_flow(path, 500.0, FlowNet::no_cap(), [&] { done_at = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(FlowNet, RateCapLimitsFlow) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 100.0);
  double done_at = -1.0;
  const ResourceId path[] = {r};
  fn.start_flow(path, 500.0, 50.0, [&] { done_at = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
}

TEST(FlowNet, TwoFlowsShareEqually) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 100.0);
  const ResourceId path[] = {r};
  std::vector<double> done;
  fn.start_flow(path, 500.0, FlowNet::no_cap(), [&] { done.push_back(e.now()); });
  fn.start_flow(path, 500.0, FlowNet::no_cap(), [&] { done.push_back(e.now()); });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Both run at 50 until both finish at t=10.
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 10.0, 1e-9);
}

TEST(FlowNet, ShortFlowReleasesBandwidth) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 100.0);
  const ResourceId path[] = {r};
  double long_done = -1.0, short_done = -1.0;
  fn.start_flow(path, 1000.0, FlowNet::no_cap(), [&] { long_done = e.now(); });
  fn.start_flow(path, 100.0, FlowNet::no_cap(), [&] { short_done = e.now(); });
  e.run();
  // Shared at 50/50 until the short one finishes at t=2 (100B at 50 B/s),
  // then the long one gets 100: remaining 900 after t=2 → done at 11.
  EXPECT_NEAR(short_done, 2.0, 1e-9);
  EXPECT_NEAR(long_done, 11.0, 1e-9);
}

TEST(FlowNet, CappedFlowLeavesHeadroomToOthers) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 100.0);
  const ResourceId path[] = {r};
  double capped_done = -1.0, free_done = -1.0;
  fn.start_flow(path, 100.0, 10.0, [&] { capped_done = e.now(); });
  fn.start_flow(path, 900.0, FlowNet::no_cap(), [&] { free_done = e.now(); });
  e.run();
  // Max-min: capped flow takes 10, the other gets 90.
  EXPECT_NEAR(capped_done, 10.0, 1e-9);
  EXPECT_NEAR(free_done, 10.0, 1e-9);
}

TEST(FlowNet, MultiResourceBottleneck) {
  Engine e;
  FlowNet fn(e);
  const ResourceId wide = fn.add_resource("wide", 100.0);
  const ResourceId narrow = fn.add_resource("narrow", 10.0);
  const ResourceId path[] = {wide, narrow};
  double done = -1.0;
  fn.start_flow(path, 100.0, FlowNet::no_cap(), [&] { done = e.now(); });
  e.run();
  EXPECT_NEAR(done, 10.0, 1e-9);
}

TEST(FlowNet, CrossTrafficOnlyStealsWhatItNeeds) {
  Engine e;
  FlowNet fn(e);
  // Flow A: narrow(10) + shared(100). Flow B: shared(100) only.
  // Max-min: A bottlenecked at 10 on narrow; B gets the remaining 90.
  const ResourceId narrow = fn.add_resource("narrow", 10.0);
  const ResourceId shared = fn.add_resource("shared", 100.0);
  const ResourceId path_a[] = {narrow, shared};
  const ResourceId path_b[] = {shared};
  double a_done = -1.0, b_done = -1.0;
  fn.start_flow(path_a, 100.0, FlowNet::no_cap(), [&] { a_done = e.now(); });
  fn.start_flow(path_b, 900.0, FlowNet::no_cap(), [&] { b_done = e.now(); });
  e.run();
  EXPECT_NEAR(a_done, 10.0, 1e-9);
  EXPECT_NEAR(b_done, 10.0, 1e-9);
}

TEST(FlowNet, ZeroByteFlowCompletesImmediately) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 100.0);
  const ResourceId path[] = {r};
  double done = -1.0;
  fn.start_flow(path, 0.0, FlowNet::no_cap(), [&] { done = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(FlowNet, AbortRemovesFlow) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 100.0);
  const ResourceId path[] = {r};
  bool aborted_fired = false;
  double other_done = -1.0;
  const FlowId f =
      fn.start_flow(path, 1000.0, FlowNet::no_cap(), [&] { aborted_fired = true; });
  fn.start_flow(path, 500.0, FlowNet::no_cap(), [&] { other_done = e.now(); });
  e.schedule_at(1.0, [&] { fn.abort_flow(f); });
  e.run();
  EXPECT_FALSE(aborted_fired);
  // Other flow: 50 B/s for 1s (450 left), then 100 B/s → done at 5.5.
  EXPECT_NEAR(other_done, 5.5, 1e-9);
}

TEST(FlowNet, SupersededCompletionNeverFires) {
  // 1 B and 2 B share a 1 B/s lane: both run at 0.5 B/s until the short
  // flow finishes at 2 s, then the long one's last byte takes 1 s more.
  // The rebalance at 2 s replaces the long flow's completion (due at 4 s)
  // with one at 3 s; the superseded event is cancelled, so the clock stops
  // at the last real event. Events: the rebalance at 0 s, the completion
  // and rebalance at 2 s, the completion and (empty) rebalance at 3 s.
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 1.0);
  const ResourceId path[] = {r};
  std::vector<double> done;
  fn.start_flow(path, 1.0, FlowNet::no_cap(), [&] { done.push_back(e.now()); });
  fn.start_flow(path, 2.0, FlowNet::no_cap(), [&] { done.push_back(e.now()); });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 3.0);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 5u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(FlowNet, AbortCancelsPendingCompletion) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 1.0);
  const ResourceId path[] = {r};
  bool fired = false;
  const FlowId f =
      fn.start_flow(path, 10.0, FlowNet::no_cap(), [&] { fired = true; });
  e.schedule_at(1.0, [&] { fn.abort_flow(f); });
  e.run_until(1.0);  // the abort and the rebalance it triggers
  EXPECT_EQ(fn.active_flows(), 0u);
  EXPECT_EQ(e.pending(), 0u);  // the completion due at 10 s is gone
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(FlowNet, SetCapacityRebalances) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("link", 100.0);
  const ResourceId path[] = {r};
  double done = -1.0;
  fn.start_flow(path, 1000.0, FlowNet::no_cap(), [&] { done = e.now(); });
  e.schedule_at(5.0, [&] { fn.set_capacity(r, 50.0); });
  e.run();
  // 500 bytes at 100 B/s, remaining 500 at 50 B/s → 5 + 10 = 15.
  EXPECT_NEAR(done, 15.0, 1e-9);
}

TEST(FlowNet, ResourceUsageNeverExceedsCapacity) {
  Engine e;
  FlowNet fn(e);
  sim::Rng rng(123);
  std::vector<ResourceId> resources;
  for (int i = 0; i < 8; ++i) {
    resources.push_back(fn.add_resource("r" + std::to_string(i),
                                        50.0 + 50.0 * rng.next_double()));
  }
  int completed = 0;
  // Random flow arrivals across random resource subsets.
  for (int i = 0; i < 60; ++i) {
    std::vector<ResourceId> path;
    const int k = 1 + static_cast<int>(rng.next_below(3));
    for (int j = 0; j < k; ++j) {
      path.push_back(resources[rng.next_below(resources.size())]);
    }
    const double bytes = 10.0 + 400.0 * rng.next_double();
    const double start = 5.0 * rng.next_double();
    e.schedule_at(start, [&fn, &e, &resources, &completed, path, bytes] {
      fn.start_flow(path, bytes, FlowNet::no_cap(), [&] { ++completed; });
      // Invariant: no resource oversubscribed right after rebalance.
      for (ResourceId r : resources) {
        EXPECT_LE(fn.resource_usage(r), fn.capacity(r) * (1.0 + 1e-9));
      }
      (void)e;
    });
  }
  e.run();
  EXPECT_EQ(completed, 60);
  EXPECT_EQ(fn.active_flows(), 0u);
}

// Property: max-min allocation — every flow is bottlenecked at some
// resource it crosses (saturated, and the flow's rate is >= every other
// flow's rate there) or at its own cap.
TEST(FlowNet, MaxMinBottleneckProperty) {
  Engine e;
  FlowNet fn(e);
  sim::Rng rng(7);
  std::vector<ResourceId> resources;
  for (int i = 0; i < 6; ++i) {
    resources.push_back(
        fn.add_resource("r" + std::to_string(i), 20.0 + 80.0 * rng.next_double()));
  }
  struct Live {
    FlowId id;
    std::vector<ResourceId> path;
    double cap;
  };
  std::vector<Live> live;
  for (int i = 0; i < 20; ++i) {
    std::vector<ResourceId> path;
    const int k = 1 + static_cast<int>(rng.next_below(3));
    for (int j = 0; j < k; ++j) {
      path.push_back(resources[rng.next_below(resources.size())]);
    }
    const double cap =
        rng.next_double() < 0.3 ? 5.0 + 10.0 * rng.next_double()
                                : FlowNet::no_cap();
    const FlowId id =
        fn.start_flow(path, 1e9, cap, [] {});  // long-lived flows
    live.push_back({id, path, cap});
  }
  // Rates are assigned by the batched rebalance at the current timestamp.
  e.run_until(0.0);

  for (const auto& f : live) {
    const double rate = fn.flow_rate(f.id);
    ASSERT_GT(rate, 0.0);
    bool bottlenecked = f.cap != FlowNet::no_cap() && rate >= f.cap * (1 - 1e-6);
    for (ResourceId r : f.path) {
      const bool saturated =
          fn.resource_usage(r) >= fn.capacity(r) * (1 - 1e-6);
      if (!saturated) continue;
      // On a saturated resource, max-min means nobody beats us unless capped.
      bool is_max = true;
      for (const auto& g : live) {
        if (g.id == f.id) continue;
        bool crosses = false;
        for (ResourceId gr : g.path) crosses |= (gr == r);
        if (crosses && fn.flow_rate(g.id) > rate * (1 + 1e-6)) is_max = false;
      }
      bottlenecked |= is_max;
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f.id << " rate " << rate;
  }
}


// --- slot-map regression suite ------------------------------------------

TEST(FlowNet, PoolRecyclesUnderChurn) {
  // Steady-state churn must recycle slots through the free list instead of
  // growing the slab: capacity is bounded by the peak live population.
  // Staggered sizes make every completion speed up the flows still running,
  // so each one is re-timed up to seven times per round; the superseded
  // completion events must be cancelled, not left queued until they fire.
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("lane", 1e9);
  const ResourceId path[] = {r};
  constexpr int kFlows = 8;
  for (int round = 0; round < 200; ++round) {
    int done = 0;
    for (int i = 0; i < kFlows; ++i) {
      fn.start_flow(path, 1e6 * (i + 1), FlowNet::no_cap(),
                    [&done] { ++done; });
    }
    e.run();
    EXPECT_EQ(done, kFlows);
  }
  EXPECT_EQ(fn.active_flows(), 0u);
  EXPECT_LE(fn.flow_pool_capacity(), 8u);
  // Live events: one completion per flow, the batched rebalance, and the
  // firing event whose slot is released only after its callback returns.
  EXPECT_LE(e.pool_capacity(), kFlows + 2u);
}

TEST(FlowNet, StaleFlowIdInertAfterSlotReuse) {
  Engine e;
  FlowNet fn(e);
  const ResourceId r = fn.add_resource("lane", 1e9);
  const ResourceId path[] = {r};
  bool first_done = false;
  FlowId a = fn.start_flow(path, 1e6, FlowNet::no_cap(),
                           [&] { first_done = true; });
  fn.abort_flow(a);
  // The second flow recycles a's slot under a bumped generation tag.
  bool second_done = false;
  FlowId b = fn.start_flow(path, 1e6, FlowNet::no_cap(),
                           [&] { second_done = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  EXPECT_NE(a, b);
  fn.abort_flow(a);             // stale handle: must not abort b
  EXPECT_EQ(fn.flow_rate(a), 0.0);
  e.run();
  EXPECT_FALSE(first_done);
  EXPECT_TRUE(second_done);
  EXPECT_EQ(fn.active_flows(), 0u);
}

TEST(FlowNet, RepeatedRouteResourceIsChargedOnce) {
  // A route naming a resource twice charges it once: start_flow sorts the
  // route and drops the duplicate before the flow joins any resource.
  Engine e;
  FlowNet fn(e);
  std::vector<ResourceId> path;
  for (int i = 0; i < 4; ++i) {
    path.push_back(fn.add_resource("r" + std::to_string(i), 1e9));
  }
  path.push_back(path[2]);  // a full Route, one entry repeated
  ASSERT_EQ(path.size(), Route::kCapacity);
  bool done = false;
  const FlowId id =
      fn.start_flow(path, 1e9, FlowNet::no_cap(), [&] { done = true; });
  e.run_until(0.5);
  EXPECT_DOUBLE_EQ(fn.flow_rate(id), 1e9);  // not halved on r2
  EXPECT_DOUBLE_EQ(fn.resource_usage(path[2]), 1e9);
  e.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);  // one full second at 1 GB/s
}

}  // namespace
}  // namespace han::net
