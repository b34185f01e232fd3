// Unit tests for machine profiles, efficiency curves, and fabric wiring.
#include <gtest/gtest.h>

#include "machine/effcurve.hpp"
#include "machine/fabric.hpp"
#include "machine/machine.hpp"
#include "simbase/engine.hpp"

namespace han::machine {
namespace {

TEST(EffCurve, EmptyCurveIsUnity) {
  EffCurve c;
  EXPECT_DOUBLE_EQ(c.at(1), 1.0);
  EXPECT_DOUBLE_EQ(c.at(1 << 20), 1.0);
}

TEST(EffCurve, ClampsOutsideKnots) {
  EffCurve c({{100, 0.5}, {1000, 1.0}});
  EXPECT_DOUBLE_EQ(c.at(1), 0.5);
  EXPECT_DOUBLE_EQ(c.at(100), 0.5);
  EXPECT_DOUBLE_EQ(c.at(1000), 1.0);
  EXPECT_DOUBLE_EQ(c.at(100000), 1.0);
}

TEST(EffCurve, InterpolatesInLogSpace) {
  EffCurve c({{16, 0.4}, {64, 0.8}});
  // 32 is the log-midpoint of 16 and 64.
  EXPECT_NEAR(c.at(32), 0.6, 1e-12);
}

TEST(EffCurve, MonotoneBetweenMonotoneKnots) {
  EffCurve c = ompi_net_efficiency();
  // The Open MPI curve dips: 16KB-128KB efficiencies are below both the
  // eager region and the peak (Fig. 11 shape).
  EXPECT_LT(c.at(64 << 10), c.at(4 << 10));
  EXPECT_LT(c.at(64 << 10), c.at(8 << 20));
  EXPECT_GT(c.at(8 << 20), 0.9);
}

TEST(EffCurve, VendorCurveDominatesOmpiMidRange) {
  EffCurve ompi = ompi_net_efficiency();
  EffCurve vendor = vendor_net_efficiency();
  for (std::uint64_t b = 16 << 10; b <= 512 << 10; b *= 2) {
    EXPECT_GT(vendor.at(b), ompi.at(b)) << "at " << b;
  }
  // Equal-ish peaks: the paper notes both reach the same peak bandwidth.
  EXPECT_NEAR(vendor.at(64 << 20), ompi.at(64 << 20), 0.01);
}

TEST(MachineProfile, AriesDefaults) {
  const MachineProfile m = make_aries();
  EXPECT_EQ(m.nodes, 128);
  EXPECT_EQ(m.procs_per_node, 32);
  EXPECT_EQ(m.total_procs(), 4096);
  EXPECT_GT(m.nic_bandwidth, 0.0);
  EXPECT_GT(m.membus_bandwidth, m.nic_bandwidth);
  EXPECT_GT(m.reduce_bandwidth_avx, m.reduce_bandwidth_scalar);
}

TEST(MachineProfile, OpathDefaults) {
  const MachineProfile m = make_opath();
  EXPECT_EQ(m.total_procs(), 1536);
  EXPECT_LT(m.net_latency, make_aries().net_latency);
}

TEST(MachineProfile, ScalableShape) {
  const MachineProfile m = make_aries(4, 8);
  EXPECT_EQ(m.total_procs(), 32);
}

TEST(ClusterFabric, WiresResourcesPerNode) {
  sim::Engine e;
  net::FlowNet fn(e);
  const MachineProfile m = make_aries(4, 8);
  ClusterFabric fabric(fn, m);

  EXPECT_DOUBLE_EQ(fn.capacity(fabric.nic_tx(0)), m.nic_bandwidth);
  EXPECT_DOUBLE_EQ(fn.capacity(fabric.nic_rx(3)), m.nic_bandwidth);
  EXPECT_DOUBLE_EQ(fn.capacity(fabric.membus(1)), m.membus_bandwidth);
  EXPECT_DOUBLE_EQ(fn.capacity(fabric.fabric()),
                   m.bisection_factor * 4 * m.nic_bandwidth);
}

TEST(ClusterFabric, InterPathCrossesBothBuses) {
  sim::Engine e;
  net::FlowNet fn(e);
  const MachineProfile m = make_aries(4, 8);
  ClusterFabric fabric(fn, m);

  net::Route path = fabric.inter_path(0, 2);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path[0], fabric.nic_tx(0));
  EXPECT_EQ(path[1], fabric.fabric());
  EXPECT_EQ(path[2], fabric.nic_rx(2));
  EXPECT_EQ(path[3], fabric.membus(0));
  EXPECT_EQ(path[4], fabric.membus(2));

  path = fabric.intra_path(1, 0);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], fabric.membus(1));
}

TEST(ClusterFabric, LongestPathFillsRoute) {
  // net::Route is sized to the longest route the fabric emits, so every
  // flow path stays inline. The inter-node route is that longest one; a
  // cross-domain pair path (both buses and the socket link) is shorter.
  sim::Engine e;
  net::FlowNet fn(e);
  const MachineProfile m = with_rails(with_numa(make_opath(2, 8), 2), 4);
  ClusterFabric fabric(fn, m);
  for (int rail = 0; rail < fabric.rails(); ++rail) {
    EXPECT_EQ(fabric.inter_path(0, 1, rail).size(), net::Route::kCapacity);
  }
  EXPECT_EQ(fabric.pair_path(1, 0, 1).size(), 3u);
  EXPECT_EQ(fabric.pair_path(1, 1, 1).size(), 1u);
  EXPECT_EQ(fabric.intra_path(0, 1).size(), 1u);
}

}  // namespace
}  // namespace han::machine
