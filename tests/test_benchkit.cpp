// Tests for the benchmark harness plumbing: the IMB driver's iteration
// policy, the Netpipe driver, and the bench utility flag parser.
#include <gtest/gtest.h>

#include "bench/bench_util.hpp"
#include "benchkit/imb.hpp"
#include "benchkit/netpipe.hpp"

namespace han {
namespace {

TEST(ImbPolicy, LargeMessagesGetFewerIterations) {
  auto stack = vendor::make_stack("ompi", machine::make_aries(2, 2));
  benchkit::ImbOptions opt;
  opt.sizes = {1 << 10, 8 << 20};
  opt.iterations = 3;
  opt.iterations_large = 1;
  opt.large_threshold = 4 << 20;
  auto pts = benchkit::imb_bcast(*stack, opt);
  EXPECT_EQ(pts[0].iterations, 3);
  EXPECT_EQ(pts[1].iterations, 1);
}

TEST(ImbPolicy, WarmupExcludedFromStats) {
  // With 1 warmup + 1 iteration, min == avg == max (single sample).
  auto stack = vendor::make_stack("han", machine::make_aries(2, 2));
  benchkit::ImbOptions opt;
  opt.sizes = {64 << 10};
  opt.warmup = 1;
  opt.iterations = 1;
  auto pts = benchkit::imb_allreduce(*stack, opt);
  EXPECT_DOUBLE_EQ(pts[0].min_sec, pts[0].avg_sec);
  EXPECT_DOUBLE_EQ(pts[0].avg_sec, pts[0].max_sec);
  EXPECT_GT(pts[0].avg_sec, 0.0);
}

TEST(ImbPolicy, NonRootZeroRootSupported) {
  auto stack = vendor::make_stack("han", machine::make_aries(2, 3));
  benchkit::ImbOptions opt;
  opt.sizes = {4 << 10};
  opt.root = 4;  // non-leader root on node 1
  auto pts = benchkit::imb_bcast(*stack, opt);
  EXPECT_GT(pts[0].avg_sec, 0.0);
}

TEST(NetpipeDriver, LatencyAndBandwidthMonotonicity) {
  mpi::SimWorld w(machine::make_aries(2, 2));
  benchkit::NetpipeOptions opt;
  opt.sizes = {8, 8 << 10, 8 << 20};
  auto pts = benchkit::netpipe(w, opt);
  ASSERT_EQ(pts.size(), 3u);
  // One-way time grows with size; bandwidth grows toward the peak.
  EXPECT_LT(pts[0].one_way_sec, pts[1].one_way_sec);
  EXPECT_LT(pts[1].one_way_sec, pts[2].one_way_sec);
  EXPECT_LT(pts[0].bandwidth_gbps, pts[2].bandwidth_gbps);
  // 8MB approaches the NIC's peak efficiency.
  EXPECT_GT(pts[2].bandwidth_gbps, 7.0);
  EXPECT_LT(pts[2].bandwidth_gbps, 10.0);
}

TEST(NetpipeDriver, ExplicitPeers) {
  mpi::SimWorld w(machine::make_aries(3, 2));
  benchkit::NetpipeOptions opt;
  opt.sizes = {1 << 10};
  opt.rank_a = 1;
  opt.rank_b = 4;  // node 2
  auto pts = benchkit::netpipe(w, opt);
  EXPECT_GT(pts[0].one_way_sec, w.profile().net_latency);
}

TEST(BenchArgs, FlagParsing) {
  const char* argv[] = {"prog",    "--full", "--nodes", "24",
                        "--bytes", "4M",     "--name",  "opath"};
  bench::Args args(8, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("--full"));
  EXPECT_FALSE(args.has("--quick"));
  EXPECT_EQ(args.get_long("--nodes", 1), 24);
  EXPECT_EQ(args.get_long("--missing", 7), 7);
  EXPECT_EQ(args.get_bytes("--bytes", 0), 4u << 20);
  EXPECT_EQ(args.get_bytes("--nope", 42), 42u);
  EXPECT_EQ(args.get_string("--name", "x"), "opath");
  EXPECT_EQ(args.get_string("--other", "dflt"), "dflt");
}

TEST(BenchArgs, ScaleSelection) {
  {
    const char* argv[] = {"prog"};
    bench::Args args(1, const_cast<char**>(argv));
    const bench::Scale s = bench::pick_scale(args, {8, 4}, {64, 32});
    EXPECT_EQ(s.nodes, 8);
    EXPECT_EQ(s.ppn, 4);
  }
  {
    const char* argv[] = {"prog", "--full", "--ppn", "16"};
    bench::Args args(4, const_cast<char**>(argv));
    const bench::Scale s = bench::pick_scale(args, {8, 4}, {64, 32});
    EXPECT_EQ(s.nodes, 64);
    EXPECT_EQ(s.ppn, 16);  // explicit override beats preset
  }
}

TEST(BenchUtil, Ladder4AndSpeedup) {
  EXPECT_EQ(bench::ladder4(4, 256),
            (std::vector<std::size_t>{4, 16, 64, 256}));
  EXPECT_EQ(bench::ladder4(5, 4), std::vector<std::size_t>{});
  EXPECT_DOUBLE_EQ(bench::speedup(10.0, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(bench::speedup(10.0, 0.0), 0.0);
}

}  // namespace
}  // namespace han
