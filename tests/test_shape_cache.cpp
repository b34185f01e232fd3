// Persistent HAN collectives: every entry point, decided or under an
// explicit config, builds each rank role's graph shape once per busy
// period and binds repeats to it (docs/TASKGRAPH.md, "Persistent
// shapes"). A bound shape must be the graph a fresh build makes, node for
// node, on every machine shape, for every rank, root, kind and config; the
// config must be part of the key; the cache must die with its
// communicator, its decider and its busy period; temps must be per run;
// and a plan checker must see every plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "autotune/search.hpp"
#include "coll_test_util.hpp"
#include "han/han.hpp"
#include "han/task/builders.hpp"
#include "machine/machine.hpp"

namespace han {
namespace {

using coll::CollKind;
using core::HanConfig;
using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;

/// A node's buffer as (owner, offset, length, dtype): the owner is none,
/// the caller's send or recv buffer, or the graph's k-th temp.
struct Placed {
  long long owner, offset;
  std::size_t bytes;
  Datatype dtype;
  friend bool operator==(const Placed&, const Placed&) = default;
};

Placed place(BufView v, BufView send, BufView recv,
             const task::TaskGraph& g) {
  if (v.data == nullptr) return {0, 0, v.bytes, v.dtype};
  auto inside = [&](const std::byte* base, std::size_t size) {
    return base != nullptr && v.data >= base && v.data < base + size;
  };
  if (inside(send.data, send.bytes)) {
    return {1, v.data - send.data, v.bytes, v.dtype};
  }
  if (inside(recv.data, recv.bytes)) {
    return {2, v.data - recv.data, v.bytes, v.dtype};
  }
  for (std::size_t k = 0; k < g.temps.size(); ++k) {
    if (inside(g.temps[k].data(), g.temps[k].size())) {
      return {3 + static_cast<long long>(k), v.data - g.temps[k].data(),
              v.bytes, v.dtype};
    }
  }
  return {-1, 0, v.bytes, v.dtype};
}

/// Node-for-node equality, buffers compared by placement.
void expect_same(const task::TaskGraph& a, const task::TaskGraph& b,
                 BufView send, BufView recv, const std::string& label) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << label;
  ASSERT_EQ(a.temps.size(), b.temps.size()) << label;
  for (std::size_t k = 0; k < a.temps.size(); ++k) {
    EXPECT_EQ(a.temps[k].size(), b.temps[k].size()) << label;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    task::TaskNode x = a.nodes[i];
    task::TaskNode y = b.nodes[i];
    EXPECT_EQ(place(x.send, send, recv, a), place(y.send, send, recv, b))
        << label << " node " << i << " send";
    EXPECT_EQ(place(x.recv, send, recv, a), place(y.recv, send, recv, b))
        << label << " node " << i << " recv";
    x.send = y.send = {};
    x.recv = y.recv = {};
    EXPECT_TRUE(x == y) << label << " node " << i;
  }
}

/// The caller's buffers of one call.
struct Bufs {
  std::vector<std::byte> send, recv;
  BufView send_view() { return BufView::of(send, Datatype::Byte); }
  BufView recv_view() { return BufView::of(recv, Datatype::Byte); }
};

/// Rank `me`'s call of `kind` moving `bytes` (per-rank blocks of
/// bytes / n for the block kinds), rooted at `root`.
task::Call make_call(CollKind kind, const mpi::Comm& comm, int me, int root,
                     std::size_t bytes, Bufs& b) {
  const std::size_t n = static_cast<std::size_t>(comm.size());
  const std::size_t block = bytes / n;
  switch (kind) {
    case CollKind::Bcast:
      b = {std::vector<std::byte>(bytes), {}};
      return {kind, &comm, me, root, b.send_view(), b.send_view()};
    case CollKind::Reduce:
    case CollKind::Allreduce:
      b = {std::vector<std::byte>(bytes), std::vector<std::byte>(bytes)};
      break;
    case CollKind::Gather:
    case CollKind::Allgather:
      b = {std::vector<std::byte>(block), std::vector<std::byte>(block * n)};
      break;
    case CollKind::Scatter:
    case CollKind::ReduceScatter:
      b = {std::vector<std::byte>(block * n), std::vector<std::byte>(block)};
      break;
    case CollKind::Barrier:
      b = {};
      return {kind, &comm, me};
  }
  const bool rootless = kind == CollKind::Allreduce ||
                        kind == CollKind::Allgather ||
                        kind == CollKind::ReduceScatter;
  return {kind,          &comm, me, rootless ? 0 : root, b.send_view(),
          b.recv_view(), Datatype::Byte, ReduceOp::Sum};
}

/// The fresh build of `c` under `cfg`, through the public builders.
task::TaskGraph fresh_graph(core::HanModule& han, const task::Call& c,
                            const HanConfig& cfg) {
  const mpi::Comm& comm = *c.comm;
  switch (c.kind) {
    case CollKind::Bcast:
      return task::build_bcast(han, comm, c.me, c.root, c.recv, c.dtype, cfg);
    case CollKind::Reduce:
      return task::build_reduce(han, comm, c.me, c.root, c.send, c.recv,
                                c.dtype, c.op, cfg);
    case CollKind::Allreduce:
      return task::build_allreduce(han, comm, c.me, c.send, c.recv, c.dtype,
                                   c.op, cfg);
    case CollKind::ReduceScatter:
      return task::build_reduce_scatter(han, comm, c.me, c.send, c.recv,
                                        c.dtype, c.op, cfg);
    case CollKind::Gather:
      return task::build_gather(han, comm, c.me, c.root, c.send, c.recv, cfg);
    case CollKind::Scatter:
      return task::build_scatter(han, comm, c.me, c.root, c.send, c.recv,
                                 cfg);
    case CollKind::Allgather:
      return task::build_allgather(han, comm, c.me, c.send, c.recv, cfg);
    case CollKind::Barrier:
      return task::build_barrier(han, comm, c.me);
  }
  return {};
}

constexpr CollKind kKinds[] = {
    CollKind::Bcast,   CollKind::Reduce,    CollKind::Allreduce,
    CollKind::Gather,  CollKind::Scatter,   CollKind::Allgather,
    CollKind::Barrier, CollKind::ReduceScatter};

/// The test decider's config: test_graph_digest's base config, with the
/// 1 MiB calls running off-canonical schedules (two allreduce leaders, a
/// three-level bcast) and reduce-scatter's ring.
HanConfig test_config(CollKind kind, std::size_t bytes, int window, int sf) {
  HanConfig cfg;
  cfg.fs = 64 << 10;
  cfg.imod = "adapt";
  cfg.smod = "sm";
  cfg.ibalg = coll::Algorithm::Binary;
  cfg.iralg = coll::Algorithm::Binary;
  cfg.ibs = 32 << 10;
  cfg.irs = 32 << 10;
  cfg.window = window;
  cfg.sf = sf;
  if (bytes >= (512u << 10)) {  // reduce-scatter: n blocks of 1 MiB / n
    if (kind == CollKind::Allreduce) cfg.sched = "ar1:k2:sr0.ir0.ib1.sb2";
    if (kind == CollKind::Bcast) cfg.sched = "bc1:k1:ib0.mb1.sb2";
    if (kind == CollKind::ReduceScatter) cfg.imod = "ring";
  }
  return cfg;
}

struct ShapeCase {
  const char* tag;
  const char* stock;  // a stock machine by name, else aries nodes x ppn
  int nodes, ppn, numa;
  int sf;
};

void PrintTo(const ShapeCase& c, std::ostream* os) { *os << c.tag; }

machine::MachineProfile case_profile(const ShapeCase& c) {
  if (c.stock != nullptr) {
    for (const machine::StockMachine& sm : machine::stock_machines()) {
      if (std::string(sm.name) == c.stock) return sm.profile;
    }
    ADD_FAILURE() << "no stock machine " << c.stock;
  }
  return machine::with_numa(machine::make_aries(c.nodes, c.ppn), c.numa);
}

class ShapeCacheEquivalence : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ShapeCacheEquivalence, FirstAndRepeatCallEqualTheFreshBuild) {
  const ShapeCase& sc = GetParam();
  mpi::SimWorld::Options opts;
  opts.data_mode = true;  // temps get storage, so their offsets compare
  core::HanWorld sw(case_profile(sc), opts);
  const mpi::Comm& wc = sw.world.world_comm();
  const int n = wc.size();
  for (int window : {1, 2}) {
    sw.han.set_decider([&](CollKind kind, int, int, std::size_t bytes) {
      return test_config(kind, bytes, window, sc.sf);
    });
    for (std::size_t bytes : {std::size_t{64} << 10, std::size_t{1} << 20}) {
      for (CollKind kind : kKinds) {
        const HanConfig cfg = test_config(kind, bytes, window, sc.sf);
        for (int root : {0, n / 3, n - 1}) {
          for (int me = 0; me < n; ++me) {
            const std::string label =
                std::string(coll::coll_kind_name(kind)) + " bytes " +
                std::to_string(bytes) + " window " + std::to_string(window) +
                " root " + std::to_string(root) + " rank " +
                std::to_string(me);
            Bufs b;
            const task::Call c = make_call(kind, wc, me, root, bytes, b);
            const task::TaskGraph first = sw.han.persistent_graph(c);
            const std::uint64_t built = sw.han.shapes_built();
            const task::TaskGraph repeat = sw.han.persistent_graph(c);
            EXPECT_EQ(sw.han.shapes_built(), built) << label;
            const task::TaskGraph fresh = fresh_graph(sw.han, c, cfg);
            expect_same(first, fresh, c.send, c.recv, label + " first");
            expect_same(repeat, fresh, c.send, c.recv, label + " repeat");
          }
        }
      }
    }
  }
  EXPECT_GT(sw.han.shapes_built(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeCacheEquivalence,
    ::testing::Values(ShapeCase{"one_node_numa", nullptr, 1, 8, 2, 1},
                      ShapeCase{"one_proc_per_domain", nullptr, 4, 2, 2, 1},
                      ShapeCase{"one_ppn", nullptr, 6, 1, 1, 1},
                      ShapeCase{"one_node", nullptr, 1, 4, 1, 1},
                      ShapeCase{"one_rank", nullptr, 1, 1, 1, 1},
                      ShapeCase{"aries_numa2x2x4", "aries_numa2x2x4", 0, 0,
                                1, 1},
                      ShapeCase{"aries_rail4_sf4", "aries_rail4", 0, 0, 1,
                                4}),
    [](const ::testing::TestParamInfo<ShapeCase>& shape) {
      return std::string(shape.param.tag);
    });

/// Off-default explicit configs of `kind`: a small segment and window 2,
/// each alone and with one of a k=2 (or 3-level) schedule, two stripes,
/// the flat ladder, or a zero-copy switchover.
std::vector<HanConfig> explicit_configs(CollKind kind) {
  HanConfig base = test_config(kind, 64 << 10, /*window=*/2, /*sf=*/1);
  base.fs = 8 << 10;
  std::vector<HanConfig> out{base};
  HanConfig sched = base;
  if (kind == CollKind::Allreduce) sched.sched = "ar1:k2:sr0.ir0.ib1.sb2";
  if (kind == CollKind::Bcast) sched.sched = "bc1:k1:ib0.mb1.sb2";
  if (kind == CollKind::ReduceScatter) sched.imod = "ring";
  if (!(sched == base)) out.push_back(sched);
  HanConfig striped = base;
  striped.sf = 2;
  out.push_back(striped);
  HanConfig flat = base;
  flat.lvl = 2;
  out.push_back(flat);
  HanConfig zero_copy = base;
  zero_copy.zcs = 16 << 10;
  out.push_back(zero_copy);
  return out;
}

TEST(ShapeCache, ExplicitConfigGraphsEqualFreshBuilds) {
  const std::pair<const char*, machine::MachineProfile> machines[] = {
      {"flat", machine::make_aries(2, 4)},
      {"numa", machine::with_numa(machine::make_aries(2, 4), 2)},
      {"rail2", machine::with_rails(machine::make_aries(2, 4), 2)}};
  for (const auto& [tag, profile] : machines) {
    mpi::SimWorld::Options opts;
    opts.data_mode = true;  // temps get storage, so their offsets compare
    core::HanWorld sw(profile, opts);
    const mpi::Comm& wc = sw.world.world_comm();
    const int n = wc.size();
    for (CollKind kind : {CollKind::Bcast, CollKind::Reduce,
                          CollKind::Allreduce, CollKind::ReduceScatter}) {
      for (const HanConfig& cfg : explicit_configs(kind)) {
        for (int root : {0, n - 1}) {
          for (int me = 0; me < n; ++me) {
            const std::string label =
                std::string(tag) + " " + coll::coll_kind_name(kind) + " " +
                cfg.to_string() + " root " + std::to_string(root) +
                " rank " + std::to_string(me);
            Bufs b;
            const task::Call c = make_call(kind, wc, me, root, 64 << 10, b);
            const task::TaskGraph first = sw.han.persistent_graph(c, cfg);
            const std::uint64_t built = sw.han.shapes_built();
            const task::TaskGraph repeat = sw.han.persistent_graph(c, cfg);
            EXPECT_EQ(sw.han.shapes_built(), built) << label;
            const task::TaskGraph fresh = fresh_graph(sw.han, c, cfg);
            expect_same(first, fresh, c.send, c.recv, label + " first");
            expect_same(repeat, fresh, c.send, c.recv, label + " repeat");
          }
        }
      }
    }
  }
}

TEST(ShapeCache, ConfigIsPartOfTheKey) {
  core::HanWorld sw(machine::make_aries(2, 4));
  const mpi::Comm& wc = sw.world.world_comm();
  const BufView full = BufView::timing_only(64 << 10, Datatype::Int32);
  const task::Call call{CollKind::Allreduce, &wc, 0, 0, full, full,
                        Datatype::Int32, ReduceOp::Sum};
  const HanConfig base = test_config(CollKind::Allreduce, 64 << 10, 1, 1);
  // One variant per field, each differing from `base` in that field alone.
  std::vector<HanConfig> variants(14, base);
  variants[0].fs = 16 << 10;
  variants[1].imod = "libnbc";
  variants[2].smod = "solo";
  variants[3].ibalg = coll::Algorithm::Chain;
  variants[4].iralg = coll::Algorithm::Chain;
  variants[5].ibs = 64 << 10;
  variants[6].irs = 64 << 10;
  variants[7].window = 2;
  variants[8].sched = "ar1:k2:sr0.ir0.ib1.sb2";
  variants[9].lvl = 2;
  variants[10].malg = coll::Algorithm::Chain;
  variants[11].ms = 16 << 10;
  variants[12].zcs = 1 << 10;
  variants[13].sf = 2;
  sw.han.persistent_graph(call, base);
  EXPECT_EQ(sw.han.shapes_built(), 1u);
  for (const HanConfig& cfg : variants) {
    const std::uint64_t built = sw.han.shapes_built();
    sw.han.persistent_graph(call, cfg);
    EXPECT_EQ(sw.han.shapes_built(), built + 1) << cfg.to_string();
    sw.han.persistent_graph(call, cfg);
    EXPECT_EQ(sw.han.shapes_built(), built + 1) << cfg.to_string();
  }
  // A decided call under a config an explicit call already used binds
  // the explicit call's shape, and the other way round.
  const auto decide_base = [&](CollKind, int, int, std::size_t) {
    return base;
  };
  sw.han.set_decider(decide_base);
  sw.han.persistent_graph(call, base);
  std::uint64_t built = sw.han.shapes_built();
  sw.han.persistent_graph(call);
  EXPECT_EQ(sw.han.shapes_built(), built);
  EXPECT_EQ(sw.han.live_shapes(), 1u);
  sw.han.set_decider(decide_base);
  sw.han.persistent_graph(call);
  built = sw.han.shapes_built();
  sw.han.persistent_graph(call, base);
  EXPECT_EQ(sw.han.shapes_built(), built);
  EXPECT_EQ(sw.han.live_shapes(), 1u);
}

TEST(ShapeCache, MeasurementBuildsOneShapePerRole) {
  // A measurement issues one config from every rank for two iterations,
  // each its own busy period: one shape per rank role per iteration.
  for (int nodes : {2, 4}) {
    core::HanWorld sw(machine::make_aries(nodes, 4));
    tune::Searcher searcher(sw.world, sw.han, sw.world.world_comm());
    const std::pair<CollKind, std::uint64_t> expected[] = {
        {CollKind::Bcast, 4},
        {CollKind::Allreduce, 4},
        {CollKind::ReduceScatter, 6}};
    for (const auto& [kind, shapes] : expected) {
      const HanConfig cfg = core::HanModule::default_config(
          kind, nodes, 4, std::size_t{64} << 10);
      const std::uint64_t built = sw.han.shapes_built();
      searcher.measure_collective(kind, std::size_t{64} << 10, cfg);
      EXPECT_EQ(sw.han.shapes_built() - built, shapes)
          << coll::coll_kind_name(kind) << " on " << nodes << "x4";
    }
  }
}

/// An allreduce of 4 KiB Int32 on `comm`, rank `me`.
task::Call allreduce_call(const mpi::Comm& comm, int me, Bufs& b) {
  b = {std::vector<std::byte>(4096), std::vector<std::byte>(4096)};
  return {CollKind::Allreduce, &comm, me,     0,
          BufView::of(b.send, Datatype::Int32),
          BufView::of(b.recv, Datatype::Int32), Datatype::Int32,
          ReduceOp::Sum};
}

TEST(ShapeCache, RecycledContextGetsNoStaleShape) {
  // A comm of every rank caches its allreduce shapes; freed, its context
  // goes to a comm of every other rank — one process per node, so a
  // different ladder — which must bind none of them.
  core::HanWorld sw(machine::make_aries(4, 2));
  mpi::SimWorld& w = sw.world;
  const std::vector<int> key{0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<int> all(8, 0);
  mpi::Comm* wide = w.comm_split(w.world_comm(), all, key)[0];
  const int ctx = wide->context();
  for (int me = 0; me < 8; ++me) {
    Bufs b;
    sw.han.persistent_graph(allreduce_call(*wide, me, b));
  }
  EXPECT_GT(sw.han.live_shapes(), 0u);
  w.free_comm(wide);
  EXPECT_EQ(sw.han.live_shapes(), 0u);

  const std::vector<int> parity{0, -1, 0, -1, 0, -1, 0, -1};
  mpi::Comm* narrow = w.comm_split(w.world_comm(), parity, key)[0];
  ASSERT_EQ(narrow->context(), ctx);
  ASSERT_EQ(narrow->size(), 4);
  const HanConfig cfg = core::HanModule::default_config(
      CollKind::Allreduce, 4, 1, 4096);
  for (int me = 0; me < 4; ++me) {
    Bufs b;
    const task::Call c = allreduce_call(*narrow, me, b);
    expect_same(sw.han.persistent_graph(c), fresh_graph(sw.han, c, cfg),
                c.send, c.recv, "rank " + std::to_string(me));
  }
}

TEST(ShapeCache, SetDeciderDropsShapesAndDecisions) {
  core::HanWorld sw(machine::make_aries(2, 4));
  const mpi::Comm& wc = sw.world.world_comm();
  HanConfig a = core::HanModule::default_config(CollKind::Allreduce, 2, 4,
                                                 4096);
  a.fs = 4096;
  HanConfig b = a;
  b.fs = 1024;
  b.window = 2;
  auto use = [&](const HanConfig& cfg) {
    sw.han.set_decider(
        [cfg](CollKind, int, int, std::size_t) { return cfg; });
    EXPECT_EQ(sw.han.live_shapes(), 0u);
    for (int me = 0; me < wc.size(); ++me) {
      Bufs bufs;
      const task::Call c = allreduce_call(wc, me, bufs);
      expect_same(sw.han.persistent_graph(c), fresh_graph(sw.han, c, cfg),
                  c.send, c.recv, "rank " + std::to_string(me));
    }
    EXPECT_EQ(sw.han.decide(CollKind::Allreduce, wc, 4096), cfg);
  };
  use(a);
  const std::uint64_t built = sw.han.shapes_built();
  EXPECT_GT(built, 0u);
  use(b);
  EXPECT_GT(sw.han.shapes_built(), built);
}

/// Every rank issues the same call of `kind` twice back to back, on its
/// own payloads, and waits for both.
void run_twice(core::HanWorld& sw, CollKind kind, std::size_t count,
               std::vector<std::vector<std::int32_t>>& send,
               std::vector<std::vector<std::int32_t>>& recv) {
  const mpi::Comm& wc = sw.world.world_comm();
  const int n = wc.size();
  const std::size_t recv_count =
      kind == CollKind::ReduceScatter ? count / static_cast<std::size_t>(n)
                                      : count;
  send.assign(2 * static_cast<std::size_t>(n), {});
  recv.assign(2 * static_cast<std::size_t>(n), {});
  for (int i = 0; i < 2 * n; ++i) {
    send[i] = test::pattern_vec(i, count);
    recv[i].assign(recv_count, -1);
  }
  sw.world.run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](core::HanWorld& w, CollKind k, const mpi::Comm& comm, int me,
              std::vector<std::vector<std::int32_t>>& s,
              std::vector<std::vector<std::int32_t>>& r) -> sim::CoTask {
      std::vector<mpi::Request> reqs;
      for (int call = 0; call < 2; ++call) {
        const int i = call * comm.size() + me;
        const BufView sv = BufView::of(s[i], Datatype::Int32);
        const BufView rv = BufView::of(r[i], Datatype::Int32);
        reqs.push_back(k == CollKind::Allreduce
                           ? w.han.iallreduce(comm, me, sv, rv,
                                              Datatype::Int32, ReduceOp::Sum,
                                              {})
                           : w.han.ireduce_scatter(comm, me, sv, rv,
                                                   Datatype::Int32,
                                                   ReduceOp::Sum, {}));
      }
      co_await mpi::wait_all(w.world.engine(), std::move(reqs));
    }(sw, kind, wc, rank.world_rank, send, recv);
  });
}

/// The sum over ranks of call `call`'s payloads (pattern ids call*n + r).
std::vector<std::int32_t> expected_sum(int call, int n, std::size_t count) {
  std::vector<std::int32_t> acc(count, 0);
  for (int r = 0; r < n; ++r) {
    const std::vector<std::int32_t> in = test::pattern_vec(call * n + r, count);
    for (std::size_t e = 0; e < count; ++e) acc[e] += in[e];
  }
  return acc;
}

TEST(ShapeCache, ConcurrentRepeatsOwnTheirTemps) {
  // Two in-flight calls of one key share a shape but never a temp: both
  // payloads arrive intact on every rank.
  core::HanWorld sw(machine::make_aries(2, 4),
                    [] {
                      mpi::SimWorld::Options o;
                      o.data_mode = true;
                      return o;
                    }());
  const int n = sw.world.world_size();
  const std::size_t count = 16 << 10;  // 64 KiB of Int32: several segments
  sw.han.set_decider([](CollKind kind, int nodes, int ppn, std::size_t bytes) {
    HanConfig cfg = core::HanModule::default_config(kind, nodes, ppn, bytes);
    cfg.fs = 8 << 10;
    return cfg;
  });
  for (CollKind kind : {CollKind::Allreduce, CollKind::ReduceScatter}) {
    std::vector<std::vector<std::int32_t>> send, recv;
    run_twice(sw, kind, count, send, recv);
    const std::size_t block = count / static_cast<std::size_t>(n);
    for (int call = 0; call < 2; ++call) {
      const std::vector<std::int32_t> sum = expected_sum(call, n, count);
      for (int me = 0; me < n; ++me) {
        const std::vector<std::int32_t>& got = recv[call * n + me];
        const std::vector<std::int32_t> want =
            kind == CollKind::Allreduce
                ? sum
                : std::vector<std::int32_t>(sum.begin() + me * block,
                                            sum.begin() + (me + 1) * block);
        EXPECT_EQ(got, want) << coll::coll_kind_name(kind) << " call "
                             << call << " rank " << me;
      }
    }
  }
  EXPECT_GT(sw.han.shapes_built(), 0u);
  EXPECT_EQ(sw.han.live_shapes(), 0u);  // dropped at quiescence
}

TEST(ShapeCache, PlanCheckerSeesEveryPlan) {
  // The runtime builds every plan fresh while a checker is installed, so
  // the cached shapes still show it each plan the calls issue.
  core::HanWorld sw(machine::make_aries(2, 4),
                    [] {
                      mpi::SimWorld::Options o;
                      o.data_mode = true;
                      return o;
                    }());
  int plans = 0;
  sw.rt.set_plan_checker([&](const coll::Plan&, int) {
    ++plans;
    return std::string();
  });
  const int n = sw.world.world_size();
  std::vector<std::vector<std::int32_t>> send, recv;
  run_twice(sw, CollKind::Allreduce, 1024, send, recv);
  for (int call = 0; call < 2; ++call) {
    for (int me = 0; me < n; ++me) {
      EXPECT_EQ(recv[call * n + me], expected_sum(call, n, 1024));
    }
  }
  EXPECT_EQ(plans, 12);
  EXPECT_EQ(sw.han.shapes_built(), 2u);
  EXPECT_EQ(sw.han.live_shapes(), 0u);
}

TEST(ShapeCache, CollReplayKeysShapeCountIsPinned) {
  // coll-replay's 12 keys (allreduce, bcast, reduce-scatter and allgather
  // at 4, 16 and 64 KiB) on aries 8x8 under the default decider, every
  // rank and every bcast root: each role of each key builds one shape,
  // where a per-(rank, key) memo would hold 64 graphs per key and 64 x 64
  // per bcast key.
  core::HanWorld sw(machine::make_aries(8, 8));
  const mpi::Comm& wc = sw.world.world_comm();
  const int n = wc.size();
  for (std::size_t bytes : {4 << 10, 16 << 10, 64 << 10}) {
    const BufView full = BufView::timing_only(bytes, Datatype::Int32);
    const BufView block = BufView::timing_only(
        bytes / static_cast<std::size_t>(n), Datatype::Int32);
    for (int me = 0; me < n; ++me) {
      sw.han.persistent_graph({CollKind::Allreduce, &wc, me, 0, full, full,
                               Datatype::Int32, ReduceOp::Sum});
      for (int root = 0; root < n; ++root) {
        sw.han.persistent_graph(
            {CollKind::Bcast, &wc, me, root, full, full, Datatype::Int32});
      }
      sw.han.persistent_graph({CollKind::ReduceScatter, &wc, me, 0, full,
                               block, Datatype::Int32, ReduceOp::Sum});
      sw.han.persistent_graph(
          {CollKind::Allgather, &wc, me, 0, block, full, Datatype::Int32});
    }
  }
  EXPECT_EQ(sw.han.shapes_built(), 27u);
  EXPECT_EQ(sw.han.live_shapes(), 27u);
}

}  // namespace
}  // namespace han
