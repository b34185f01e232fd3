// Plan templates: CollRuntime builds each (builder, comm size, spec) plan
// once while it is busy and replays it for every instance with that key.
// Reuse must be invisible — bit-identical completion times and payloads
// against fresh per-instance builds (an installed plan checker forces
// those) — and templates must not outlive the busy period.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "coll_test_util.hpp"

namespace han::coll {
namespace {

using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;

/// One rank's buffers for one call, filled with pseudo-random bytes seeded
/// per (call, rank, buffer): no two offsets of a buffer look alike, so a
/// plan reading the wrong range shows in the payload.
struct Buffers {
  int seed = 0;
  std::vector<std::vector<std::byte>> store;

  BufView make(std::size_t bytes, Datatype dtype) {
    std::vector<std::byte>& b = store.emplace_back(bytes);
    std::uint64_t x = static_cast<std::uint64_t>(seed) * 64 + store.size();
    for (std::byte& v : b) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<std::byte>(x >> 56);
    }
    return BufView{b.data(), bytes, dtype};
  }

  /// FNV-1a over every buffer: the payload comparison keeps one number
  /// per (call, rank) instead of the buffers.
  std::uint64_t digest() const {
    std::uint64_t h = 14695981039346656037ull;
    for (const std::vector<std::byte>& b : store) {
      for (std::byte x : b) {
        h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ull;
      }
    }
    return h;
  }
};

using Issue = std::function<mpi::Request(ModuleSet&, const mpi::Comm&,
                                         int me, Buffers&)>;

/// One collective of the grid: each world rank's communicator (nullptr
/// when the rank takes no part) and how a member issues it.
struct GridCall {
  std::string name;
  const std::vector<mpi::Comm*>* comms;
  Issue issue;
};

/// The communicator families the grid runs on, over 2 nodes x 4 ranks.
struct Comms {
  std::vector<mpi::Comm*> world;       // 8 ranks
  std::vector<mpi::Comm*> halves;      // 5 + 3 ranks, across nodes
  std::vector<mpi::Comm*> nodes;       // 4 + 4 ranks, one per node
  std::vector<mpi::Comm*> node_parts;  // 3 + 1 ranks within each node
};

Comms make_comms(mpi::SimWorld& w) {
  const int n = w.world_size();
  Comms c;
  c.world.assign(n, &w.world_comm());
  std::vector<int> half(n), part(n), key(n);
  for (int r = 0; r < n; ++r) {
    half[r] = r < 5 ? 0 : 1;
    part[r] = (r / 4) * 2 + (r % 4 < 3 ? 0 : 1);
    key[r] = r;
  }
  c.halves = w.comm_split(w.world_comm(), half, key);
  c.nodes = w.comm_split_shared(w.world_comm());
  c.node_parts = w.comm_split(w.world_comm(), part, key);
  return c;
}

/// One field of the spec moved off a base call at a time, so a key that
/// dropped any field would hand some call its neighbour's plan.
struct Variant {
  int root = 0;
  std::size_t bytes = 256;
  Datatype dtype = Datatype::Int32;
  ReduceOp op = ReduceOp::Sum;
  std::size_t segment = 0;
  Algorithm alg = Algorithm::Default;
  int rail = -1;

  CollConfig cfg() const { return CollConfig{alg, segment, rail}; }
};

std::vector<Variant> variants() {
  std::vector<Variant> v(1);
  v.emplace_back().root = 1;
  v.emplace_back().bytes = 272;
  v.emplace_back().dtype = Datatype::Float;
  v.emplace_back().op = ReduceOp::Max;
  v.emplace_back().segment = 64;
  v.emplace_back().segment = 128;
  v.emplace_back().rail = 0;
  v.emplace_back().rail = 1;
  for (Algorithm a : {Algorithm::Linear, Algorithm::Chain, Algorithm::Binary,
                      Algorithm::Binomial}) {
    v.emplace_back().alg = a;
  }
  return v;
}

std::vector<GridCall> key_grid(const Comms& c) {
  std::vector<GridCall> g;
  auto add = [&](std::string name, const std::vector<mpi::Comm*>& comms,
                 Issue f) {
    g.push_back({std::move(name), &comms, std::move(f)});
  };
  const std::vector<Variant> vs = variants();

  // Tree modules (libnbc, adapt, tuned) on communicators of 8, 5 and 3.
  for (const char* mod : {"libnbc", "adapt", "tuned"}) {
    for (const std::vector<mpi::Comm*>* comms : {&c.world, &c.halves}) {
      for (std::size_t i = 0; i < vs.size(); ++i) {
        const Variant v = vs[i];
        const std::string tag = std::string(mod) + "." + std::to_string(i);
        add(tag + ".bcast", *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.find(mod)->ibcast(comm, me, v.root % comm.size(),
                                         b.make(v.bytes, v.dtype), v.dtype,
                                         v.cfg());
            });
        add(tag + ".reduce", *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.find(mod)->ireduce(
                  comm, me, v.root % comm.size(), b.make(v.bytes, v.dtype),
                  b.make(v.bytes, v.dtype), v.dtype, v.op, v.cfg());
            });
        add(tag + ".allreduce", *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.find(mod)->iallreduce(comm, me, b.make(v.bytes, v.dtype),
                                             b.make(v.bytes, v.dtype), v.dtype,
                                             v.op, v.cfg());
            });
        add(tag + ".gather", *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.find(mod)->igather(
                  comm, me, v.root % comm.size(), b.make(v.bytes, v.dtype),
                  b.make(v.bytes * comm.size(), v.dtype), v.cfg());
            });
        add(tag + ".scatter", *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.find(mod)->iscatter(
                  comm, me, v.root % comm.size(),
                  b.make(v.bytes * comm.size(), v.dtype),
                  b.make(v.bytes, v.dtype), v.cfg());
            });
        add(tag + ".allgather", *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.find(mod)->iallgather(
                  comm, me, b.make(v.bytes, v.dtype),
                  b.make(v.bytes * comm.size(), v.dtype), v.cfg());
            });
      }
      add(std::string(mod) + ".barrier", *comms,
          [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers&) {
            return m.find(mod)->ibarrier(comm, me);
          });
    }
  }
  // Tuned's own plan: ring allreduce from 1 MiB on 4+ ranks.
  for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max}) {
    add(std::string("tuned.ring_allreduce.") + mpi::op_name(op), c.world,
        [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
          return m.tuned().iallreduce(
              comm, me, b.make(1 << 20, Datatype::Int32),
              b.make(1 << 20, Datatype::Int32), Datatype::Int32, op,
              CollConfig{});
        });
  }

  // Ring module, including the strided reduce-scatter's geometry.
  for (const std::vector<mpi::Comm*>* comms : {&c.world, &c.halves}) {
    for (std::size_t i = 0; i < vs.size(); ++i) {
      const Variant v = vs[i];
      const std::string tag = "ring." + std::to_string(i);
      add(tag + ".reduce_scatter", *comms,
          [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
            return m.ring().ireduce_scatter(
                comm, me, b.make(v.bytes * comm.size(), v.dtype),
                b.make(v.bytes, v.dtype), v.dtype, v.op, v.cfg());
          });
      add(tag + ".allreduce", *comms,
          [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
            return m.ring().iallreduce(comm, me, b.make(v.bytes, v.dtype),
                                       b.make(v.bytes, v.dtype), v.dtype, v.op,
                                       v.cfg());
          });
      add(tag + ".allgather", *comms,
          [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
            return m.ring().iallgather(comm, me, b.make(v.bytes, v.dtype),
                                       b.make(v.bytes * comm.size(), v.dtype),
                                       v.cfg());
          });
    }
    // One send size for every geometry, so only stride and block differ.
    for (std::size_t stride : {512u, 768u}) {
      for (std::size_t block : {256u, 512u}) {
        add("ring.strided." + std::to_string(stride) + "." +
                std::to_string(block),
            *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.ring().ireduce_scatter_strided(
                  comm, me, b.make(768 * comm.size(), Datatype::Int32),
                  b.make(block, Datatype::Int32), stride, Datatype::Int32,
                  ReduceOp::Sum, CollConfig{});
            });
      }
    }
  }

  // Intra-node modules on node communicators of 4, 3 and 1.
  for (const char* mod : {"sm", "solo"}) {
    for (const std::vector<mpi::Comm*>* comms : {&c.nodes, &c.node_parts}) {
      for (std::size_t i = 0; i < 5; ++i) {  // root, bytes, dtype, op
        const Variant v = vs[i];
        const std::string tag = std::string(mod) + "." + std::to_string(i);
        add(tag + ".bcast", *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.find(mod)->ibcast(comm, me, v.root % comm.size(),
                                         b.make(v.bytes, v.dtype), v.dtype,
                                         v.cfg());
            });
        add(tag + ".reduce", *comms,
            [=](ModuleSet& m, const mpi::Comm& comm, int me, Buffers& b) {
              return m.find(mod)->ireduce(
                  comm, me, v.root % comm.size(), b.make(v.bytes, v.dtype),
                  b.make(v.bytes, v.dtype), v.dtype, v.op, v.cfg());
            });
      }
    }
  }
  for (const std::vector<mpi::Comm*>* comms : {&c.nodes, &c.node_parts}) {
    add("sm.barrier", *comms,
        [](ModuleSet& m, const mpi::Comm& comm, int me, Buffers&) {
          return m.sm().ibarrier(comm, me);
        });
  }
  return g;
}

struct GridRun {
  std::vector<std::string> names;      // per call
  std::vector<double> done;            // [call * world + rank]; -1: absent
  std::vector<std::uint64_t> payload;  // [call * world + rank] digests
  std::size_t instances = 0;           // live once every rank has issued
  std::size_t templates = 0;
};

/// Every rank issues the whole grid at once, so the runtime stays busy
/// and every call with a matching key replays one template.
GridRun run_grid(bool with_checker) {
  test::CollHarness h(machine::with_rails(machine::make_aries(2, 4), 2));
  if (with_checker) {
    h.rt.set_plan_checker([](const Plan&, int) { return std::string(); });
  }
  const Comms comms = make_comms(h.world);
  const std::vector<GridCall> grid = key_grid(comms);
  const int n = h.world.world_size();
  GridRun out;
  for (const GridCall& call : grid) out.names.push_back(call.name);
  out.done.assign(grid.size() * n, -1.0);
  std::vector<Buffers> buffers(grid.size() * n);
  h.world.run([&](mpi::Rank& rank) -> sim::CoTask {
    const int wr = rank.world_rank;
    std::vector<mpi::Request> reqs;
    for (std::size_t c = 0; c < grid.size(); ++c) {
      const mpi::Comm* comm = (*grid[c].comms)[wr];
      if (comm == nullptr) continue;
      const std::size_t at = c * n + wr;
      buffers[at].seed = static_cast<int>(at);
      mpi::Request r = grid[c].issue(
          h.mods, *comm, comm->comm_rank_of_world(wr), buffers[at]);
      r->on_complete([&out, &h, at] { out.done[at] = h.world.now(); });
      reqs.push_back(std::move(r));
    }
    out.instances = std::max(out.instances, h.rt.live_instances());
    out.templates = std::max(out.templates, h.rt.live_templates());
    return [](sim::Engine& e, std::vector<mpi::Request> all) -> sim::CoTask {
      co_await mpi::wait_all(e, std::move(all));
    }(h.world.engine(), std::move(reqs));
  });
  EXPECT_EQ(h.rt.live_instances(), 0u);
  EXPECT_EQ(h.rt.live_templates(), 0u);
  for (const Buffers& b : buffers) out.payload.push_back(b.digest());
  for (std::size_t c = 0; c < grid.size(); ++c) {
    for (int r = 0; r < n; ++r) {
      if ((*grid[c].comms)[r] != nullptr) {
        EXPECT_GE(out.done[c * n + r], 0.0) << grid[c].name << " rank " << r;
      }
    }
  }
  return out;
}

TEST(PlanTemplates, ReuseIsInvisibleAcrossTheKeyGrid) {
  const GridRun reused = run_grid(/*with_checker=*/false);
  const GridRun fresh = run_grid(/*with_checker=*/true);
  ASSERT_EQ(reused.done.size(), fresh.done.size());

  // Templates were shared (equal-size node communicators, repeated
  // keys) in the reusing run and never cached in the checked one.
  EXPECT_GT(reused.templates, 0u);
  EXPECT_LT(reused.templates, reused.instances);
  EXPECT_EQ(fresh.templates, 0u);
  EXPECT_EQ(reused.instances, fresh.instances);

  const std::size_t n = reused.done.size() / reused.names.size();
  for (std::size_t i = 0; i < reused.done.size(); ++i) {
    EXPECT_EQ(reused.done[i], fresh.done[i])
        << reused.names[i / n] << " rank " << i % n;
    EXPECT_EQ(reused.payload[i], fresh.payload[i])
        << reused.names[i / n] << " rank " << i % n;
  }
}

/// Every rank issues `calls` nonblocking libnbc broadcasts of `count`
/// int32 from `root` on the world communicator; returns the templates
/// live once all ranks have issued. Payloads are checked.
std::size_t bcast_round(test::CollHarness& h, int calls, int root,
                        std::size_t count) {
  const int n = h.world.world_size();
  std::vector<std::vector<std::int32_t>> bufs(
      static_cast<std::size_t>(calls) * n);
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    const int r = static_cast<int>(i % n);
    bufs[i] = r == root ? test::pattern_vec(root, count)
                        : std::vector<std::int32_t>(count, -1);
  }
  std::size_t templates = 0;
  h.world.run([&](mpi::Rank& rank) -> sim::CoTask {
    std::vector<mpi::Request> reqs;
    for (int c = 0; c < calls; ++c) {
      reqs.push_back(h.mods.libnbc().ibcast(
          h.world.world_comm(), rank.world_rank, root,
          BufView::of(bufs[c * n + rank.world_rank], Datatype::Int32),
          Datatype::Int32, CollConfig{}));
    }
    templates = std::max(templates, h.rt.live_templates());
    return [](sim::Engine& e, std::vector<mpi::Request> all) -> sim::CoTask {
      co_await mpi::wait_all(e, std::move(all));
    }(h.world.engine(), std::move(reqs));
  });
  for (const auto& b : bufs) EXPECT_EQ(b, test::pattern_vec(root, count));
  return templates;
}

TEST(PlanTemplates, DroppedWhenTheRuntimeGoesQuiet) {
  test::CollHarness h(machine::make_aries(2, 2));
  // Four instances of one key share a single template while busy...
  EXPECT_EQ(bcast_round(h, 4, /*root=*/0, 64), 1u);
  // ...which is gone once the last instance retires.
  EXPECT_EQ(h.rt.live_instances(), 0u);
  EXPECT_EQ(h.rt.live_templates(), 0u);
  // A second run starts from nothing: its one key is the only template,
  // and its payloads are right.
  EXPECT_EQ(bcast_round(h, 2, /*root=*/3, 100), 1u);
  EXPECT_EQ(h.rt.live_templates(), 0u);
}

TEST(PlanTemplates, CheckerSeesOnePlanPerInstance) {
  test::CollHarness h(machine::make_aries(2, 2));
  int checked = 0;
  h.rt.set_plan_checker([&](const Plan&, int) {
    ++checked;
    return std::string();
  });
  // Three instances of one key: three fresh plans, no template.
  EXPECT_EQ(bcast_round(h, 3, /*root=*/1, 32), 0u);
  EXPECT_EQ(checked, 3);
  // Without the checker the same calls share one template again.
  h.rt.set_plan_checker(nullptr);
  EXPECT_EQ(bcast_round(h, 3, /*root=*/1, 32), 1u);
  EXPECT_EQ(checked, 3);
}

}  // namespace
}  // namespace han::coll
