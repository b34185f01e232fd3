// Graph pins: every rank's TaskGraph of every HAN pipeline builder, hashed
// (FNV-1a) over everything the scheduler dispatches — op, level, step,
// deps, module, communicator membership, ranks, buffer placement, dtype,
// reduction, CollConfig, rail stripe and ring stride. A refactor of the
// builders or of the stage lists they read must leave every digest as it
// is: the graphs are the contract, node for node.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "han/han.hpp"
#include "han/task/builders.hpp"
#include "machine/machine.hpp"

namespace han {
namespace {

using core::HanConfig;
using mpi::BufView;
using mpi::Datatype;

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
  void str(std::string_view s) {
    num(static_cast<long long>(s.size()));
    for (char ch : s) byte(static_cast<unsigned char>(ch));
  }
};

/// The caller's buffers; a view is hashed as (owner, offset, length,
/// dtype), where the owner is null, the send or recv buffer, or the
/// graph's k-th temp — pointers never reach the digest.
struct UserBufs {
  std::vector<std::byte> send, recv;
};

void hash_view(Fnv1a& h, BufView v, const UserBufs& user,
               const task::TaskGraph& g) {
  long long owner = -1, off = 0;
  auto inside = [&](const std::vector<std::byte>& s, long long tag) {
    if (owner < 0 && !s.empty() && v.data >= s.data() &&
        v.data < s.data() + s.size()) {
      owner = tag;
      off = v.data - s.data();
    }
  };
  if (v.data == nullptr) {
    owner = 0;
  } else {
    inside(user.send, 1);
    inside(user.recv, 2);
    for (std::size_t k = 0; k < g.temps.size(); ++k) {
      inside(g.temps[k], 3 + static_cast<long long>(k));
    }
  }
  h.num(owner);
  h.num(off);
  h.num(static_cast<long long>(v.bytes));
  h.num(static_cast<long long>(v.dtype));
}

void hash_graph(Fnv1a& h, const task::TaskGraph& g, const UserBufs& user) {
  h.num(static_cast<long long>(g.nodes.size()));
  for (const task::TaskNode& n : g.nodes) {
    h.num(static_cast<long long>(n.op));
    h.num(static_cast<long long>(n.level));
    h.num(n.step);
    h.num(static_cast<long long>(n.deps.size()));
    for (int d : n.deps) h.num(d);
    h.str(n.mod == nullptr ? "" : n.mod->name());
    h.num(n.comm == nullptr ? -1 : n.comm->size());
    if (n.comm != nullptr) {
      for (int r : n.comm->world_ranks()) h.num(r);
    }
    h.num(n.me);
    h.num(n.root);
    hash_view(h, n.send, user, g);
    hash_view(h, n.recv, user, g);
    h.num(static_cast<long long>(n.dtype));
    h.num(static_cast<long long>(n.rop));
    h.num(static_cast<long long>(n.cfg.alg));
    h.num(static_cast<long long>(n.cfg.segment));
    h.num(n.cfg.rail);
    h.num(n.sf);
    h.num(n.stride ? static_cast<long long>(*n.stride) : -1);
  }
}

struct PinCase {
  const char* tag;
  const char* stock;  // a stock machine by name, else aries nodes x ppn
  int nodes, ppn, numa;
  int sf;
  std::uint64_t digest;
  long long graph_nodes;  // total nodes over every pinned graph
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.tag; }

machine::MachineProfile pin_profile(const PinCase& c) {
  if (c.stock != nullptr) {
    for (const machine::StockMachine& sm : machine::stock_machines()) {
      if (std::string(sm.name) == c.stock) return sm.profile;
    }
    ADD_FAILURE() << "no stock machine " << c.stock;
  }
  return machine::with_numa(machine::make_aries(c.nodes, c.ppn), c.numa);
}

// The default dispatch, the flat and NUMA canonical spec ids, and one
// off-canonical id per kind (two leaders; a bcast with an idle step).
const char* const kBcastScheds[] = {"", "bc1:k1:sb1.ib0",
                                    "bc1:k1:ib0.mb1.sb2", "bc1:k1:ib0.sb2"};
const char* const kAllreduceScheds[] = {
    "", "ar1:k1:sr0.ir1.ib2.sb3", "ar1:k1:sr0.mr1.ir2.ib3.mb4.sb5",
    "ar1:k2:sr0.ir0.ib1.sb2"};

class GraphDigest : public ::testing::TestWithParam<PinCase> {};

TEST_P(GraphDigest, EveryPipelineGraphIsPinned) {
  const PinCase& c = GetParam();
  mpi::SimWorld::Options opts;
  opts.data_mode = true;  // temps get storage, so their offsets are hashed
  core::HanWorld sw(pin_profile(c), opts);
  const mpi::Comm& wc = sw.world.world_comm();
  const int n = wc.size();
  Fnv1a h;
  long long graph_nodes = 0;
  auto pin = [&](const task::TaskGraph& g, const UserBufs& user) {
    hash_graph(h, g, user);
    graph_nodes += static_cast<long long>(g.nodes.size());
  };
  for (std::size_t bytes : {std::size_t{64} << 10, std::size_t{1} << 20}) {
    for (int window : {1, 2}) {
      HanConfig cfg;
      cfg.fs = 64 << 10;
      cfg.imod = "adapt";
      cfg.smod = "sm";
      cfg.ibalg = coll::Algorithm::Binary;
      cfg.iralg = coll::Algorithm::Binary;
      cfg.ibs = 32 << 10;
      cfg.irs = 32 << 10;
      cfg.window = window;
      cfg.sf = c.sf;
      const std::size_t block = bytes / static_cast<std::size_t>(n);
      for (int me = 0; me < n; ++me) {
        UserBufs one{std::vector<std::byte>(bytes), {}};
        UserBufs two{std::vector<std::byte>(bytes),
                     std::vector<std::byte>(bytes)};
        UserBufs rs{std::vector<std::byte>(block * n),
                    std::vector<std::byte>(block)};
        for (int root : {0, n - 1}) {
          for (const char* sched : kBcastScheds) {
            HanConfig b = cfg;
            b.sched = sched;
            pin(task::build_bcast(sw.han, wc, me, root,
                                  BufView::of(one.send, Datatype::Byte),
                                  Datatype::Byte, b),
                one);
          }
          pin(task::build_reduce(sw.han, wc, me, root,
                                 BufView::of(two.send, Datatype::Byte),
                                 BufView::of(two.recv, Datatype::Byte),
                                 Datatype::Byte, mpi::ReduceOp::Sum, cfg),
              two);
        }
        for (const char* sched : kAllreduceScheds) {
          HanConfig a = cfg;
          a.sched = sched;
          pin(task::build_allreduce(sw.han, wc, me,
                                    BufView::of(two.send, Datatype::Byte),
                                    BufView::of(two.recv, Datatype::Byte),
                                    Datatype::Byte, mpi::ReduceOp::Sum, a),
              two);
        }
        for (const char* imod : {"adapt", "ring"}) {
          HanConfig r = cfg;
          r.imod = imod;
          pin(task::build_reduce_scatter(
                  sw.han, wc, me, BufView::of(rs.send, Datatype::Byte),
                  BufView::of(rs.recv, Datatype::Byte), Datatype::Byte,
                  mpi::ReduceOp::Sum, r),
              rs);
        }
      }
    }
  }
  EXPECT_EQ(graph_nodes, c.graph_nodes) << c.tag;
  EXPECT_EQ(h.h, c.digest) << c.tag << " digest 0x" << std::hex << h.h;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraphDigest,
    ::testing::Values(
        // One node, two domains: the cluster level collapses, leaving an
        // intra + mid ladder.
        PinCase{"one_node_numa", nullptr, 1, 8, 2, 1,
                0x1f895c9dd3322935ull, 3720},
        // One proc per domain: the dead numa level splices away.
        PinCase{"one_proc_per_domain", nullptr, 4, 2, 2, 1,
                0x78b86e3ce640899dull, 8192},
        // One proc per node: the dead intra level keeps its lag slot.
        PinCase{"one_ppn", nullptr, 6, 1, 1, 1,
                0x8aa23ee4acc482dull, 3924},
        // One node, flat: a single unsegmented intra operation.
        PinCase{"one_node", nullptr, 1, 4, 1, 1,
                0x6713ce2daaaa535ull, 288},
        // World of one: nothing moves.
        PinCase{"one_rank", nullptr, 1, 1, 1, 1,
                0x7da144b97d054b25ull, 0},
        // The derived numa < node < cluster ladder.
        PinCase{"aries_numa2x2x4", "aries_numa2x2x4", 0, 0, 1, 1,
                0x5a10cb6affacb01dull, 13736},
        // Four rails, inter stages striped four ways.
        PinCase{"aries_rail4_sf4", "aries_rail4", 0, 0, 1, 4,
                0x2a485273e10156bdull, 12376}),
    [](const ::testing::TestParamInfo<PinCase>& shape) {
      return std::string(shape.param.tag);
    });

}  // namespace
}  // namespace han
