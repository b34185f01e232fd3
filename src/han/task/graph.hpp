// TaskGraph: the first-class IR of a HAN collective (paper §III).
//
// A hierarchical collective is a DAG of per-level sub-collectives
// ("tasks"). Each node is a plain record of the operation kind, the
// hierarchy level, its pipeline step, its dependencies and the one
// CollModule call it stands for: module, communicator, ranks, buffer
// views, datatype, reduction, CollConfig and rail stripe factor. The
// scheduler's single dispatch turns a node into that call, so every other
// reader (verify, tests) sees exactly what the executor will run. Edges
// are explicit data dependencies; the pipeline *step* expresses the
// paper's lock-step barrier structure (all tasks of step t start once
// step t-1 finished — at scheduler window 1 — while larger windows let
// later steps start as soon as their data dependencies allow).
//
// The same stage list drives both execution (task/scheduler.hpp) and
// cost prediction (autotune/costmodel.cpp steps the canonical chains of
// synth/spec.hpp that the builders emit) — one source of truth, so the
// model cannot drift from the executor.
//
// The builders emit a GraphShape: a graph whose nodes name their
// communicator by ladder tier and their buffers by (arena, offset,
// length), so every rank of one role shares it. Binding a shape to a
// rank's RankView and buffers yields its TaskGraph (docs/TASKGRAPH.md,
// "Persistent shapes").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coll/types.hpp"
#include "simmpi/buffer.hpp"
#include "simmpi/comm.hpp"

namespace han::coll {
class CollModule;
}
namespace han::core {
class Hierarchy;
}

namespace han::task {

enum class Level { Intra, Mid, Inter };
enum class Op {
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Scatter,
  Allgather,
  ReduceScatter,
  Barrier,
};

const char* level_name(Level level);
const char* op_name(Op op);

/// One task: `mod->i<op>(*comm, me, root, send, recv, dtype, rop, cfg)`,
/// with the arguments the op's CollModule entry point takes. Bcast moves
/// `recv` in place; bcast and reduce split into `sf` rail slices
/// (task/stripe.hpp); a ReduceScatter with a `stride` runs
/// RingModule::ireduce_scatter_strided (`mod` must be the ring module).
struct TaskNode {
  Op op = Op::Bcast;
  Level level = Level::Intra;
  int step = 0;           // pipeline step (window gating)
  std::vector<int> deps;  // prerequisite node indices

  coll::CollModule* mod = nullptr;
  const mpi::Comm* comm = nullptr;  // communicator the task runs on
  int me = 0;                       // caller's rank in comm
  int root = 0;
  mpi::BufView send, recv;
  mpi::Datatype dtype = mpi::Datatype::Byte;
  mpi::ReduceOp rop = mpi::ReduceOp::Sum;
  coll::CollConfig cfg;
  int sf = 1;
  std::optional<std::size_t> stride;

  friend bool operator==(const TaskNode&, const TaskNode&) = default;
};

struct TaskGraph {
  std::vector<TaskNode> nodes;
  /// Storage of the temp buffers the nodes' views slice into. Each buffer
  /// is its own heap block, so the views stay valid when the graph moves;
  /// a copy would alias the source's storage, hence move-only.
  std::vector<std::vector<std::byte>> temps;

  TaskGraph() = default;
  TaskGraph(TaskGraph&&) = default;
  TaskGraph& operator=(TaskGraph&&) = default;

  int add(TaskNode node) {
    nodes.push_back(std::move(node));
    return static_cast<int>(nodes.size()) - 1;
  }
  bool empty() const { return nodes.empty(); }
};

/// The buffer a shape node's view slices: none (timing-only), the
/// caller's send or recv buffer, or one of the run's temps.
enum class Arena : std::uint8_t { None, Send, Recv, Temp };

/// A buffer view relative to its arena, bound to a run's buffers at issue.
struct BufRef {
  Arena arena = Arena::None;
  int temp = 0;  // the temp's index when arena == Temp
  std::size_t offset = 0;
  std::size_t bytes = 0;
  mpi::Datatype dtype = mpi::Datatype::Byte;

  /// The whole of `arena`, sized and typed like the caller's view.
  static BufRef of(Arena arena, mpi::BufView v) {
    return {arena, 0, 0, v.bytes, v.dtype};
  }
  static BufRef timing_only(std::size_t bytes,
                            mpi::Datatype t = mpi::Datatype::Byte) {
    return {Arena::None, 0, 0, bytes, t};
  }
  BufRef slice(std::size_t off, std::size_t len) const {
    return {arena, temp, offset + off, len, dtype};
  }
  friend bool operator==(const BufRef&, const BufRef&) = default;
};

/// What binds a shape to one rank: the hierarchy its pipeline runs on,
/// the hierarchy level of each ladder tier, the rank and the op's root
/// (parent ranks). Tier t's communicator and rank are the rank's own at
/// that level; a root is the root's rank in the same family.
struct RankView {
  static constexpr int kMaxTiers = 3;  // numa < node < cluster

  const core::Hierarchy* h = nullptr;
  int tiers = 0;
  std::array<int, kMaxTiers> level{};
  int me = 0;
  int root = 0;

  const mpi::Comm* comm(int tier) const;
  int rank(int tier) const;
  /// The root of ladder stripe `stripe` at `tier`: stripe 0 is rooted at
  /// the op's root, stripe j > 0 at parent rank j.
  int root_rank(int tier, int stripe) const;
};

/// One task of a shape: a TaskNode with its rank-specific parts left as
/// references — the communicator as a tier of the RankView, the root as a
/// ladder stripe, the buffers as BufRefs.
struct ShapeNode {
  static constexpr int kRootless = -1;  // root 0 (the call takes none)

  Op op = Op::Bcast;
  Level level = Level::Intra;
  int step = 0;
  coll::CollModule* mod = nullptr;
  int tier = 0;
  int stripe = kRootless;
  BufRef send, recv;
  mpi::Datatype dtype = mpi::Datatype::Byte;
  mpi::ReduceOp rop = mpi::ReduceOp::Sum;
  coll::CollConfig cfg;
  int sf = 1;
  std::optional<std::size_t> stride;
};

/// One rank role's task graph, shared by every rank of that role and by
/// every repeat of the call: nodes, their prerequisites (CSR), the sizes
/// of the temps a data-mode run allocates, and whether the (degenerate)
/// call copies send to recv at issue. TaskScheduler::compile fills the
/// scheduling tables once per shape.
struct GraphShape {
  std::vector<ShapeNode> nodes;
  std::vector<int> deps_begin{0};  // node i's deps: deps[deps_begin[i]..]
  std::vector<int> deps;
  std::vector<std::size_t> temps;
  bool copy = false;

  // Scheduling tables (TaskScheduler::compile).
  std::vector<int> dependents_begin, dependents;  // CSR, like deps
  std::vector<int> fifo_prev;  // previous node on the same comm, -1 if none
  std::vector<int> step_total;

  /// Append `node` after `prereqs`; negative entries (no such task) are
  /// skipped, the rest keep their order.
  int add(const ShapeNode& node, std::initializer_list<int> prereqs = {});
  /// A temp of `bytes`: a Temp arena when `allocate` (data mode), else
  /// timing-only.
  BufRef temp(bool allocate, std::size_t bytes, mpi::Datatype t);
  std::span<const int> deps_of(int i) const {
    return {deps.data() + deps_begin[i], deps.data() + deps_begin[i + 1]};
  }
  bool empty() const { return nodes.empty(); }
};

/// Node i of `shape` as the call it makes on `view`'s rank, with the
/// run's buffers and temps (deps left empty).
TaskNode bind_node(const GraphShape& shape, int i, const RankView& view,
                   mpi::BufView send, mpi::BufView recv,
                   std::vector<std::vector<std::byte>>& temps);

/// The whole TaskGraph of `shape` on `view`'s rank: deps filled, temps
/// allocated, and a degenerate call's send → recv copy made.
TaskGraph bind(const GraphShape& shape, const RankView& view,
               mpi::BufView send, mpi::BufView recv);

/// A copying call's send → recv copy, when both views carry data.
void copy_through(const GraphShape& shape, mpi::BufView send,
                  mpi::BufView recv);

/// Structural validation: returns "" when the graph is well-formed, else a
/// description of the first defect. Checks that every node names a module
/// and a communicator, dep indices, self-dependencies, negative steps, and
/// acyclicity (Kahn).
std::string validate_graph(const TaskGraph& graph);

/// validate_graph for a shape bound to `view`'s rank.
std::string validate_shape(const GraphShape& shape, const RankView& view);

}  // namespace han::task
