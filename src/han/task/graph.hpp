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
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "coll/types.hpp"
#include "simmpi/buffer.hpp"
#include "simmpi/comm.hpp"

namespace han::coll {
class CollModule;
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
  /// A graph-owned temp buffer of `bytes`; timing-only unless `data_mode`.
  mpi::BufView temp(bool data_mode, std::size_t bytes, mpi::Datatype t);
  bool empty() const { return nodes.empty(); }
  int max_step() const;
};

/// Structural validation: returns "" when the graph is well-formed, else a
/// description of the first defect. Checks that every node names a module
/// and a communicator, dep indices, self-dependencies, negative steps, and
/// acyclicity (Kahn).
std::string validate_graph(const TaskGraph& graph);

}  // namespace han::task
