// TaskScheduler: executes any acyclic task graph over the CollModule
// interface with a configurable in-flight step window. Issuing a node
// makes the CollModule call its record names.
//
// A node becomes issuable when (a) all its dependency nodes completed,
// (b) its step lies inside the window: step < frontier + window, where
// the frontier is the earliest step with incomplete tasks, and (c) every
// earlier-emitted node on the same communicator has been issued (per-comm
// FIFO — CollRuntime matches collective instances by per-rank call order,
// so the issue order must stay identical across ranks regardless of
// window). Window 1 reproduces the seed coroutines' lock-step wait_all
// barrier semantics exactly; larger windows let later steps start as soon
// as their data dependencies allow — a new tunable (HanConfig::window).
//
// A run executes a compiled GraphShape bound to one rank: validation and
// the scheduling tables (dependents, FIFO links, step totals) are paid
// once per shape, and the per-run state is pooled, so a repeat of a call
// whose shape exists allocates nothing here (temps aside, in data mode).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "coll/runtime.hpp"
#include "han/task/graph.hpp"
#include "obs/metrics.hpp"

namespace han::task {

/// Make the module call `n` stands for and return its request. A pure
/// function of the node: it emits no metrics and keeps no state, so the
/// executor below and the autotuner's task benchmarks issue a task the
/// same way.
mpi::Request dispatch(sim::Engine& engine, const TaskNode& n);

class TaskScheduler {
 public:
  /// A scheduler issuing over `rt`; both must outlive every run.
  explicit TaskScheduler(coll::CollRuntime& rt);
  ~TaskScheduler();
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Validate `shape` as bound to `view`'s rank (HAN_ASSERT on a defect)
  /// and compute its scheduling tables: everything a run needs that does
  /// not depend on the run.
  static std::shared_ptr<const GraphShape> compile(GraphShape shape,
                                                   const RankView& view);

  /// Execute `shape` (compiled) on `view`'s rank with the caller's
  /// buffers; a copying shape copies send to recv first. Returns a request
  /// that completes when every node has completed; an empty shape
  /// completes it synchronously. `trace_rank` labels tracer spans and is
  /// the owning rank's world rank.
  mpi::Request run(std::shared_ptr<const GraphShape> shape,
                   const RankView& view, mpi::BufView send,
                   mpi::BufView recv, int window, int trace_rank);

  /// han.task.* metric handles, interned on first use: a registry lookup
  /// per graph is measurable on the issue path, and creating them up
  /// front would add zero-valued metrics to every report.
  struct Metrics {
    obs::Gauge* inflight = nullptr;
    obs::Counter* issued = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* graphs = nullptr;
    obs::Counter* nodes = nullptr;
    std::array<obs::Counter*, static_cast<int>(Op::Barrier) + 1> per_op{};
  };

 private:
  struct Exec;
  Exec& acquire();
  void release(Exec& e);

  coll::CollRuntime* rt_;
  Metrics metrics_;
  // Per-run state: every Exec ever made, and the finished ones, whose
  // arrays the next run reuses.
  std::vector<std::unique_ptr<Exec>> pool_;
  std::vector<Exec*> idle_;
};

}  // namespace han::task
