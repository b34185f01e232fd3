// TaskScheduler: executes any acyclic TaskGraph over the CollModule
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
#pragma once

#include <array>

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
  explicit TaskScheduler(coll::CollRuntime& rt) : rt_(&rt) {}

  /// Execute `graph`. Returns a request that completes when every node
  /// has completed; an empty graph completes it synchronously. The graph
  /// is validated (HAN_ASSERT on malformed input). `trace_rank` labels
  /// tracer spans and is the owning rank's world rank.
  mpi::Request run(TaskGraph graph, int window, int trace_rank);

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
  coll::CollRuntime* rt_;
  Metrics metrics_;
};

}  // namespace han::task
