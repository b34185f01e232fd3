// Tuner: the offline autotuning driver (paper §III-C).
//
// Runs the task-model search over a message-size sample, fills a
// LookupTable, and can install the resulting decision function into a
// HanModule — the "performed once when installing the MPI to a new
// machine" workflow.
#pragma once

#include "autotune/lookup.hpp"
#include "autotune/search.hpp"

namespace han::tune {

struct TunerOptions {
  /// Message sizes sampled into the lookup table (Table I's m axis).
  std::vector<std::size_t> message_sizes{
      4 << 10,  16 << 10, 64 << 10, 256 << 10,
      1 << 20,  4 << 20,  16 << 20};
  // Built by push_back rather than an initializer list: GCC 12 emits a
  // spurious -Wmaybe-uninitialized for the byte-sized backing array when
  // this NSDMI is inlined into callers under -O2.
  static std::vector<coll::CollKind> default_kinds() {
    std::vector<coll::CollKind> v;
    v.push_back(coll::CollKind::Bcast);
    v.push_back(coll::CollKind::Allreduce);
    v.push_back(coll::CollKind::ReduceScatter);
    return v;
  }
  std::vector<coll::CollKind> kinds = default_kinds();
  bool heuristics = false;  // user-toggleable (paper: accuracy trade-off)
  /// Concurrent per-kind tuning jobs (han::par). Each job rebuilds the
  /// machine in a private SimWorld and the results merge in kind order, so
  /// every jobs value — including the serial 1, the default — produces an
  /// identical report (0 = one job per hardware thread). A Tuner targets
  /// the world communicator, which is what a replica can replay.
  int jobs = 1;

  /// A copy with message_sizes and kinds sorted ascending and
  /// deduplicated. Callers assemble both lists programmatically (unions
  /// of app bucket sizes, sweep ladders), so tune() and warm_tune() both
  /// work on this form: no size is benchmarked twice and tables fill in
  /// ascending order.
  TunerOptions normalized() const;
};

struct TuneReport {
  LookupTable table;
  double tuning_cost = 0.0;  // simulated benchmark seconds
  int task_benchmarks = 0;   // configurations whose tasks were measured
};

class Tuner {
 public:
  Tuner(mpi::SimWorld& world, core::HanModule& han, const mpi::Comm& comm,
        SearchSpace space = SearchSpace());

  /// Task-model autotuning: benchmark tasks, model every (config, m), fill
  /// the table with the per-m winners.
  TuneReport tune(const TunerOptions& options = TunerOptions());

  /// Install a table's decision function into the HanModule.
  void install(const LookupTable& table);

  Searcher& searcher() { return searcher_; }
  mpi::SimWorld& world() { return *world_; }
  core::HanModule& han() { return *han_; }
  const mpi::Comm& comm() const { return *comm_; }

 private:
  mpi::SimWorld* world_;
  core::HanModule* han_;
  const mpi::Comm* comm_;
  Searcher searcher_;
};

}  // namespace han::tune
