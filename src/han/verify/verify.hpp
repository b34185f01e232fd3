// han::verify — static race/deadlock analysis of collective schedules.
//
// Model-checks schedules *without executing them*, extending the
// structural checks (coll::validate_plan, task::validate_graph) into
// semantic analysis at both layers of the stack:
//
//  * Plan level (analyze_plan): the cross-rank wait-for graph is built
//    from send/recv peer+tag matching under per-pair FIFO semantics.
//    Unmatched operations, size-mismatched pairs, ambiguous match order
//    (two same-key operations not happens-before ordered on their rank)
//    and wait cycles are reported with a minimal witness cycle. A
//    byte-interval happens-before pass over every rank's action set then
//    detects buffer races: two actions touching overlapping
//    [offset, offset+len) ranges of one buffer slot, at least one
//    writing, with no dependency path between them. Accesses are
//    modelled at the instants the runtime performs them — a send
//    snapshots its payload synchronously at issue, recv delivery and
//    copy/reduce application mutate storage at completion. Reduction
//    accumulations are tracked as their own access class so legal
//    recv-reduce chains are not flagged, while an *unordered* pair of
//    accumulations (a floating-point determinism hazard) gets its own
//    diagnostic.
//
//  * TaskGraph level (analyze_task_graphs): every rank's task graph for
//    one collective operation, checked under the TaskScheduler's issue
//    rules — data dependencies, per-comm FIFO, and the in-flight step
//    window w. Cross-rank edges come from collective-instance matching
//    (the k-th task on a communicator context forms one instance across
//    all member ranks; a rank's instance cannot complete until every
//    member issued its part — the rendezvous-conservative rule). A cycle
//    at window w is a deadlock at that window; the analysis is
//    parameterized by w, so a graph that is only safe at some windows is
//    reported per window with a witness cycle. Mismatched per-context
//    task counts or operation sequences across member ranks (the classic
//    crossed-call-order bug) get dedicated diagnostics.
//
// All analyses are pure functions of the schedule: no simulator state,
// deterministic findings order. docs/VERIFICATION.md has the algorithms.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "coll/plan.hpp"

namespace han::task {
struct TaskGraph;
}
namespace han::coll {
class CollRuntime;
}

namespace han::verify {

/// Diagnostic classes. Every finding carries exactly one.
enum class Diag {
  UnmatchedSend,         // send with no matching recv (hangs in rendezvous)
  UnmatchedRecv,         // recv with no matching send (always hangs)
  SizeMismatch,          // matched pair moves differing byte counts
  MatchOrderAmbiguous,   // same (peer, tag) ops: posting order inverted by
                         // deps (error) or merely HB-unordered (warning)
  WaitCycle,             // cycle in the plan's cross-rank wait-for graph
  BufferRace,            // overlapping access, >= 1 write, no HB path
  ReduceOrderAmbiguous,  // unordered accumulation pair (fp determinism)
  CrossAccessUnordered,  // Cross* action unordered with its peer's actions
  CollectiveCountMismatch,  // ranks disagree on #collectives per context
  CollectiveOrderMismatch,  // ranks disagree on a context's op sequence
  GraphWaitCycle,        // cycle in the task-level wait-for graph
};

const char* diag_name(Diag d);

enum class Severity { Error, Warning };

/// One element of a wait-for-cycle witness: the issue or completion event
/// of an action (plan level) or task node (graph level).
struct Event {
  int rank = -1;
  int index = -1;   // action index / task node index within the rank
  bool completion = false;  // false = issue event
};

struct Finding {
  Diag code = Diag::WaitCycle;
  Severity severity = Severity::Error;
  std::string message;      // human-readable, includes the witness
  std::vector<Event> cycle; // wait-cycle witness (minimal), else empty
  // Conflicting-pair witness (races / mismatches); -1 when not applicable.
  int rank_a = -1, index_a = -1;
  int rank_b = -1, index_b = -1;
  int slot = -1;                   // raced buffer slot
  std::size_t lo = 0, hi = 0;      // overlapping byte interval [lo, hi)
};

struct Options {
  /// Treat every send as rendezvous (completes only once the matching
  /// recv is posted). The conservative portable-MPI assumption; plans
  /// that only terminate because small sends complete eagerly are
  /// exactly the silent hangs this analyzer exists to catch.
  bool assume_rendezvous = true;
  bool check_deadlock = true;
  bool check_races = true;
  /// Upper bound on overlapping-pair happens-before queries per plan; a
  /// plan exceeding it reports truncated analysis (never silently).
  std::size_t max_race_pairs = 1u << 20;
};

struct Report {
  std::vector<Finding> findings;
  // Analysis footprint (for reports and tests).
  int actions = 0;        // plan actions / graph nodes analyzed
  int match_edges = 0;    // matched send/recv pairs (plan level)
  int race_pairs = 0;     // overlapping-pair HB queries performed
  bool truncated = false; // max_race_pairs hit

  bool clean() const {
    for (const Finding& f : findings) {
      if (f.severity == Severity::Error) return false;
    }
    return true;
  }
  int error_count() const {
    int n = 0;
    for (const Finding& f : findings) n += f.severity == Severity::Error;
    return n;
  }
  /// One line per finding, deterministic order.
  std::string to_string() const;
};

/// Semantic analysis of one collective Plan (all ranks). The plan must
/// already pass coll::validate_plan (callers assert that first).
Report analyze_plan(const coll::Plan& plan, int comm_size,
                    const Options& opts = {});

// ---- task-graph level -------------------------------------------------

/// Structural projection of one rank's TaskGraph: just what the
/// scheduler's issue rules and cross-rank matching see. `members` holds
/// the world ranks of the node's communicator so instances can be
/// stitched across ranks; `ctx` is the communicator context id.
struct GraphNodeSummary {
  int ctx = -1;
  int step = 0;
  int op = -1;       // task::Op, as int (kept abstract for mutation tests)
  std::vector<int> deps;
  std::vector<int> members;  // world ranks of the comm; empty if no comm
};

struct GraphSummary {
  int world_rank = -1;
  std::vector<GraphNodeSummary> nodes;
};

/// Project a built TaskGraph into its analyzable structure.
GraphSummary summarize(const task::TaskGraph& graph, int world_rank);

/// Deadlock analysis of one collective operation's per-rank task graphs
/// under scheduler window `window` (clamped to >= 1). `graphs` holds one
/// summary per participating rank (any order; ranks identified by
/// world_rank).
Report analyze_task_graphs(const std::vector<GraphSummary>& graphs,
                           int window, const Options& opts = {});

/// The same analysis at every window of `windows`, one report each, in
/// input order; equal to one single-window call per window. Every edge
/// but the window gates is listed once, and a window with no wait cycle
/// answers for every wider one (no cycle at w implies none at w + 1).
std::vector<Report> analyze_task_graphs(
    const std::vector<GraphSummary>& graphs, std::span<const int> windows,
    const Options& opts = {});

// ---- runtime gate -------------------------------------------------------

/// Arm `rt`'s pre-execution plan-checker with analyze_plan: every freshly
/// built Plan is analyzed before scheduling and any Error finding aborts
/// execution with the report (CollRuntime::set_plan_checker). Test
/// harnesses arm this in debug runs; `han_verify --exec` uses a recording
/// variant of the same hook.
void arm_plan_gate(coll::CollRuntime& rt, Options opts = {});

}  // namespace han::verify
