// CollRuntime: executes collective Plans over the simulated MPI substrate.
//
// MPI semantics are preserved: each rank independently *starts* its part of
// a collective (ranks arrive at different times — this is what makes the
// paper's delayed-start task benchmarks expressible), instances on a
// communicator are matched by per-rank call order, and a rank's request
// completes when its own actions finish (not when the whole collective
// does), exactly like Open MPI.
//
// A Plan is a pure function of (builder, comm size, BuildSpec), and HAN's
// pipelines issue the same few sub-collectives over and over. The runtime
// therefore keeps plan *templates* — the validated Plan plus its wired
// reverse edges — keyed by exactly that triple, and every instance
// replays one. Templates live while the runtime is busy: they are all
// dropped when the last live instance retires, so a quiescent runtime
// holds none and memory never grows with the number of distinct calls.
//
// Hot-path note: executing an action subscribes one completion closure —
// the runtime, the instance, rank, action and start time, within the
// engine's inline callback storage — that routes every action kind to
// finish_action (data-mode copy/reduce, accounting, dependents). Like
// templates, retired instances live while the runtime is busy: their
// sim::SlotPool slots keep the per-rank and per-node arrays for the next
// collective, and the pool is trimmed at quiescence. In the steady state
// executing an action touches no allocator: the requests, messages and
// flows below it are pooled too (simmpi/request.hpp, simmpi/world.hpp).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coll/builders.hpp"
#include "coll/plan.hpp"
#include "simbase/slot_pool.hpp"
#include "simbase/trace.hpp"
#include "simmpi/world.hpp"

namespace han::coll {

class CollRuntime {
 public:
  explicit CollRuntime(mpi::SimWorld& world);
  ~CollRuntime();
  CollRuntime(const CollRuntime&) = delete;
  CollRuntime& operator=(const CollRuntime&) = delete;

  /// Rank `comm_rank` of `comm` starts its part of the next collective in
  /// its call order. The first arriving rank's (builder, spec) selects the
  /// instance's plan template — built and validated on first use while
  /// the runtime is busy, replayed afterwards; user buffers bind to plan
  /// slots [0, num_user_slots).
  mpi::Request start(const mpi::Comm& comm, int comm_rank,
                     PlanBuilder builder, const BuildSpec& spec,
                     std::vector<mpi::BufView> user_bufs);

  /// Same, for a hand-built plan that no named builder makes (tests and
  /// diagnostics). The first arriving rank's plan is validated and wired
  /// like a built one but never cached as a template.
  mpi::Request start_plan(const mpi::Comm& comm, int comm_rank,
                          const Plan& plan,
                          std::vector<mpi::BufView> user_bufs);

  mpi::SimWorld& world() { return *world_; }

  /// Live collective instances (diagnostics; 0 when quiescent).
  std::size_t live_instances() const { return instances_.size(); }
  /// Cached plan templates (diagnostics; 0 when quiescent).
  std::size_t live_templates() const { return templates_.size(); }

  /// Attach a tracer: every executed action emits a (rank, kind, bytes)
  /// span, grouped under the rank's simulated node. Pass nullptr to detach.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  sim::Tracer* tracer() const { return tracer_; }

  /// Install an extra pre-execution plan check, run on every freshly
  /// built Plan right after the structural validate_plan(). Returns "" to
  /// accept or a diagnostic to abort on (HAN_ASSERT with the message).
  /// While a checker is installed templates are bypassed: every instance
  /// builds its own Plan, so the checker sees exactly one per instance.
  /// han::verify::arm_plan_gate() installs its semantic analyzer here —
  /// dependency injection keeps coll/ below verify/ in the layer order.
  using PlanChecker = std::function<std::string(const Plan&, int comm_size)>;
  void set_plan_checker(PlanChecker checker) {
    plan_checker_ = std::move(checker);
  }

  /// Call `fn` each time the runtime goes quiescent: its last live
  /// instance retired and its templates were dropped. Caches that must
  /// follow one busy period, like the templates, subscribe here. Returns a
  /// token for remove_quiescence_observer, which the observer's owner
  /// calls before it dies.
  int add_quiescence_observer(std::function<void()> fn);
  void remove_quiescence_observer(int token);

  /// Label a communicator context as a hierarchy level ("intra", "inter",
  /// ...). Actions on that context are accounted under
  /// `coll.level.<label>.*` instead of the default "flat" bucket; the
  /// level's in-flight gauge yields the paper's overlap ratio via
  /// mean_active. HanModule labels its sub-communicators automatically.
  void set_level_label(int context, const std::string& label);

 private:
  struct LevelStats {
    obs::Counter* actions = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* busy = nullptr;   // summed action-seconds
    obs::Gauge* inflight = nullptr;
  };
  struct KindStats {
    obs::Counter* actions = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* busy = nullptr;
  };

  LevelStats& make_level(const std::string& label);
  LevelStats* level_stats(int context);
  struct RankState {
    bool arrived = false;
    std::vector<mpi::BufView> user_bufs;
    std::vector<std::vector<std::byte>> temps;
    int actions_left = 0;
    mpi::Request req;
  };

  /// A validated Plan and its wiring, shared read-only by the instances
  /// replaying it. Per-action arrays are flat over node id base[r] + a.
  struct Template {
    Plan plan;
    std::vector<int> base;       // comm_size + 1 node-id offsets
    std::vector<int> deps_left;  // initial unmet dependencies per node
    // Reverse edges: dependents[dependents_begin[i] ..
    // dependents_begin[i + 1]) lists the (rank, action) pairs node i's
    // completion unblocks.
    std::vector<int> dependents_begin;  // node count + 1 offsets
    std::vector<DepRef> dependents;

    int node(int rank, int action) const { return base[rank] + action; }
  };
  using TemplatePtr = std::shared_ptr<const Template>;
  struct TemplateKey {
    PlanBuilder builder;
    int comm_size;
    BuildSpec spec;
    friend auto operator<=>(const TemplateKey&, const TemplateKey&) = default;
  };

  struct Instance {
    const mpi::Comm* comm = nullptr;
    std::uint64_t seq = 0;
    TemplatePtr tmpl;
    LevelStats* level = nullptr;  // resolved at the first executed action
    std::vector<RankState> ranks;
    std::vector<int> deps_left;  // per node; kLaunched once launched
    long total_actions_left = 0;
    int ranks_not_arrived = 0;

    const Plan& plan() const { return tmpl->plan; }
  };

  std::uint64_t next_seq(const mpi::Comm& comm, int comm_rank);
  Instance* find_instance(const mpi::Comm& comm, std::uint64_t seq);
  Instance& create_instance(const mpi::Comm& comm, std::uint64_t seq,
                            TemplatePtr tmpl);
  TemplatePtr plan_template(PlanBuilder builder, int comm_size,
                            const BuildSpec& spec);
  /// Validate `plan` (and run the checker), then wire its reverse edges.
  TemplatePtr wire_template(Plan plan, int comm_size) const;
  mpi::Request arrive(Instance& inst, int rank,
                      std::vector<mpi::BufView> user_bufs);
  void try_launch(Instance& inst, int rank, int action);
  void execute(Instance& inst, int rank, int action);
  /// The one completion path of every action kind: applies a data-mode
  /// copy or reduction, accounts the action, then completes it.
  void finish_action(Instance& inst, int rank, int action, sim::Time t0);
  void complete_action(Instance& inst, int rank, int action);
  mpi::BufView slot_view(Instance& inst, int rank, SlotRef ref,
                         std::size_t bytes) const;
  void maybe_retire(Instance& inst);
  /// Drop per-context state when its communicator is destroyed: the
  /// recycled context id would otherwise hand a fresh comm the stale call
  /// sequence and level label.
  void evict_context(int context);

  mpi::SimWorld* world_;
  sim::Tracer* tracer_ = nullptr;
  PlanChecker plan_checker_;
  int destroy_observer_ = -1;  // SimWorld comm-destroy observer token
  std::vector<std::pair<int, std::function<void()>>> quiescence_observers_;
  int next_observer_token_ = 0;
  // Per-comm-context, per-comm-rank collective call counters.
  std::unordered_map<int, std::vector<std::uint64_t>> call_seq_;
  // Live instances by (context, seq), as slots of instance_pool_; a
  // retired slot keeps its arrays for the next collective.
  std::map<std::pair<int, std::uint64_t>, std::uint32_t> instances_;
  sim::SlotPool<Instance> instance_pool_;
  std::map<TemplateKey, TemplatePtr> templates_;  // cleared at quiescence
  // Observability (pointers into the world's registry; stable for life).
  KindStats kinds_[8];
  obs::Gauge* inflight_ = nullptr;
  obs::Histogram* action_seconds_ = nullptr;
  std::map<std::string, LevelStats> levels_;       // stable value addresses
  std::unordered_map<int, LevelStats*> level_of_;  // context -> level
};

}  // namespace han::coll
