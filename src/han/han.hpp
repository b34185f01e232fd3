// HanModule — the paper's contribution: a task-based hierarchical
// collective framework that composes per-level submodules and pipelines
// their fine-grained operations across HAN segments (paper §III).
//
// Bcast (Fig. 1): node leaders run ib(0), sbib(1..u-1), sb(u-1); other
// ranks run sb(0..u-1). Allreduce (Fig. 5): a 4-stage pipeline
// (sr → ir → ib → sb) per segment, with ir/ib sharing algorithm and root
// so they ride opposite directions of the full-duplex fabric. Reduce,
// Gather, Scatter, Allgather are the "similar design" extensions the
// paper sketches.
//
// Configuration (Table II: fs/imod/smod/ibalg/iralg/ibs/irs) comes from a
// pluggable Decider — a static default heuristic out of the box, or the
// autotuner's lookup table (autotune/).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "coll/registry.hpp"
#include "han/config.hpp"
#include "han/hierarchy.hpp"
#include "han/task/scheduler.hpp"
#include "obs/metrics.hpp"

namespace han::core {

class HanModule : public coll::CollModule {
 public:
  using Decider = std::function<HanConfig(coll::CollKind kind, int nodes,
                                          int ppn, std::size_t bytes)>;

  HanModule(mpi::SimWorld& world, coll::CollRuntime& rt,
            coll::ModuleSet& mods);
  ~HanModule();

  std::string_view name() const override { return "han"; }
  bool nonblocking_capable() const override { return true; }

  /// Install a configuration source (the autotuner's decision function).
  void set_decider(Decider decider) { decider_ = std::move(decider); }

  /// The static fallback heuristic used when no tuned table is installed.
  static HanConfig default_config(coll::CollKind kind, int nodes, int ppn,
                                  std::size_t bytes);

  /// Resolve the configuration for an operation (exposed for tests and
  /// the benches' reporting).
  HanConfig decide(coll::CollKind kind, const mpi::Comm& comm,
                   std::size_t bytes);

  mpi::Request ibcast(const mpi::Comm& comm, int me, int root,
                      mpi::BufView buf, mpi::Datatype dtype,
                      const coll::CollConfig& cfg) override;
  mpi::Request ireduce(const mpi::Comm& comm, int me, int root,
                       mpi::BufView send, mpi::BufView recv,
                       mpi::Datatype dtype, mpi::ReduceOp op,
                       const coll::CollConfig& cfg) override;
  mpi::Request iallreduce(const mpi::Comm& comm, int me, mpi::BufView send,
                          mpi::BufView recv, mpi::Datatype dtype,
                          mpi::ReduceOp op,
                          const coll::CollConfig& cfg) override;
  mpi::Request igather(const mpi::Comm& comm, int me, int root,
                       mpi::BufView send, mpi::BufView recv,
                       const coll::CollConfig& cfg) override;
  mpi::Request iscatter(const mpi::Comm& comm, int me, int root,
                        mpi::BufView send, mpi::BufView recv,
                        const coll::CollConfig& cfg) override;
  mpi::Request iallgather(const mpi::Comm& comm, int me, mpi::BufView send,
                          mpi::BufView recv,
                          const coll::CollConfig& cfg) override;
  /// Hierarchical reduce-scatter (equal blocks): intra-node reduce →
  /// inter-node reduce-scatter over the leaders (ring or tree+scatter,
  /// per cfg.imod) → intra-node scatter of the node's region.
  mpi::Request ireduce_scatter(const mpi::Comm& comm, int me,
                               mpi::BufView send, mpi::BufView recv,
                               mpi::Datatype dtype, mpi::ReduceOp op,
                               const coll::CollConfig& cfg) override;
  mpi::Request ibarrier(const mpi::Comm& comm, int me) override;

  /// Explicit-config entry points (used by the autotuner's searches,
  /// which must pin every Table II parameter).
  mpi::Request ibcast_cfg(const mpi::Comm& comm, int me, int root,
                          mpi::BufView buf, mpi::Datatype dtype,
                          const HanConfig& cfg);
  mpi::Request ireduce_cfg(const mpi::Comm& comm, int me, int root,
                           mpi::BufView send, mpi::BufView recv,
                           mpi::Datatype dtype, mpi::ReduceOp op,
                           const HanConfig& cfg);
  mpi::Request iallreduce_cfg(const mpi::Comm& comm, int me, mpi::BufView send,
                              mpi::BufView recv, mpi::Datatype dtype,
                              mpi::ReduceOp op, const HanConfig& cfg);
  mpi::Request ireduce_scatter_cfg(const mpi::Comm& comm, int me,
                                   mpi::BufView send, mpi::BufView recv,
                                   mpi::Datatype dtype, mpi::ReduceOp op,
                                   const HanConfig& cfg);

  /// Extension (paper §II-A / future work): multi-leader allreduce.
  /// Segments are striped over `leaders` node-local leaders; stripe j
  /// pipelines through leader j's up communicator, parallelizing the
  /// leader-side protocol processing and reduction trees the way
  /// Bayatpour et al.'s multi-leader designs do. `leaders` is clamped to
  /// the node width; 1 degenerates to the paper's single-leader pipeline.
  /// Runs as the canonical synthesized schedule with k leaders
  /// (task/builders.hpp).
  mpi::Request iallreduce_multileader(const mpi::Comm& comm, int me,
                                      mpi::BufView send, mpi::BufView recv,
                                      mpi::Datatype dtype, mpi::ReduceOp op,
                                      const HanConfig& cfg, int leaders);

  /// The communicator ladder for `comm` under an explicit topology
  /// descriptor (built lazily, cached per (context, descriptor); freed
  /// with the communicator).
  Hierarchy& hierarchy(const mpi::Comm& comm, const TopologyDescriptor& topo);

  /// The ladder derived from the machine's topology descriptor (NUMA
  /// machines get numa < node < cluster, flat machines node < cluster).
  Hierarchy& hierarchy(const mpi::Comm& comm);

  /// The paper's flat 2-level ladder (node < cluster) — the layout the
  /// non-recursive collectives (gather/scatter/allgather/barrier,
  /// reduce-scatter, multi-leader) are defined on.
  Hierarchy& flat_hierarchy(const mpi::Comm& comm);

  /// The ladder cfg selects: lvl == 2 forces the flat 2-level split; 0
  /// (and any depth at or above the derived one) uses the derived ladder.
  Hierarchy& ladder_for(const mpi::Comm& comm, const HanConfig& cfg);

  /// Public world / runtime access for the task-graph builders.
  mpi::SimWorld& world_ref() { return world(); }
  coll::CollRuntime& rt_ref() { return rt(); }

  coll::CollModule* inter_module(const HanConfig& cfg);
  coll::CollModule* intra_module(const HanConfig& cfg);
  coll::ModuleSet& modules() { return *mods_; }

 private:
  using NamedCounters = std::map<std::string, obs::Counter*, std::less<>>;
  /// `prefix + name`'s counter, interned in `cache` on first use.
  obs::Counter& named_counter(NamedCounters& cache, std::string_view prefix,
                              const std::string& name);

  coll::ModuleSet* mods_;
  Decider decider_;
  task::TaskScheduler sched_;
  // decide()'s han.decide.* / han.cfg.* counters, interned on first use
  // (creating them up front would add zero-valued metrics to reports).
  std::array<obs::Counter*, static_cast<int>(coll::CollKind::ReduceScatter) + 1>
      decide_kind_{};
  obs::Counter* decide_bytes_ = nullptr;
  NamedCounters cfg_imod_, cfg_smod_;
  // Ladders cached by parent context; a context holds one ladder per
  // distinct descriptor (flat + derived, typically). Vector scan keeps
  // lookup deterministic and the descriptor set is tiny.
  std::unordered_map<int, std::vector<std::unique_ptr<Hierarchy>>> comms_;
  int destroy_observer_ = -1;  // SimWorld comm-destroy observer token
};

/// One simulated HAN stack: a world, its collective runtime, the
/// submodules over it and HAN over those, built in that order.
struct HanWorld {
  explicit HanWorld(machine::MachineProfile profile,
                    mpi::SimWorld::Options options = {})
      : world(std::move(profile), options),
        rt(world),
        mods(world, rt),
        han(world, rt, mods) {}

  mpi::SimWorld world;
  coll::CollRuntime rt;
  coll::ModuleSet mods;
  HanModule han;
};

}  // namespace han::core
