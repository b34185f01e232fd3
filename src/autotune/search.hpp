// Configuration search strategies (paper §III-C).
//
// Four strategies, matching Fig. 8/9's bars:
//  * Exhaustive        — run the real collective for every configuration at
//                        every message size; ground truth, O(M*S*A) runs.
//  * Exhaustive+heur   — same, with the paper's pruning heuristics.
//  * Task model (HAN)  — benchmark tasks once per configuration, reuse the
//                        costs across message sizes through the cost model.
//  * Task model+heur   — combined, the paper's 4.3%-of-exhaustive search.
//
// Heuristics reproduced from §III-C: SOLO only for segments >= 512KB, the
// chain algorithm only when enough segments exist to fill its pipeline.
#pragma once

#include <map>
#include <optional>

#include "autotune/costmodel.hpp"

namespace han::tune {

struct SearchSpace {
  std::vector<std::size_t> fs_sizes{64 << 10,  128 << 10, 256 << 10,
                                    512 << 10, 1 << 20,   2 << 20};
  std::vector<std::string> imods{"libnbc", "adapt"};
  std::vector<std::string> smods{"sm", "solo"};
  std::vector<coll::Algorithm> adapt_algs{coll::Algorithm::Chain,
                                          coll::Algorithm::Binary,
                                          coll::Algorithm::Binomial};
  std::vector<std::size_t> adapt_inter_segments{32 << 10, 128 << 10};
  /// Add the ring inter module for the kinds it implements
  /// (reduce-scatter); one config per fs x smod.
  bool include_ring = true;
  /// Mid-level axes for derived n-level ladders (docs/HIERARCHY.md): the
  /// mid-stage algorithm (HanConfig::malg) and the zero-copy switchover
  /// (HanConfig::zcs; 0 = always zero-copy). Both empty — the default —
  /// leave the space byte-identical to the flat 2-level one; the Tuner
  /// populates them automatically on NUMA machine profiles.
  std::vector<coll::Algorithm> mid_algs;
  std::vector<std::size_t> zc_switchovers;
  /// Inter-node stripe factors (HanConfig::sf, docs/FABRIC.md). Empty —
  /// the default — leaves the space byte-identical to the single-rail
  /// one; the Tuner populates it with the divisors of the machine's NIC
  /// count on multi-rail profiles.
  std::vector<int> stripe_factors;

  /// Every configuration of the space (paper: S x A combinations).
  std::vector<core::HanConfig> enumerate(coll::CollKind kind) const;

  /// The default space a machine profile calls for: flat machines get the
  /// seed's space unchanged; NUMA-split profiles (numa_per_node > 1) also
  /// get the mid-level axes, so the tuner weighs the derived 3-level
  /// ladder's knobs wherever a mid level exists; multi-rail profiles
  /// (nics_per_node > 1) also get the stripe axis.
  static SearchSpace for_profile(const machine::MachineProfile& profile);
};

/// §III-C pruning rules. `u` = segment count at the evaluated message size
/// (pass 0 when unknown — message-independent rules only).
bool heuristic_allows(const core::HanConfig& cfg, coll::CollKind kind,
                      std::size_t msg_bytes, int u);

struct Evaluation {
  core::HanConfig cfg;
  double time = 0.0;  // measured (exhaustive) or estimated (model) seconds
};

struct SearchResult {
  std::optional<Evaluation> best;
  std::vector<Evaluation> all;    // every evaluated configuration
  double tuning_cost = 0.0;       // simulated seconds of benchmarking
  int evaluations = 0;
};

class Searcher {
 public:
  Searcher(mpi::SimWorld& world, core::HanModule& han, const mpi::Comm& comm,
           SearchSpace space = SearchSpace());

  /// Measure one full collective under `cfg` (max across ranks, `iters`
  /// synchronized iterations, averaged). Charged to the tuning cost.
  double measure_collective(coll::CollKind kind, std::size_t msg_bytes,
                            const core::HanConfig& cfg, int iters = 2);

  /// Exhaustive search at one message size.
  SearchResult exhaustive(coll::CollKind kind, std::size_t msg_bytes,
                          bool heuristics);

  /// Task-model search: prepare() benchmarks tasks for every configuration
  /// (charged once); estimate() then evaluates any message size for free.
  void prepare(coll::CollKind kind, bool heuristics);
  SearchResult estimate(coll::CollKind kind, std::size_t msg_bytes,
                        bool heuristics);

  /// Model-estimated cost for one specific configuration (Fig. 4/7 bars);
  /// benchmarks the configuration's tasks if not already cached.
  double estimate_config(coll::CollKind kind, std::size_t msg_bytes,
                         const core::HanConfig& cfg);

  /// Tuning cost consumed so far (Fig. 8's metric), simulated seconds:
  /// task benchmarking plus any whole-collective measurements.
  double tuning_cost() const { return bench_.elapsed_cost() + bench_charge_; }

  const SearchSpace& space() const { return space_; }
  TaskBench& bench() { return bench_; }

 private:
  struct ConfigKey {
    std::string text;  // canonical HanConfig string
    bool operator<(const ConfigKey& o) const { return text < o.text; }
  };

  const BcastTaskCosts& bcast_costs(const core::HanConfig& cfg);
  const AllreduceTaskCosts& allreduce_costs(const core::HanConfig& cfg);
  const ReduceScatterTaskCosts& reduce_scatter_costs(
      const core::HanConfig& cfg);
  const MidTaskCosts& mid_costs(const core::HanConfig& cfg);
  /// Depth of the ladder cfg's pipeline runs on (2 or 3).
  int priced_depth(const core::HanConfig& cfg);

  mpi::SimWorld* world_;
  core::HanModule* han_;
  const mpi::Comm* comm_;
  SearchSpace space_;
  TaskBench bench_;
  double bench_charge_ = 0.0;  // whole-collective measurement time
  std::map<ConfigKey, BcastTaskCosts> bcast_cache_;
  std::map<ConfigKey, AllreduceTaskCosts> allreduce_cache_;
  std::map<ConfigKey, ReduceScatterTaskCosts> reduce_scatter_cache_;
  std::map<ConfigKey, MidTaskCosts> mid_cache_;
};

}  // namespace han::tune
