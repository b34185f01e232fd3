#include "autotune/tuner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "parallel/pool.hpp"

namespace han::tune {

namespace {

/// Everything one per-kind job produces. The world is kept alive so its
/// metrics (tune.search.*, tune.taskbench.*, sim.*) can be merged into the
/// caller's registry after the join, in kind order.
struct KindOutcome {
  std::unique_ptr<core::HanWorld> tw;
  std::vector<std::pair<std::size_t, core::HanConfig>> winners;
  std::size_t estimates = 0;
  int max_evaluations = 0;
  double cost = 0.0;
};

/// NUMA profiles grow the mid-level ladder axes (docs/HIERARCHY.md)
/// unless the caller pinned either axis explicitly. Flat profiles pass
/// through untouched, keeping the seed's space byte for byte.
SearchSpace with_profile_axes(SearchSpace space,
                              const machine::MachineProfile& profile) {
  if (profile.numa_per_node > 1 && space.mid_algs.empty() &&
      space.zc_switchovers.empty()) {
    SearchSpace d = SearchSpace::for_profile(profile);
    space.mid_algs = std::move(d.mid_algs);
    space.zc_switchovers = std::move(d.zc_switchovers);
  }
  return space;
}

}  // namespace

Tuner::Tuner(mpi::SimWorld& world, core::HanModule& han,
             const mpi::Comm& comm, SearchSpace space)
    : world_(&world),
      han_(&han),
      comm_(&comm),
      searcher_(world, han, comm,
                with_profile_axes(std::move(space), world.profile())) {}

TunerOptions TunerOptions::normalized() const {
  TunerOptions opts = *this;
  std::sort(opts.message_sizes.begin(), opts.message_sizes.end());
  opts.message_sizes.erase(
      std::unique(opts.message_sizes.begin(), opts.message_sizes.end()),
      opts.message_sizes.end());
  std::sort(opts.kinds.begin(), opts.kinds.end());
  opts.kinds.erase(std::unique(opts.kinds.begin(), opts.kinds.end()),
                   opts.kinds.end());
  return opts;
}

TuneReport Tuner::tune(const TunerOptions& options) {
  const TunerOptions opts = options.normalized();

  HAN_ASSERT_MSG(comm_ == &world_->world_comm(),
                 "Tuner replays its jobs on replicas of the world, so it "
                 "tunes the world communicator only");
  TuneReport report;
  core::Hierarchy& hc = han_->flat_hierarchy(*comm_);
  const int nodes = hc.node_count();
  const int ppn = hc.max_ppn();

  obs::MetricsRegistry& metrics = world_->metrics();
  std::size_t entries = 0;
  std::size_t estimates = 0;

  // Each kind is an independent job on a private replica of the
  // machine. The serial jobs=1 run executes the same jobs inline in the
  // same order, so results are identical by construction for every jobs
  // value.
  const machine::MachineProfile& profile = world_->profile();
  const mpi::SimWorld::Options wopts = world_->options();
  std::vector<KindOutcome> outcomes = par::parallel_map(
      opts.jobs, static_cast<int>(opts.kinds.size()),
      [&](int i) {
        const coll::CollKind kind = opts.kinds[static_cast<std::size_t>(i)];
        KindOutcome o;
        o.tw = std::make_unique<core::HanWorld>(profile, wopts);
        Searcher s(o.tw->world, o.tw->han, o.tw->world.world_comm(),
                   searcher_.space());
        const double cost0 = s.tuning_cost();
        s.prepare(kind, opts.heuristics);
        for (std::size_t m : opts.message_sizes) {
          const SearchResult result = s.estimate(kind, m, opts.heuristics);
          o.estimates += static_cast<std::size_t>(result.evaluations);
          if (result.best) o.winners.emplace_back(m, result.best->cfg);
          o.max_evaluations = std::max(o.max_evaluations,
                                       result.evaluations);
        }
        o.cost = s.tuning_cost() - cost0;
        return o;
      });
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const coll::CollKind kind = opts.kinds[i];
    KindOutcome& o = outcomes[i];
    for (const auto& [m, cfg] : o.winners) {
      report.table.insert(kind, nodes, ppn, m, cfg);
      ++entries;
    }
    estimates += o.estimates;
    report.task_benchmarks =
        std::max(report.task_benchmarks, o.max_evaluations);
    report.tuning_cost += o.cost;
    metrics.merge_counters(o.tw->world.metrics());
  }

  metrics.counter("tune.runs").add(1.0);
  metrics.counter("tune.table_entries").add(static_cast<double>(entries));
  metrics.counter("tune.model_estimates").add(static_cast<double>(estimates));
  metrics.counter("tune.cost_seconds").add(report.tuning_cost);
  return report;
}

void Tuner::install(const LookupTable& table) {
  han_->set_decider(table.decider());
}

}  // namespace han::tune
