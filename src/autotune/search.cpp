#include "autotune/search.hpp"

#include <algorithm>

namespace han::tune {

using coll::Algorithm;
using coll::CollKind;
using core::HanConfig;
using mpi::BufView;

std::vector<HanConfig> SearchSpace::enumerate(CollKind kind) const {
  std::vector<HanConfig> out;
  // The ring inter module only implements the ring-pattern collectives, so
  // it joins the space for reduce-scatter only; one config per fs x smod
  // (the ring has no algorithm/segment knobs beyond irs, left 0).
  const bool ring = include_ring && kind == CollKind::ReduceScatter;
  for (std::size_t fs : fs_sizes) {
    for (const std::string& smod : smods) {
      if (ring) {
        HanConfig c;
        c.fs = fs;
        c.imod = "ring";
        c.smod = smod;
        c.ibalg = Algorithm::Ring;
        c.iralg = Algorithm::Ring;
        c.ibs = 0;
        c.irs = 0;
        out.push_back(std::move(c));
      }
      for (const std::string& imod : imods) {
        if (imod == "libnbc") {
          HanConfig c;
          c.fs = fs;
          c.imod = imod;
          c.smod = smod;
          c.ibalg = Algorithm::Binomial;
          c.iralg = Algorithm::Binomial;
          c.ibs = 0;
          c.irs = 0;
          out.push_back(std::move(c));
          continue;
        }
        for (Algorithm alg : adapt_algs) {
          for (std::size_t iseg : adapt_inter_segments) {
            HanConfig c;
            c.fs = fs;
            c.imod = imod;
            c.smod = smod;
            c.ibalg = alg;
            c.iralg = alg;  // ir/ib share the algorithm (paper §III-B)
            c.ibs = iseg;
            c.irs = iseg;
            out.push_back(std::move(c));
          }
        }
      }
    }
  }
  // Mid-level ladder axes (docs/HIERARCHY.md): crossed only when
  // populated, so a flat space enumerates byte-identically to the seed's.
  // Absent axes pin their knob to the default (malg=Default, zcs=0).
  if (!mid_algs.empty() || !zc_switchovers.empty()) {
    const std::vector<Algorithm> malgs =
        mid_algs.empty() ? std::vector<Algorithm>{Algorithm::Default}
                         : mid_algs;
    const std::vector<std::size_t> zcss =
        zc_switchovers.empty() ? std::vector<std::size_t>{0}
                               : zc_switchovers;
    std::vector<HanConfig> crossed;
    crossed.reserve(out.size() * malgs.size() * zcss.size());
    for (const HanConfig& base : out) {
      for (Algorithm malg : malgs) {
        for (std::size_t zcs : zcss) {
          HanConfig c = base;
          c.malg = malg;
          c.zcs = zcs;
          crossed.push_back(std::move(c));
        }
      }
    }
    out = std::move(crossed);
  }
  // The rail-stripe axis (docs/FABRIC.md): crossed only when populated, so
  // single-rail spaces enumerate byte-identically. sf > 1 never pairs with
  // the ring inter module or reduce-scatter — the ring already saturates
  // its rail per step and the reduce-scatter builders do not stripe
  // (heuristic_allows prunes those pairs; skipping them here keeps the
  // enumeration free of configs every strategy would discard).
  if (!stripe_factors.empty()) {
    std::vector<HanConfig> crossed;
    crossed.reserve(out.size() * stripe_factors.size());
    for (const HanConfig& base : out) {
      for (int sf : stripe_factors) {
        if (sf != 1 &&
            (kind == CollKind::ReduceScatter || base.imod == "ring")) {
          continue;
        }
        HanConfig c = base;
        c.sf = std::max(1, sf);
        crossed.push_back(std::move(c));
      }
    }
    out = std::move(crossed);
  }
  return out;
}

bool heuristic_allows(const HanConfig& cfg, CollKind kind,
                      std::size_t msg_bytes, int u) {
  // SOLO's window-synchronization cost only amortizes on big segments
  // (paper: "we only use the SOLO submodule when the segment size is
  // larger than 512KB").
  if (cfg.smod == "solo" && cfg.fs < (512u << 10)) return false;
  // The chain algorithm needs enough segments to kick-start pipelining.
  if ((cfg.ibalg == Algorithm::Chain || cfg.iralg == Algorithm::Chain) &&
      u > 0 && u < 4) {
    return false;
  }
  // Libnbc schedules whole messages: past ~512KB its unsegmented rounds
  // cannot compete with ADAPT's internal pipelining (prior-understanding
  // rule in the spirit of the paper's §III-C examples).
  if (cfg.imod == "libnbc" && cfg.fs > (512u << 10)) return false;
  // A HAN segment larger than the message itself never changes behaviour;
  // keep only the smallest such configuration.
  if (msg_bytes > 0 && cfg.fs > msg_bytes && cfg.fs / 2 >= msg_bytes) {
    return false;
  }
  // Inter-level segmentation finer than needed on tiny messages only adds
  // setup cost.
  if (msg_bytes > 0 && cfg.ibs > 0 && cfg.ibs > msg_bytes) return false;
  // The ring's n-1 serial steps lose to the trees' log depth below the
  // measured ~1-2KB crossover; prune with margin.
  if (cfg.imod == "ring" && msg_bytes > 0 && msg_bytes < (4u << 10)) {
    return false;
  }
  // A deep in-flight window only pays off once the pipeline has enough
  // steps to overlap; on short pipelines it just duplicates window = 1.
  if (cfg.window > 1 && u > 0 && u < 4) return false;
  // Mid-level ladder knobs (docs/HIERARCHY.md). A zero-copy switchover far
  // above the segment size copies-in-copies-out even well-pipelined
  // messages; past 2*fs the zero-copy path always wins the bus.
  if (cfg.zcs > 0 && cfg.zcs > 2 * cfg.fs) return false;
  // The chain mid algorithm pipelines like the inter chain: it needs
  // enough segments to fill.
  if (cfg.malg == Algorithm::Chain && u > 0 && u < 4) return false;
  // Rail striping (docs/FABRIC.md): the reduce-scatter builders do not
  // stripe, and the ring inter module already drives its rail flat out per
  // step — sf > 1 there only duplicates sf = 1.
  if (cfg.sf > 1 &&
      (kind == CollKind::ReduceScatter || cfg.imod == "ring")) {
    return false;
  }
  // Striping wins bandwidth; slices under ~32KB pay sf plans' worth of
  // per-message latency for no transfer-time gain.
  if (cfg.sf > 1 &&
      cfg.fs / static_cast<std::size_t>(cfg.sf) < (32u << 10)) {
    return false;
  }
  return true;
}

SearchSpace SearchSpace::for_profile(const machine::MachineProfile& profile) {
  SearchSpace s;
  if (profile.numa_per_node > 1) {
    s.mid_algs = {Algorithm::Default, Algorithm::Binary};
    s.zc_switchovers = {0, 256 << 10};
  }
  if (profile.nics_per_node > 1) {
    // Divisors of the NIC count: non-divisor stripes leave rails idle in
    // the tail wrap-around for no bandwidth gain.
    for (int d = 1; d <= profile.nics_per_node; ++d) {
      if (profile.nics_per_node % d == 0) s.stripe_factors.push_back(d);
    }
  }
  return s;
}

Searcher::Searcher(mpi::SimWorld& world, core::HanModule& han,
                   const mpi::Comm& comm, SearchSpace space)
    : world_(&world),
      han_(&han),
      comm_(&comm),
      space_(std::move(space)),
      bench_(world, han, comm) {}

double Searcher::measure_collective(CollKind kind, std::size_t msg_bytes,
                                    const HanConfig& cfg, int iters) {
  // time_rounds issues with world ranks; they are comm_ ranks only on the
  // world communicator.
  HAN_ASSERT_MSG(comm_ == &world_->world_comm(),
                 "measure_collective times the world communicator only");
  // The vector kinds split msg_bytes into equal per-rank blocks, so the
  // whole vector is rounded to a multiple of the comm.
  const int n = comm_->size();
  const std::size_t block = std::max<std::size_t>(msg_bytes / n, 1);
  const BufView whole = BufView::timing_only(msg_bytes);
  const BufView one_block = BufView::timing_only(block);
  const BufView all_blocks = BufView::timing_only(block * n);
  const double before = world_->now();
  const std::vector<double> worst = mpi::time_rounds(
      *world_, iters, [&](int pr, int /*round*/) -> mpi::Request {
        switch (kind) {
          case CollKind::Bcast:
            return han_->ibcast_cfg(*comm_, pr, 0, whole, mpi::Datatype::Byte,
                                    cfg);
          case CollKind::Allreduce:
            return han_->iallreduce_cfg(*comm_, pr, whole, whole,
                                        mpi::Datatype::Byte,
                                        mpi::ReduceOp::Sum, cfg);
          case CollKind::Reduce:
            return han_->ireduce_cfg(*comm_, pr, 0, whole, whole,
                                     mpi::Datatype::Byte, mpi::ReduceOp::Sum,
                                     cfg);
          case CollKind::ReduceScatter:
            return han_->ireduce_scatter_cfg(*comm_, pr, all_blocks, one_block,
                                             mpi::Datatype::Byte,
                                             mpi::ReduceOp::Sum, cfg);
          // The linear-phase kinds take no Table II knobs; they run the
          // decider default path (han::lint measures them for the
          // cross-kind performance guidelines).
          case CollKind::Gather:
            return han_->igather(*comm_, pr, 0, one_block, all_blocks,
                                 coll::CollConfig{});
          case CollKind::Scatter:
            return han_->iscatter(*comm_, pr, 0, all_blocks, one_block,
                                  coll::CollConfig{});
          case CollKind::Allgather:
            return han_->iallgather(*comm_, pr, one_block, all_blocks,
                                    coll::CollConfig{});
          default:
            HAN_ASSERT_MSG(false, "unsupported kind in measure_collective");
            return mpi::Request();
        }
      });
  // Charge the measurement to the tuning budget via the bench's account.
  // (Exhaustive search cost = sum of real collective runs.)
  const double elapsed = world_->now() - before;
  bench_charge_ += elapsed;
  world_->metrics().counter("tune.search.measurements").add(1.0);
  world_->metrics().counter("tune.search.seconds").add(elapsed);

  double sum = 0.0;
  for (double w : worst) sum += w;
  return sum / iters;
}

SearchResult Searcher::exhaustive(CollKind kind, std::size_t msg_bytes,
                                  bool heuristics) {
  SearchResult result;
  const double cost0 = tuning_cost();
  for (const HanConfig& cfg : space_.enumerate(kind)) {
    const int u = static_cast<int>(
        (msg_bytes + cfg.fs - 1) / std::max<std::size_t>(cfg.fs, 1));
    if (heuristics && !heuristic_allows(cfg, kind, msg_bytes, u)) continue;
    const double t = measure_collective(kind, msg_bytes, cfg);
    result.all.push_back({cfg, t});
    ++result.evaluations;
    if (!result.best || t < result.best->time) {
      result.best = Evaluation{cfg, t};
    }
  }
  result.tuning_cost = tuning_cost() - cost0;
  return result;
}

const BcastTaskCosts& Searcher::bcast_costs(const HanConfig& cfg) {
  const ConfigKey key{cfg.to_string()};
  auto it = bcast_cache_.find(key);
  if (it != bcast_cache_.end()) return it->second;

  BcastTaskCosts costs;
  costs.ib0 = bench_.bench_ib(cfg, cfg.fs);
  costs.sb0 = bench_.bench_sb(cfg, cfg.fs);
  // The delayed-start sbib benchmark (red bars of Fig. 2): enough steps to
  // pass the pipeline fill (Fig. 3 shows stabilization within ~4 steps).
  const PipelineTrace trace =
      bench_.bench_sbib_pipeline(cfg, cfg.fs, /*steps=*/8, costs.ib0);
  costs.sbib_stable = trace.stabilized();
  return bcast_cache_.emplace(key, std::move(costs)).first->second;
}

const AllreduceTaskCosts& Searcher::allreduce_costs(const HanConfig& cfg) {
  const ConfigKey key{cfg.to_string()};
  auto it = allreduce_cache_.find(key);
  if (it != allreduce_cache_.end()) return it->second;
  const PipelineTrace trace =
      bench_.bench_allreduce_pipeline(cfg, cfg.fs, /*steps=*/8);
  return allreduce_cache_
      .emplace(key, AllreduceTaskCosts::from_trace(trace))
      .first->second;
}

const ReduceScatterTaskCosts& Searcher::reduce_scatter_costs(
    const HanConfig& cfg) {
  const ConfigKey key{cfg.to_string()};
  auto it = reduce_scatter_cache_.find(key);
  if (it != reduce_scatter_cache_.end()) return it->second;

  ReduceScatterTaskCosts costs;
  const std::size_t fs = std::max<std::size_t>(cfg.fs, 1);
  // Two-point samples pin the affine size axis of each tail task.
  const std::size_t b1 = fs;
  const std::size_t b2 = 4 * fs;
  costs.intra_scatter = AffineFit::from_points(
      b1, bench_.bench_intra_scatter(cfg, b1).max(), b2,
      bench_.bench_intra_scatter(cfg, b2).max());
  if (cfg.imod == "ring") {
    costs.intra_reduce =
        AffineFit::from_points(b1, bench_.bench_sr(cfg, b1).max(), b2,
                               bench_.bench_sr(cfg, b2).max());
    costs.inter_ring = AffineFit::from_points(
        b1, bench_.bench_inter_ring_rs(cfg, b1).max(), b2,
        bench_.bench_inter_ring_rs(cfg, b2).max());
  } else {
    const PipelineTrace trace =
        bench_.bench_reduce_pipeline(cfg, fs, /*steps=*/6);
    costs.sr0 = trace.steps.front();
    costs.irsr_stable = PipelineTrace{{trace.steps.begin() + 1,
                                       trace.steps.end() - 1}}
                            .stabilized();
    costs.ir_tail = trace.steps.back();
    costs.inter_scatter = AffineFit::from_points(
        b1, bench_.bench_inter_scatter(cfg, b1).max(), b2,
        bench_.bench_inter_scatter(cfg, b2).max());
  }
  return reduce_scatter_cache_.emplace(key, std::move(costs)).first->second;
}

const MidTaskCosts& Searcher::mid_costs(const HanConfig& cfg) {
  const ConfigKey key{cfg.to_string()};
  auto it = mid_cache_.find(key);
  if (it != mid_cache_.end()) return it->second;

  MidTaskCosts costs;
  costs.mb = bench_.bench_mb(cfg, cfg.fs);
  costs.mr = bench_.bench_mr(cfg, cfg.fs);
  return mid_cache_.emplace(key, std::move(costs)).first->second;
}

void Searcher::prepare(CollKind kind, bool heuristics) {
  for (const HanConfig& cfg : space_.enumerate(kind)) {
    if (heuristics && !heuristic_allows(cfg, kind, 0, 0)) continue;
    if (kind == CollKind::Bcast) {
      bcast_costs(cfg);
    } else if (kind == CollKind::ReduceScatter) {
      reduce_scatter_costs(cfg);
    } else {
      allreduce_costs(cfg);
    }
    // Ladders with a mid level also need the solo mid task costs, so that
    // estimate() stays measurement-free.
    if (kind != CollKind::ReduceScatter && priced_depth(cfg) > 2) {
      mid_costs(cfg);
    }
  }
}

SearchResult Searcher::estimate(CollKind kind, std::size_t msg_bytes,
                                bool heuristics) {
  SearchResult result;
  for (const HanConfig& cfg : space_.enumerate(kind)) {
    const int u = static_cast<int>(
        (msg_bytes + cfg.fs - 1) / std::max<std::size_t>(cfg.fs, 1));
    if (heuristics && !heuristic_allows(cfg, kind, msg_bytes, u)) continue;
    const double t = estimate_config(kind, msg_bytes, cfg);
    result.all.push_back({cfg, t});
    ++result.evaluations;
    if (!result.best || t < result.best->time) {
      result.best = Evaluation{cfg, t};
    }
  }
  return result;
}

double Searcher::estimate_config(CollKind kind, std::size_t msg_bytes,
                                 const HanConfig& cfg) {
  // The model walks the lock-step pipeline only.
  HAN_ASSERT(cfg.window == 1);
  const int u = std::max<int>(
      1, static_cast<int>((msg_bytes + cfg.fs - 1) /
                          std::max<std::size_t>(cfg.fs, 1)));
  if (kind == CollKind::ReduceScatter) {
    core::Hierarchy& hc = han_->flat_hierarchy(*comm_);
    return reduce_scatter_model_cost(reduce_scatter_costs(cfg), cfg,
                                     msg_bytes, hc.node_count(),
                                     hc.max_ppn());
  }
  // Flat task costs first, then the mid ones — prepare()'s benchmark order.
  const int depth = priced_depth(cfg);
  if (kind == CollKind::Bcast) {
    const BcastTaskCosts& costs = bcast_costs(cfg);
    return bcast_model_cost(costs, u, depth,
                            depth > 2 ? &mid_costs(cfg) : nullptr);
  }
  HAN_ASSERT(kind == CollKind::Allreduce);
  const AllreduceTaskCosts& costs = allreduce_costs(cfg);
  return allreduce_model_cost(costs, u, depth,
                              depth > 2 ? &mid_costs(cfg) : nullptr);
}

int Searcher::priced_depth(const HanConfig& cfg) {
  // The ladder the builders run, not the descriptor's: a dead mid level is
  // spliced away (Hierarchy::live_levels), and a collapsed one-node ladder
  // is priced as the flat pipeline.
  const int live = static_cast<int>(
      han_->ladder_for(*comm_, cfg).live_levels().size());
  return std::max(2, live);
}

}  // namespace han::tune
