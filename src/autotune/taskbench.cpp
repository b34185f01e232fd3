#include "autotune/taskbench.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "han/task/scheduler.hpp"
#include "han/task/shapes.hpp"
#include "han/task/stripe.hpp"

namespace han::tune {

using coll::CollConfig;
using core::HanConfig;
using mpi::BufView;
using task::Level;
using task::Op;
using task::TaskNode;

double PerLeader::max() const {
  HAN_ASSERT(!t.empty());
  return *std::max_element(t.begin(), t.end());
}

double PerLeader::avg() const {
  HAN_ASSERT(!t.empty());
  return std::accumulate(t.begin(), t.end(), 0.0) /
         static_cast<double>(t.size());
}

PerLeader PipelineTrace::stabilized(int tail) const {
  HAN_ASSERT(!steps.empty());
  const int n = static_cast<int>(steps.size());
  const int from = std::max(0, n - tail);
  PerLeader out;
  out.t.assign(steps[0].t.size(), 0.0);
  for (int i = from; i < n; ++i) {
    for (std::size_t l = 0; l < out.t.size(); ++l) out.t[l] += steps[i].t[l];
  }
  for (double& v : out.t) v /= static_cast<double>(n - from);
  return out;
}

TaskBench::TaskBench(mpi::SimWorld& world, core::HanModule& han,
                     const mpi::Comm& comm)
    : world_(&world), han_(&han), comm_(&comm) {
  leaders_ = han.flat_hierarchy(comm).node_count();
}

namespace {

/// A benchmarked task: `op` on `level` through `mod` under `cfg`, in `sf`
/// rail slices. The runner fills in the communicator, ranks and buffers.
TaskNode task_of(Op op, Level level, coll::CollModule* mod,
                 CollConfig cfg = {}, int sf = 1) {
  TaskNode n;
  n.op = op;
  n.level = level;
  n.mod = mod;
  n.cfg = cfg;
  n.sf = sf;
  return n;
}

/// The intra-node task `op` of `cfg`: its submodule under CollConfig{}.
TaskNode intra(core::HanModule& han, const HanConfig& cfg, Op op) {
  return task_of(op, Level::Intra, han.intra_module(cfg));
}

/// The inter-node task `op` of `cfg` under `icfg`, striped as the
/// builders stripe it, so the composite task costs the model reuses
/// already price the configured sf.
TaskNode inter(core::HanModule& han, const HanConfig& cfg, Op op,
               CollConfig icfg) {
  return task_of(op, Level::Inter, han.inter_module(cfg), icfg, cfg.sf);
}

/// The mid-level task `op` of `cfg`, mirroring task/builders.cpp's
/// ladder_module for a mid level: the shared submodule, or the
/// copy-in-copy-out p2p module under the zero-copy switchover.
TaskNode mid(core::HanModule& han, const HanConfig& cfg, Op op,
             std::size_t seg_bytes) {
  coll::CollModule* mod = cfg.zcs > 0 && seg_bytes < cfg.zcs
                              ? &han.modules().libnbc()
                              : han.intra_module(cfg);
  return task_of(op, Level::Mid, mod, {cfg.malg, cfg.ms});
}

/// Folds `v` into the hash `h` (the boost hash_combine step, 64-bit).
void mix(std::size_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

/// Mean over the iterations of a one-step benchmark.
PerLeader mean(const PipelineTrace& trace) {
  return trace.stabilized(static_cast<int>(trace.steps.size()));
}

}  // namespace

std::size_t TaskBench::RunKeyHash::operator()(const RunKey& k) const {
  // The fields the benchmarks vary; equality still compares every field.
  std::size_t h = std::hash<const void*>{}(k.hc);
  mix(h, k.bytes);
  mix(h, static_cast<std::uint64_t>(k.u) << 32 |
             static_cast<std::uint32_t>(k.iters));
  for (const Stage& s : k.stages) {
    const TaskNode& n = s.node;
    mix(h, static_cast<std::uint64_t>(n.op) << 8 |
               static_cast<std::uint64_t>(n.level));
    mix(h, std::hash<const void*>{}(n.mod));
    mix(h, static_cast<std::uint64_t>(n.cfg.alg));
    mix(h, n.cfg.segment);
    mix(h, static_cast<std::uint64_t>(n.cfg.rail) << 32 |
               static_cast<std::uint32_t>(n.sf));
    mix(h, static_cast<std::uint64_t>(s.lag));
  }
  if (k.delay_bits) {
    for (std::uint64_t b : *k.delay_bits) mix(h, b);
  }
  return h;
}

PipelineTrace TaskBench::run(const core::Hierarchy& hc,
                             const std::vector<Stage>& stages,
                             std::size_t bytes, int u, int iters,
                             const PerLeader* delay_by) {
  RunKey key{&hc, stages, bytes, u, iters, std::nullopt};
  if (delay_by != nullptr) {
    key.delay_bits.emplace(delay_by->t.size());
    std::transform(delay_by->t.begin(), delay_by->t.end(),
                   key.delay_bits->begin(),
                   [](double d) { return std::bit_cast<std::uint64_t>(d); });
  }
  if (auto hit = memo_.find(key); hit != memo_.end()) {
    world_->metrics().counter("tune.taskbench.reused").add(1.0);
    PipelineTrace out;
    out.steps.reserve(hit->second.size() / static_cast<std::size_t>(leaders_));
    for (auto it = hit->second.begin(); it != hit->second.end();
         it += leaders_) {
      out.steps.push_back(PerLeader{std::vector<double>(it, it + leaders_)});
    }
    return out;
  }

  // What every rank's program reads and writes; it outlives them all,
  // since world_->run returns once every rank has finished.
  struct Job {
    TaskBench& tb;
    const core::Hierarchy& hc;
    const std::vector<Stage>& stages;
    std::size_t bytes;
    int u, steps, iters;
    const PerLeader* delay_by;
    mpi::SyncDomain sync;
    PipelineTrace out;
  };
  int max_lag = 0;
  for (const Stage& s : stages) max_lag = std::max(max_lag, s.lag);
  Job job{*this, hc, stages, bytes, u, u + max_lag, iters, delay_by,
          mpi::SyncDomain(world_->engine(), comm_->size()), {}};
  job.out.steps.assign(static_cast<std::size_t>(iters) * job.steps,
                       PerLeader{std::vector<double>(leaders_, 0.0)});

  const double before = world_->now();
  world_->run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](Job& r, int pr) -> sim::CoTask {
      sim::Engine& engine = r.tb.world().engine();
      const int top = r.hc.depth() - 1;
      const bool recorder = r.hc.leader_below(top, pr);
      // This rank's node of every stage; a null comm where it sits out.
      std::vector<TaskNode> nodes;
      for (const Stage& s : r.stages) {
        TaskNode n = s.node;
        const int l = n.level == Level::Intra ? 0
                      : n.level == Level::Mid ? 1
                                              : top;
        const mpi::Comm* c = r.hc.comm(l, pr);
        if (n.level == Level::Intra ||
            (n.level == Level::Inter ? recorder
                                     : c != nullptr && c->size() >= 2)) {
          const bool split = n.op == Op::Scatter || n.op == Op::ReduceScatter;
          n.comm = c;
          n.me = r.hc.rank(l, pr);
          n.send = BufView::timing_only(r.bytes);
          n.recv = BufView::timing_only(split ? r.bytes / c->size() : r.bytes);
          n.sf = task::effective_sf(n.sf, r.tb.world().profile(), r.bytes,
                                    mpi::Datatype::Byte);
        }
        nodes.push_back(std::move(n));
      }
      std::vector<mpi::Request> reqs;
      for (int it = 0; it < r.iters; ++it) {
        co_await *r.sync.arrive();
        if (recorder && r.delay_by != nullptr) {
          // Reproduce the staggered entry after ib(0): the paper's key
          // benchmarking correction (Fig. 2, red bars).
          co_await sim::Delay{engine, r.delay_by->t[r.hc.rank(top, pr)]};
        }
        for (int t = 0; t < r.steps; ++t) {
          const double t0 = r.tb.world().now();
          reqs.clear();
          for (std::size_t s = 0; s < nodes.size(); ++s) {
            const int seg = t - r.stages[s].lag;
            if (nodes[s].comm != nullptr && seg >= 0 && seg < r.u) {
              reqs.push_back(task::dispatch(engine, nodes[s]));
            }
          }
          if (reqs.empty()) continue;
          if (reqs.size() == 1) {
            co_await *reqs.front();
          } else {
            co_await mpi::wait_all(engine, std::move(reqs));
          }
          if (recorder) {
            r.out.steps[it * r.steps + t].t[r.hc.rank(top, pr)] =
                r.tb.world().now() - t0;
          }
        }
      }
    }(job, rank.world_rank);
  });
  const double elapsed = world_->now() - before;
  cost_ += elapsed;
  world_->metrics().counter("tune.taskbench.runs").add(1.0);
  world_->metrics().counter("tune.taskbench.seconds").add(elapsed);
  std::vector<double>& flat = memo_[std::move(key)];
  flat.reserve(job.out.steps.size() * static_cast<std::size_t>(leaders_));
  for (const PerLeader& step : job.out.steps) {
    flat.insert(flat.end(), step.t.begin(), step.t.end());
  }
  return std::move(job.out);
}

PipelineTrace TaskBench::allreduce_chain(const HanConfig& cfg,
                                         std::size_t seg_bytes, int steps,
                                         int count) {
  std::vector<Stage> stages;
  for (const task::StageSpec& s : task::ladder_stages(
           synth::SynthSpec::canonical(coll::CollKind::Allreduce).stages,
           synth::kFlatTiers)) {
    if (static_cast<int>(stages.size()) == count) break;
    const CollConfig icfg{cfg.iralg, s.op == Op::Reduce ? cfg.irs : cfg.ibs};
    stages.push_back({s.level == Level::Intra ? intra(*han_, cfg, s.op)
                                              : inter(*han_, cfg, s.op, icfg),
                      s.lag});
  }
  return run(han_->flat_hierarchy(*comm_), stages, seg_bytes, steps, 1);
}

PerLeader TaskBench::bench_ib(const HanConfig& cfg, std::size_t seg_bytes,
                              int iters) {
  const CollConfig icfg{cfg.ibalg, cfg.ibs};
  return mean(run(han_->flat_hierarchy(*comm_),
                  {{inter(*han_, cfg, Op::Bcast, icfg)}}, seg_bytes, 1,
                  iters));
}

PerLeader TaskBench::bench_sb(const HanConfig& cfg, std::size_t seg_bytes,
                              int iters) {
  return mean(run(han_->flat_hierarchy(*comm_),
                  {{intra(*han_, cfg, Op::Bcast)}}, seg_bytes, 1, iters));
}

PerLeader TaskBench::bench_concurrent_ib_sb(const HanConfig& cfg,
                                            std::size_t seg_bytes,
                                            int iters) {
  const CollConfig icfg{cfg.ibalg, cfg.ibs};
  return mean(run(han_->flat_hierarchy(*comm_),
                  {{intra(*han_, cfg, Op::Bcast)},
                   {inter(*han_, cfg, Op::Bcast, icfg)}},
                  seg_bytes, 1, iters));
}

PipelineTrace TaskBench::bench_sbib_pipeline(const HanConfig& cfg,
                                             std::size_t seg_bytes,
                                             int steps,
                                             const PerLeader& delay_by) {
  const CollConfig icfg{cfg.ibalg, cfg.ibs};
  return run(han_->flat_hierarchy(*comm_),
             {{intra(*han_, cfg, Op::Bcast)},
              {inter(*han_, cfg, Op::Bcast, icfg)}},
             seg_bytes, steps, 1, &delay_by);
}

PerLeader TaskBench::bench_sr(const HanConfig& cfg, std::size_t seg_bytes,
                              int iters) {
  return mean(run(han_->flat_hierarchy(*comm_),
                  {{intra(*han_, cfg, Op::Reduce)}}, seg_bytes, 1, iters));
}

PerLeader TaskBench::bench_mb(const HanConfig& cfg, std::size_t seg_bytes,
                              int iters) {
  const core::Hierarchy& hc = han_->ladder_for(*comm_, cfg);
  HAN_ASSERT_MSG(hc.depth() >= 3, "bench_mb needs a mid ladder level");
  return mean(run(hc, {{mid(*han_, cfg, Op::Bcast, seg_bytes)}}, seg_bytes,
                  1, iters));
}

PerLeader TaskBench::bench_mr(const HanConfig& cfg, std::size_t seg_bytes,
                              int iters) {
  const core::Hierarchy& hc = han_->ladder_for(*comm_, cfg);
  HAN_ASSERT_MSG(hc.depth() >= 3, "bench_mr needs a mid ladder level");
  return mean(run(hc, {{mid(*han_, cfg, Op::Reduce, seg_bytes)}}, seg_bytes,
                  1, iters));
}

PipelineTrace TaskBench::bench_allreduce_pipeline(const HanConfig& cfg,
                                                  std::size_t seg_bytes,
                                                  int steps) {
  return allreduce_chain(cfg, seg_bytes, steps, 4);
}

PipelineTrace TaskBench::bench_reduce_pipeline(const HanConfig& cfg,
                                               std::size_t seg_bytes,
                                               int steps) {
  return allreduce_chain(cfg, seg_bytes, steps, 2);  // sr, ir
}

PerLeader TaskBench::bench_inter_scatter(const HanConfig& cfg,
                                         std::size_t bytes, int iters) {
  return mean(run(han_->flat_hierarchy(*comm_),
                  {{task_of(Op::Scatter, Level::Inter,
                            han_->inter_module(cfg))}},
                  bytes, 1, iters));
}

PerLeader TaskBench::bench_inter_ring_rs(const HanConfig& cfg,
                                         std::size_t bytes, int iters) {
  return mean(run(han_->flat_hierarchy(*comm_),
                  {{task_of(Op::ReduceScatter, Level::Inter,
                            &han_->modules().ring(),
                            {coll::Algorithm::Ring, cfg.irs})}},
                  bytes, 1, iters));
}

PerLeader TaskBench::bench_intra_scatter(const HanConfig& cfg,
                                         std::size_t bytes, int iters) {
  (void)cfg;  // ss always uses the libnbc intra scatter, as the program does
  return mean(run(han_->flat_hierarchy(*comm_),
                  {{task_of(Op::Scatter, Level::Intra,
                            &han_->modules().libnbc())}},
                  bytes, 1, iters));
}

}  // namespace han::tune
