#include "autotune/costmodel.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <vector>

#include "han/synth/spec.hpp"
#include "han/task/shapes.hpp"

namespace han::tune {

namespace {

using synth::SynthSpec;

// Stage-role bits forming a step signature during a symbolic walk: bit
// 1 << chain_pos(role). The model steps the SAME canonical chain the
// graph builders run (synth::canonical_chain): each pipeline step
// collapses to the set of stages active in it, and the signature selects
// the benchmarked task cost for that step — no per-kind closed forms to
// drift from the executor.
constexpr unsigned bit(std::string_view role) {
  return 1u << synth::chain_pos(role);
}
constexpr unsigned kSr = bit("sr"), kIr = bit("ir"), kIb = bit("ib"),
                   kSb = bit("sb"), kMid = bit("mr") | bit("mb");

/// Collapse the stepped pipeline to per-step signatures, in step order.
/// Empty steps are dropped — the TaskScheduler's frontier skips them too.
std::vector<unsigned> step_signatures(
    const std::vector<synth::StageSlot>& chain, int u) {
  std::vector<unsigned> sig(
      static_cast<std::size_t>(task::shape_steps(chain, u)));
  task::for_each_task(chain, u, [&](int t, const synth::StageSlot& s, int) {
    sig[static_cast<std::size_t>(t)] |= bit(s.role);
  });
  std::erase(sig, 0u);
  return sig;
}

/// Walk the signature sequence in the TaskScheduler's lock-step pipeline:
/// the serial sum of the step costs (exact — runs of equal signatures are
/// multiplied out, reproducing the paper's eq. 3/4 arithmetic bit for
/// bit). Collective cost = the slowest leader's walk.
template <typename CostOf>
double walk_cost(const std::vector<unsigned>& sig, const CostOf& cost_of) {
  if (sig.empty()) return 0.0;
  const std::size_t leaders = cost_of(sig[0]).t.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < leaders; ++i) {
    double total = 0.0;
    for (std::size_t s = 0; s < sig.size();) {
      std::size_t run = s + 1;
      while (run < sig.size() && sig[run] == sig[s]) ++run;
      total += static_cast<double>(run - s) * cost_of(sig[s]).t[i];
      s = run;
    }
    worst = std::max(worst, total);
  }
  return worst;
}

/// Benchmarked composite for the flat sr/ir/ib/sb part of a signature.
const PerLeader& flat_bcast_cost(const BcastTaskCosts& costs, unsigned m) {
  switch (m) {
    case kIb: return costs.ib0;
    case kIb | kSb: return costs.sbib_stable;
    default: return costs.sb0;  // kSb
  }
}

const PerLeader& flat_allreduce_cost(const AllreduceTaskCosts& costs,
                                     unsigned m) {
  switch (m) {
    case kSr: return costs.sr0;
    case kSr | kIr: return costs.irsr;
    case kSr | kIr | kIb: return costs.ibirsr;
    case kSr | kIr | kIb | kSb: return costs.sbibirsr_stable;
    // Drain: for tiny u the drain tasks approximate the remaining
    // ir/ib/sb of the last segments.
    case kIr | kIb | kSb:
    case kIr | kIb:
    case kIr: return costs.sbibir;
    case kIb | kSb:
    case kIb: return costs.sbib;
    default: return costs.sb;  // kSb
  }
}

/// Walk `kind`'s canonical chain on a depth-2 (flat) or depth-3 (NUMA)
/// ladder. A step costs the benchmarked composite of its sr/ir/ib/sb
/// stages; a step with a mid stage adds `mid_solo` — mid stages ride the
/// (slower, cross-domain) memory bus rather than the NIC, so no overlap
/// with the inter stage is assumed. Depth 2 has no mid steps and is eq.
/// 3/4 exactly.
template <typename FlatCost>
double ladder_walk(coll::CollKind kind, int depth, int u,
                   const FlatCost& flat_cost, const PerLeader* mid_solo) {
  HAN_ASSERT((depth == 2 || depth == 3) && u >= 1);
  const std::vector<unsigned> sig = step_signatures(
      (depth == 2 ? SynthSpec::canonical(kind) : SynthSpec::canonical3(kind))
          .stages,
      u);
  // Mid-carrying signatures, priced once: the flat composite of the
  // sr/ir/ib/sb bits (zero when a step is mid-only) plus the solo mid cost.
  std::map<unsigned, PerLeader> mid_steps;
  for (unsigned m : sig) {
    if ((m & kMid) == 0 || mid_steps.count(m) != 0) continue;
    PerLeader c;
    if ((m & ~kMid) != 0) {
      c = flat_cost(m & ~kMid);
    } else {
      c.t.assign(mid_solo->t.size(), 0.0);
    }
    HAN_ASSERT(c.t.size() == mid_solo->t.size());
    for (std::size_t i = 0; i < c.t.size(); ++i) c.t[i] += mid_solo->t[i];
    mid_steps.emplace(m, std::move(c));
  }
  return walk_cost(sig, [&](unsigned m) -> const PerLeader& {
    return (m & kMid) != 0 ? mid_steps.at(m) : flat_cost(m);
  });
}

}  // namespace

double bcast_model_cost(const BcastTaskCosts& costs, int u, int depth,
                        const MidTaskCosts* mid) {
  // Depth 2: ib(0); sbib(1..u-1); sb(u-1) — eq. 3 falls out of the walk.
  return ladder_walk(
      coll::CollKind::Bcast, depth, u,
      [&](unsigned m) -> const PerLeader& {
        return flat_bcast_cost(costs, m);
      },
      depth > 2 ? &mid->mb : nullptr);
}

AllreduceTaskCosts AllreduceTaskCosts::from_trace(const PipelineTrace& trace) {
  const int n = static_cast<int>(trace.steps.size());
  HAN_ASSERT_MSG(n >= 7, "allreduce trace needs >= 4 pipeline steps + tail");
  AllreduceTaskCosts c;
  c.sr0 = trace.steps[0];
  c.irsr = trace.steps[1];
  c.ibirsr = trace.steps[2];
  // Stabilized steady-state cost: average the middle steps, skipping the
  // first steady step (pipeline still filling) and the 3 drain steps.
  PerLeader mid;
  mid.t.assign(c.sr0.t.size(), 0.0);
  int count = 0;
  for (int i = 4; i < n - 3; ++i) {
    for (std::size_t l = 0; l < mid.t.size(); ++l) {
      mid.t[l] += trace.steps[i].t[l];
    }
    ++count;
  }
  if (count == 0) {
    mid = trace.steps[3];  // minimal trace: take the one steady step
  } else {
    for (double& v : mid.t) v /= count;
  }
  c.sbibirsr_stable = mid;
  c.sbibir = trace.steps[n - 3];
  c.sbib = trace.steps[n - 2];
  c.sb = trace.steps[n - 1];
  return c;
}

AffineFit AffineFit::from_points(std::size_t b1, double t1, std::size_t b2,
                                 double t2) {
  AffineFit f;
  if (b2 == b1) {
    f.base = t1;
    return f;
  }
  f.per_byte = (t2 - t1) / (static_cast<double>(b2) - static_cast<double>(b1));
  f.base = t1 - f.per_byte * static_cast<double>(b1);
  // A negative intercept can fall out of noisy two-point sampling; clamp so
  // extrapolation to tiny sizes stays sane.
  if (f.base < 0.0) f.base = 0.0;
  return f;
}

double reduce_scatter_model_cost(const ReduceScatterTaskCosts& costs,
                                 const core::HanConfig& cfg,
                                 std::size_t msg_bytes, int nodes, int ppn) {
  HAN_ASSERT(nodes >= 1 && ppn >= 1);
  const std::size_t m = std::max<std::size_t>(msg_bytes, 1);
  const std::size_t region = std::max<std::size_t>(m / nodes, 1);
  const bool has_intra = ppn > 1;
  const std::size_t fs = std::max<std::size_t>(cfg.fs, 1);

  if (cfg.imod == "ring") {
    if (!has_intra) return costs.inter_ring.at(m);
    // Walk the same slice sequence the builder emits: nodes intra reduces
    // per slice (serial), each slice's strided ring hidden behind the next
    // slice's reduces; the last ring and the ss tail cannot overlap.
    double t = 0.0;
    std::size_t last_len = 0;
    task::for_each_ring_slice(
        region, fs, mpi::Datatype::Byte,
        [&](int /*k*/, std::size_t /*off*/, std::size_t len) {
          t += static_cast<double>(nodes) * costs.intra_reduce.at(len);
          last_len = len;
        });
    return t + costs.inter_ring.at(static_cast<std::size_t>(nodes) * last_len) +
           costs.intra_scatter.at(region);
  }

  // Tree path: the flat reduce chain (sr ⊕ ir), then the inter scatter
  // and ss.
  const int u = static_cast<int>((m + fs - 1) / fs);
  std::vector<synth::StageSlot> chain =
      SynthSpec::canonical(coll::CollKind::Reduce).stages;
  if (!has_intra) {
    std::erase_if(chain,
                  [](const synth::StageSlot& s) { return s.role == "sr"; });
  }
  const std::vector<unsigned> sig = step_signatures(chain, u);
  const double pipeline =
      walk_cost(sig, [&](unsigned s) -> const PerLeader& {
        switch (s) {
          case kSr: return costs.sr0;
          case kSr | kIr: return costs.irsr_stable;
          default: return costs.ir_tail;  // kIr
        }
      });
  return pipeline + costs.inter_scatter.at(m) +
         (has_intra ? costs.intra_scatter.at(region) : 0.0);
}

double allreduce_model_cost(const AllreduceTaskCosts& costs, int u,
                            int depth, const MidTaskCosts* mid) {
  // The mid reduce and mid bcast lanes of one step share the cross-domain
  // bus like concurrent mids do; one averaged solo cost prices both.
  PerLeader mid_solo;
  if (depth > 2) {
    HAN_ASSERT(mid->mr.t.size() == mid->mb.t.size());
    mid_solo.t.assign(mid->mr.t.size(), 0.0);
    for (std::size_t i = 0; i < mid_solo.t.size(); ++i) {
      mid_solo.t[i] = 0.5 * (mid->mr.t[i] + mid->mb.t[i]);
    }
  }
  // Depth 2: sr(0); irsr; ibirsr; sbibirsr(3..u-1); sbibir; sbib; sb —
  // eq. 4.
  return ladder_walk(
      coll::CollKind::Allreduce, depth, u,
      [&](unsigned m) -> const PerLeader& {
        return flat_allreduce_cost(costs, m);
      },
      &mid_solo);
}

}  // namespace han::tune
