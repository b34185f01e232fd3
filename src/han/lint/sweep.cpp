// The lint sweep driver: model.* / sim.* / perturb.* case families over
// the stock machines, plus the audit mode for saved tables. Deterministic
// by the same contract as han::verify — independent jobs (own worlds),
// fragments merged in input order, entries sorted by name.
#include "han/lint/lint.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "autotune/search.hpp"
#include "coll/registry.hpp"
#include "han/han.hpp"
#include "machine/machine.hpp"
#include "parallel/pool.hpp"
#include "simbase/rng.hpp"

namespace han::lint {

namespace {

using coll::CollKind;
using core::HanConfig;

double hooked(const LintOptions& opts, const CostContext& ctx, double t) {
  return opts.cost_hook ? opts.cost_hook(ctx, t) : t;
}

CostContext model_ctx(const machine::MachineProfile& p, CollKind kind,
                      std::size_t bytes, const HanConfig* cfg) {
  CostContext c;
  c.kind = kind;
  c.bytes = bytes;
  c.cfg = cfg;
  c.simulated = false;
  c.nodes = p.nodes;
  c.ppn = p.procs_per_node;
  return c;
}

CostContext sim_ctx(const machine::MachineProfile& p, CollKind kind,
                    std::size_t bytes, const HanConfig* cfg) {
  CostContext c = model_ctx(p, kind, bytes, cfg);
  c.simulated = true;
  return c;
}

std::string at_bytes(const std::string& what, std::size_t bytes) {
  return what + " @ " + std::to_string(bytes) + "B";
}

void add_finding(LintEntry& e, const char* gid, std::string witness_a,
                 std::string witness_b, double lhs, double rhs,
                 double margin, std::string message) {
  const Guideline& g = guideline(gid);
  Finding f;
  f.guideline = gid;
  f.code = g.diag;
  f.severity = g.severity;
  f.witness_a = std::move(witness_a);
  f.witness_b = std::move(witness_b);
  f.lhs = lhs;
  f.rhs = rhs;
  f.margin = margin;
  f.message = std::move(message);
  if (f.severity == Severity::Error) {
    ++e.errors;
  } else {
    ++e.warnings;
  }
  e.findings.push_back(std::move(f));
}

/// lhs <= rhs * (1 + tolerance), recorded against guideline `gid`.
void check_upper_bound(LintEntry& e, const char* gid,
                       const std::string& witness_a,
                       const std::string& witness_b, double lhs,
                       double rhs) {
  ++e.checks;
  const double tol = guideline(gid).tolerance;
  if (rhs <= 0.0 || lhs <= rhs * (1.0 + tol)) return;
  const double margin = lhs / rhs - 1.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f (tolerance %.3f)", margin, tol);
  add_finding(e, gid, witness_a, witness_b, lhs, rhs, margin,
              witness_a + " exceeds " + witness_b + " by " + buf);
}

// ---- model.* family -----------------------------------------------------

/// Model costs of every heuristic-allowed config at every band, plus the
/// cross-band guideline checks (monotonicity, hysteresis) and the
/// HAN-specific probes (zcs continuity, stripe regression).
void model_kind_job(LintResult& out, const machine::StockMachine& sm,
                    CollKind kind, const LintOptions& opts) {
  core::HanWorld lw(sm.profile);
  const mpi::Comm& wc = lw.world.world_comm();
  tune::SearchSpace space = tune::SearchSpace::for_profile(sm.profile);
  tune::Searcher searcher(lw.world, lw.han, wc, space);
  const std::string base =
      std::string("model.") + sm.name + "." + coll::coll_kind_name(kind);

  const auto eval = [&](std::size_t bytes, const HanConfig& cfg) {
    return hooked(opts, model_ctx(sm.profile, kind, bytes, &cfg),
                  searcher.estimate_config(kind, bytes, cfg));
  };

  // Cost grid: configs x bands; NaN where the heuristics prune.
  const std::vector<HanConfig> configs = space.enumerate(kind);
  const double kPruned = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> grid(
      configs.size(), std::vector<double>(opts.sizes.size(), kPruned));
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    for (std::size_t bi = 0; bi < opts.sizes.size(); ++bi) {
      const std::size_t m = opts.sizes[bi];
      const HanConfig& cfg = configs[ci];
      const int u = static_cast<int>(
          (m + cfg.fs - 1) / std::max<std::size_t>(cfg.fs, 1));
      if (!tune::heuristic_allows(cfg, kind, m, u)) continue;
      grid[ci][bi] = eval(m, cfg);
    }
  }

  LintEntry entry;
  entry.name = base;

  // mono.size.model: each config's cost curve is nondecreasing across
  // its allowed bands.
  const double mono_tol = guideline("mono.size.model").tolerance;
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    int prev = -1;
    for (std::size_t bi = 0; bi < opts.sizes.size(); ++bi) {
      if (std::isnan(grid[ci][bi])) continue;
      if (prev >= 0) {
        ++entry.checks;
        const double t1 = grid[ci][static_cast<std::size_t>(prev)];
        const double t2 = grid[ci][bi];
        if (t2 < t1 * (1.0 - mono_tol)) {
          const std::string cs = configs[ci].to_string();
          add_finding(
              entry, "mono.size.model", at_bytes(cs, opts.sizes[bi]),
              at_bytes(cs, opts.sizes[static_cast<std::size_t>(prev)]), t2,
              t1, t1 > 0.0 ? 1.0 - t2 / t1 : 0.0,
              "model cost drops from " + std::to_string(t1) + "s to " +
                  std::to_string(t2) + "s as '" + cs + "' grows " +
                  std::to_string(opts.sizes[static_cast<std::size_t>(prev)]) +
                  "B -> " + std::to_string(opts.sizes[bi]) + "B");
        }
      }
      prev = static_cast<int>(bi);
    }
  }

  // Band winners (first strictly-best in enumeration order — stable for
  // exact ties) feed the hysteresis checks.
  std::vector<int> winner(opts.sizes.size(), -1);
  for (std::size_t bi = 0; bi < opts.sizes.size(); ++bi) {
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      if (std::isnan(grid[ci][bi])) continue;
      if (winner[bi] < 0 ||
          grid[ci][bi] < grid[static_cast<std::size_t>(winner[bi])][bi]) {
        winner[bi] = static_cast<int>(ci);
      }
    }
  }

  // hyst.boundary: a winner flip between adjacent bands must carry the
  // hysteresis margin at the flipping band (the old winner being pruned
  // there justifies the flip outright).
  for (std::size_t bi = 1; bi < opts.sizes.size(); ++bi) {
    const int a = winner[bi - 1];
    const int b = winner[bi];
    if (a < 0 || b < 0 || a == b) continue;
    ++entry.checks;
    const double old_here = grid[static_cast<std::size_t>(a)][bi];
    const double new_here = grid[static_cast<std::size_t>(b)][bi];
    if (std::isnan(old_here) || new_here <= 0.0) continue;
    const double margin = old_here / new_here - 1.0;
    if (margin < opts.hysteresis) {
      add_finding(
          entry, "hyst.boundary",
          at_bytes(configs[static_cast<std::size_t>(b)].to_string(),
                   opts.sizes[bi]),
          at_bytes(configs[static_cast<std::size_t>(a)].to_string(),
                   opts.sizes[bi]),
          new_here, old_here, margin,
          "winner flips on a " + std::to_string(margin) +
              " relative margin (< hysteresis " +
              std::to_string(opts.hysteresis) + ")");
    }
  }

  // hyst.flipflop: A/B/A winner patterns across three adjacent bands.
  for (std::size_t bi = 2; bi < opts.sizes.size(); ++bi) {
    const int a = winner[bi - 2];
    const int b = winner[bi - 1];
    const int c = winner[bi];
    if (a < 0 || b < 0 || c < 0) continue;
    ++entry.checks;
    if (a == c && a != b) {
      add_finding(
          entry, "hyst.flipflop",
          at_bytes(configs[static_cast<std::size_t>(a)].to_string(),
                   opts.sizes[bi - 2]),
          at_bytes(configs[static_cast<std::size_t>(b)].to_string(),
                   opts.sizes[bi - 1]),
          grid[static_cast<std::size_t>(b)][bi - 1],
          grid[static_cast<std::size_t>(a)][bi - 2], 0.0,
          "band winners alternate A/B/A across " +
              std::to_string(opts.sizes[bi - 2]) + "/" +
              std::to_string(opts.sizes[bi - 1]) + "/" +
              std::to_string(opts.sizes[bi]) + "B");
    }
  }
  out.entries.push_back(std::move(entry));

  // zcs continuity probe. The cost model prices tasks at segment
  // granularity, so its routing classes split at zcs vs fs: zcs <= fs
  // keeps the zero-copy shared-memory intra stage, zcs > fs reroutes it
  // through the copy-in-copy-out p2p module. Within one class the knob
  // must not move the symbolic cost at all; across the switchover the
  // jump is bounded by the copy-vs-shm bandwidth ratio.
  if (kind != CollKind::ReduceScatter) {
    LintEntry ze;
    ze.name = base + ".zcs";
    HanConfig probe;
    probe.fs = 256 << 10;
    probe.imod = "adapt";
    probe.smod = "sm";
    probe.ibalg = coll::Algorithm::Binary;
    probe.iralg = coll::Algorithm::Binary;
    probe.ibs = 32 << 10;
    probe.irs = 32 << 10;
    const std::size_t m = 1 << 20;
    const std::size_t kZeroCopy[] = {0, 128 << 10, 256 << 10};
    const std::size_t kP2p[] = {512 << 10, 1 << 20};
    const auto probe_cost = [&](std::size_t zcs) {
      HanConfig c = probe;
      c.zcs = zcs;
      return eval(m, c);
    };
    const auto class_spread = [&](const std::size_t* zs, std::size_t n,
                                  const char* tag) {
      double lo = 0.0, hi = 0.0;
      std::size_t lo_z = 0, hi_z = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double t = probe_cost(zs[i]);
        if (i == 0 || t < lo) {
          lo = t;
          lo_z = zs[i];
        }
        if (i == 0 || t > hi) {
          hi = t;
          hi_z = zs[i];
        }
      }
      ++ze.checks;
      const double tol = guideline("zcs.class_equal").tolerance;
      if (lo > 0.0 && (hi - lo) / lo > tol) {
        add_finding(ze, "zcs.class_equal",
                    "zcs=" + std::to_string(hi_z) + " (" + tag + ")",
                    "zcs=" + std::to_string(lo_z) + " (" + tag + ")", hi,
                    lo, (hi - lo) / lo,
                    std::string("cost varies inside the ") + tag +
                        " routing class: " + std::to_string(lo) + "s to " +
                        std::to_string(hi) + "s");
      }
      return lo;
    };
    const double zero_copy = class_spread(kZeroCopy, 3, "zero-copy");
    const double p2p = class_spread(kP2p, 2, "p2p");
    ++ze.checks;
    const double bound = guideline("zcs.switch_jump").tolerance;
    if (zero_copy > 0.0 && p2p > 0.0) {
      const double ratio = p2p / zero_copy;
      if (ratio > bound || ratio < 1.0 / bound) {
        add_finding(ze, "zcs.switch_jump", "zcs>fs (p2p)",
                    "zcs<=fs (zero-copy)", p2p, zero_copy, ratio,
                    "cost jumps " + std::to_string(ratio) +
                        "x across the switchover (bound " +
                        std::to_string(bound) + "x)");
      }
    }
    out.entries.push_back(std::move(ze));
  }

  // stripe.no_regression: on multi-rail machines, every striped config
  // allowed at a striping-regime band must not be priced worse than its
  // sf=1 twin — more rails can only add bandwidth (docs/FABRIC.md).
  if (sm.profile.nics_per_node > 1 && kind != CollKind::ReduceScatter) {
    LintEntry se;
    se.name = base + ".stripe";
    for (std::size_t bi = 0; bi < opts.sizes.size(); ++bi) {
      const std::size_t m = opts.sizes[bi];
      if (m < (4u << 20)) continue;  // latency regime: striping optional
      for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        if (configs[ci].sf <= 1 || std::isnan(grid[ci][bi])) continue;
        HanConfig twin = configs[ci];
        twin.sf = 1;
        const double t1 = eval(m, twin);
        check_upper_bound(se, "stripe.no_regression",
                          at_bytes(configs[ci].to_string(), m),
                          at_bytes(twin.to_string(), m), grid[ci][bi], t1);
      }
    }
    out.entries.push_back(std::move(se));
  }
}

// ---- sim.* family -------------------------------------------------------

/// Measured cross-kind guidelines and measured size monotonicity, at the
/// static default configuration (the uniform footing every kind shares;
/// the linear-phase kinds run their decider default path).
void sim_job(LintResult& out, const machine::StockMachine& sm,
             const LintOptions& opts) {
  core::HanWorld lw(sm.profile);
  const mpi::Comm& wc = lw.world.world_comm();
  tune::Searcher searcher(lw.world, lw.han, wc, tune::SearchSpace{});
  const HanConfig cfg;  // static default (Table II defaults)

  static const CollKind kKinds[] = {
      CollKind::Bcast,         CollKind::Reduce,  CollKind::Allreduce,
      CollKind::ReduceScatter, CollKind::Gather,  CollKind::Scatter,
      CollKind::Allgather,
  };
  LintEntry entry;
  entry.name = std::string("sim.") + sm.name;

  std::vector<std::vector<double>> t(
      std::size(kKinds), std::vector<double>(opts.sizes.size(), 0.0));
  for (std::size_t bi = 0; bi < opts.sizes.size(); ++bi) {
    for (std::size_t ki = 0; ki < std::size(kKinds); ++ki) {
      const CollKind kind = kKinds[ki];
      const bool configured = kind == CollKind::Bcast ||
                              kind == CollKind::Reduce ||
                              kind == CollKind::Allreduce ||
                              kind == CollKind::ReduceScatter;
      t[ki][bi] = hooked(
          opts,
          sim_ctx(sm.profile, kind, opts.sizes[bi],
                  configured ? &cfg : nullptr),
          searcher.measure_collective(kind, opts.sizes[bi], cfg));
    }
  }

  const auto tk = [&](CollKind kind, std::size_t bi) {
    for (std::size_t ki = 0; ki < std::size(kKinds); ++ki) {
      if (kKinds[ki] == kind) return t[ki][bi];
    }
    return 0.0;
  };
  for (std::size_t bi = 0; bi < opts.sizes.size(); ++bi) {
    const std::size_t m = opts.sizes[bi];
    check_upper_bound(entry, "xk.allreduce_le_red_bc",
                      at_bytes("allreduce", m), at_bytes("reduce+bcast", m),
                      tk(CollKind::Allreduce, bi),
                      tk(CollKind::Reduce, bi) + tk(CollKind::Bcast, bi));
    check_upper_bound(entry, "xk.scatter_le_bcast", at_bytes("scatter", m),
                      at_bytes("bcast", m), tk(CollKind::Scatter, bi),
                      tk(CollKind::Bcast, bi));
    check_upper_bound(
        entry, "xk.allreduce_le_rs_ag", at_bytes("allreduce", m),
        at_bytes("reduce_scatter+allgather", m), tk(CollKind::Allreduce, bi),
        tk(CollKind::ReduceScatter, bi) + tk(CollKind::Allgather, bi));
  }

  const double mono_tol = guideline("mono.size.sim").tolerance;
  for (std::size_t ki = 0; ki < std::size(kKinds); ++ki) {
    for (std::size_t bi = 1; bi < opts.sizes.size(); ++bi) {
      ++entry.checks;
      const double t1 = t[ki][bi - 1];
      const double t2 = t[ki][bi];
      if (t2 < t1 * (1.0 - mono_tol)) {
        const char* kn = coll::coll_kind_name(kKinds[ki]);
        add_finding(entry, "mono.size.sim", at_bytes(kn, opts.sizes[bi]),
                    at_bytes(kn, opts.sizes[bi - 1]), t2, t1,
                    t1 > 0.0 ? 1.0 - t2 / t1 : 0.0,
                    std::string("measured ") + kn + " time drops from " +
                        std::to_string(t1) + "s to " + std::to_string(t2) +
                        "s as the message grows " +
                        std::to_string(opts.sizes[bi - 1]) + "B -> " +
                        std::to_string(opts.sizes[bi]) + "B");
      }
    }
  }
  out.entries.push_back(std::move(entry));
}

/// mono.ppn: the same machine at half the processes per node must not be
/// slower — fewer ranks mean strictly less intra-node work.
void sim_ppn_job(LintResult& out, const machine::StockMachine& sm,
                 const LintOptions& opts) {
  const int ppn = sm.profile.procs_per_node;
  if (ppn < 2 || ppn % 2 != 0) return;
  if ((ppn / 2) % std::max(1, sm.profile.numa_per_node) != 0) return;
  machine::MachineProfile half = sm.profile;
  half.procs_per_node = ppn / 2;

  LintEntry entry;
  entry.name = std::string("sim.") + sm.name + ".ppn";
  const std::size_t m = opts.sizes.back();
  const HanConfig cfg;
  for (CollKind kind : {CollKind::Bcast, CollKind::Allreduce}) {
    double tfull = 0.0, thalf = 0.0;
    {
      core::HanWorld lw(sm.profile);
      tune::Searcher s(lw.world, lw.han, lw.world.world_comm(),
                       tune::SearchSpace{});
      tfull = hooked(opts, sim_ctx(sm.profile, kind, m, &cfg),
                     s.measure_collective(kind, m, cfg));
    }
    {
      core::HanWorld lw(half);
      tune::Searcher s(lw.world, lw.han, lw.world.world_comm(),
                       tune::SearchSpace{});
      thalf = hooked(opts, sim_ctx(half, kind, m, &cfg),
                     s.measure_collective(kind, m, cfg));
    }
    check_upper_bound(
        entry, "mono.ppn",
        std::string(coll::coll_kind_name(kind)) + " ppn=" +
            std::to_string(half.procs_per_node),
        std::string(coll::coll_kind_name(kind)) + " ppn=" +
            std::to_string(ppn),
        thalf, tfull);
  }
  out.entries.push_back(std::move(entry));
}

// ---- perturb.* family ---------------------------------------------------

/// Clean-tune a winner plus a runner-up shortlist by model estimate, then
/// certify the winner's regret against the shortlist's per-scenario
/// optimum under each perturbed flow network.
void perturb_kind_job(LintResult& out, const machine::StockMachine& sm,
                      CollKind kind, const LintOptions& opts) {
  const std::size_t m = opts.sizes.back();
  tune::SearchSpace space = tune::SearchSpace::for_profile(sm.profile);

  // Clean ranking (symbolic — the tuner's own lens).
  std::vector<std::pair<double, HanConfig>> ranked;
  {
    core::HanWorld lw(sm.profile);
    tune::Searcher searcher(lw.world, lw.han, lw.world.world_comm(), space);
    for (const HanConfig& cfg : space.enumerate(kind)) {
      const int u = static_cast<int>(
          (m + cfg.fs - 1) / std::max<std::size_t>(cfg.fs, 1));
      if (!tune::heuristic_allows(cfg, kind, m, u)) continue;
      ranked.emplace_back(
          hooked(opts, model_ctx(sm.profile, kind, m, &cfg),
                 searcher.estimate_config(kind, m, cfg)),
          cfg);
    }
  }
  if (ranked.empty()) return;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const std::size_t shortlist = std::min<std::size_t>(
      ranked.size(), static_cast<std::size_t>(std::max(opts.top_k, 1)));

  for (const char* scenario : scenario_names()) {
    LintEntry entry;
    entry.name = std::string("perturb.") + sm.name + "." +
                 coll::coll_kind_name(kind) + "." + scenario;
    core::HanWorld pw(sm.profile);
    apply_scenario(pw.world, scenario);
    tune::Searcher measured(pw.world, pw.han, pw.world.world_comm(),
                            tune::SearchSpace{});
    double winner_t = 0.0;
    double best_t = 0.0;
    std::string best_cfg;
    for (std::size_t i = 0; i < shortlist; ++i) {
      CostContext ctx = sim_ctx(sm.profile, kind, m, &ranked[i].second);
      ctx.winner = i == 0;
      ctx.scenario = scenario;
      const double t = hooked(
          opts, ctx, measured.measure_collective(kind, m, ranked[i].second));
      if (i == 0) winner_t = t;
      if (i == 0 || t < best_t) {
        best_t = t;
        best_cfg = ranked[i].second.to_string();
      }
    }
    ++entry.checks;
    if (best_t > 0.0 && winner_t > best_t * opts.regret_bound) {
      const double regret = winner_t / best_t;
      add_finding(entry, "perturb.regret",
                  at_bytes(ranked[0].second.to_string(), m),
                  at_bytes(best_cfg, m), winner_t, best_t, regret - 1.0,
                  std::string("under '") + scenario +
                      "' the tuned winner runs " + std::to_string(regret) +
                      "x the shortlist optimum (bound " +
                      std::to_string(opts.regret_bound) + "x)");
    }
    out.entries.push_back(std::move(entry));
  }
}

}  // namespace

const std::vector<const char*>& scenario_names() {
  static const std::vector<const char*> kNames = {
      "degraded_link", "straggler_node", "noisy_bw"};
  return kNames;
}

void apply_scenario(mpi::SimWorld& world, const std::string& scenario) {
  net::FlowNet& net = world.flownet();
  machine::ClusterFabric& fab = world.fabric();
  const machine::MachineProfile& p = world.profile();
  const auto scale = [&](net::ResourceId id, double f) {
    net.set_capacity(id, net.capacity(id) * f);
  };
  if (scenario == "degraded_link") {
    // Rail 0 of the fabric plus one node's rail-0 NIC run at half speed
    // (a flapping link renegotiated down).
    scale(fab.fabric(0), 0.5);
    const int node = p.nodes > 1 ? 1 : 0;
    scale(fab.nic_tx(node, 0), 0.5);
    scale(fab.nic_rx(node, 0), 0.5);
  } else if (scenario == "straggler_node") {
    // The last node's entire memory system and NICs at 60% — a thermally
    // throttled or co-scheduled straggler.
    const int node = p.nodes - 1;
    for (int d = 0; d < std::max(1, p.numa_per_node); ++d) {
      scale(fab.membus(node, d), 0.6);
    }
    if (p.numa_per_node > 1) scale(fab.numa_link(node), 0.6);
    for (int r = 0; r < std::max(1, p.nics_per_node); ++r) {
      scale(fab.nic_tx(node, r), 0.6);
      scale(fab.nic_rx(node, r), 0.6);
    }
  } else if (scenario == "noisy_bw") {
    // Every resource derated by a deterministic pseudo-random factor in
    // [0.85, 1.0) — background daemons and cache contention.
    sim::Rng rng(0xC0FFEEull);
    for (net::ResourceId id = 0;
         id < static_cast<net::ResourceId>(net.resource_count()); ++id) {
      scale(id, rng.uniform(0.85, 1.0));
    }
  } else {
    HAN_ASSERT_MSG(false, "unknown perturbation scenario");
  }
}

LintOptions LintOptions::smoke() {
  LintOptions o;
  o.machines = {"aries2x8", "aries_rail4"};
  o.sizes = {1 << 20, 8 << 20};
  return o;
}

LintResult run_lint(const LintOptions& opts) {
  // A flat list of independent jobs, each filling a private fragment
  // (han::par::run_cases: byte-identical for every opts.jobs value).
  std::vector<std::function<void(LintResult&)>> jobs;
  for (const machine::StockMachine& sm : machine::stock_machines()) {
    if (!opts.machines.empty() &&
        std::find(opts.machines.begin(), opts.machines.end(),
                  std::string(sm.name)) == opts.machines.end()) {
      continue;
    }
    if (opts.model) {
      for (CollKind kind : {CollKind::Bcast, CollKind::Allreduce,
                            CollKind::ReduceScatter}) {
        jobs.push_back([&sm, kind, &opts](LintResult& frag) {
          model_kind_job(frag, sm, kind, opts);
        });
      }
    }
    if (opts.sim) {
      jobs.push_back(
          [&sm, &opts](LintResult& frag) { sim_job(frag, sm, opts); });
      jobs.push_back(
          [&sm, &opts](LintResult& frag) { sim_ppn_job(frag, sm, opts); });
    }
    if (opts.perturb) {
      for (CollKind kind : {CollKind::Bcast, CollKind::Allreduce}) {
        jobs.push_back([&sm, kind, &opts](LintResult& frag) {
          perturb_kind_job(frag, sm, kind, opts);
        });
      }
    }
  }

  return par::run_cases(opts.jobs, jobs);
}

// ---- audit mode ---------------------------------------------------------

void lint_lookup(const tune::LookupTable& table, LintResult& out,
                 const std::string& prefix) {
  // Slice the (kind, nodes, ppn)-major entry map into per-shape bands.
  struct Band {
    int log2 = 0;
    const HanConfig* cfg = nullptr;
  };
  auto it = table.entries().begin();
  while (it != table.entries().end()) {
    const tune::LookupTable::Key slice = it->first;
    std::vector<Band> bands;
    for (; it != table.entries().end() &&
           it->first.kind == slice.kind && it->first.nodes == slice.nodes &&
           it->first.ppn == slice.ppn;
         ++it) {
      bands.push_back({it->first.log2_bytes, &it->second});
    }
    LintEntry entry;
    entry.name = prefix + "audit." + coll::coll_kind_name(slice.kind) +
                 "." + std::to_string(slice.nodes) + "x" +
                 std::to_string(slice.ppn);
    for (const Band& b : bands) {
      ++entry.checks;
      const std::size_t bytes = std::size_t{1} << b.log2;
      const int u = static_cast<int>(
          (bytes + b.cfg->fs - 1) / std::max<std::size_t>(b.cfg->fs, 1));
      if (!tune::heuristic_allows(*b.cfg, slice.kind, bytes, u)) {
        add_finding(entry, "audit.heuristic",
                    at_bytes(b.cfg->to_string(), bytes), "Sec. III-C rules",
                    0.0, 0.0, 0.0,
                    "tuned entry '" + b.cfg->to_string() + "' at " +
                        std::to_string(bytes) +
                        "B contradicts the search heuristics");
      }
    }
    for (std::size_t i = 2; i < bands.size(); ++i) {
      // Only adjacent power-of-two bands form a boundary.
      if (bands[i - 2].log2 + 1 != bands[i - 1].log2 ||
          bands[i - 1].log2 + 1 != bands[i].log2) {
        continue;
      }
      ++entry.checks;
      const std::string a = bands[i - 2].cfg->to_string();
      const std::string b = bands[i - 1].cfg->to_string();
      const std::string c = bands[i].cfg->to_string();
      if (a == c && a != b) {
        add_finding(entry, "audit.flipflop",
                    at_bytes(a, std::size_t{1} << bands[i - 2].log2),
                    at_bytes(b, std::size_t{1} << bands[i - 1].log2), 0.0,
                    0.0, 0.0,
                    "bands 2^" + std::to_string(bands[i - 2].log2) + "/2^" +
                        std::to_string(bands[i - 1].log2) + "/2^" +
                        std::to_string(bands[i].log2) +
                        " flip-flop between two configurations");
      }
    }
    out.entries.push_back(std::move(entry));
  }
}

void lint_tunedb(const tune::TuneDb& db, LintResult& out) {
  for (const auto& [sig, record] : db.records()) {
    lint_lookup(record.table(), out, "db." + sig + ".");
  }
}

}  // namespace han::lint
