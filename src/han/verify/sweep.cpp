#include "han/verify/sweep.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "autotune/search.hpp"
#include "coll/builders.hpp"
#include "coll/registry.hpp"
#include "coll/ring/ring_builders.hpp"
#include "coll/validate.hpp"
#include "han/han.hpp"
#include "han/synth/spec.hpp"
#include "han/task/builders.hpp"
#include "machine/machine.hpp"
#include "parallel/pool.hpp"
#include "simbase/json.hpp"

namespace han::verify {

namespace {

using coll::Algorithm;
using coll::BuildSpec;
using coll::CollKind;
using core::HanConfig;
using mpi::BufView;
using mpi::Datatype;

}  // namespace

void record(SweepResult& out, std::string name, const Report& rep) {
  SweepEntry e;
  e.name = std::move(name);
  e.actions = rep.actions;
  for (const Finding& f : rep.findings) {
    if (f.severity == Severity::Error) {
      ++e.errors;
    } else {
      ++e.warnings;
    }
    e.lines.push_back(
        std::string(f.severity == Severity::Error ? "error[" : "warning[") +
        diag_name(f.code) + "]: " + f.message);
  }
  if (rep.truncated) {
    ++e.errors;
    e.lines.push_back("error[truncated]: race analysis hit max_race_pairs");
  }
  out.entries.push_back(std::move(e));
}

namespace {

void record_defect(SweepResult& out, std::string name, std::string defect) {
  SweepEntry e;
  e.name = std::move(name);
  e.errors = 1;
  e.lines.push_back("error[invalid]: " + std::move(defect));
  out.entries.push_back(std::move(e));
}

// ---- plan.* family ------------------------------------------------------

void plan_case(SweepResult& out, const std::string& name,
               const coll::Plan& plan, int comm_size) {
  std::string defect = coll::validate_plan(plan, comm_size);
  if (!defect.empty()) {
    record_defect(out, name, std::move(defect));
    return;
  }
  record(out, name, analyze_plan(plan, comm_size));
}

/// One plan-family sweep job: every builder at one communicator size.
void sweep_plans_for(SweepResult& out, int n) {
  struct SizeCase {
    const char* tag;
    std::size_t bytes;
    std::size_t segment;
  };
  // 4 KiB unsegmented plus a pipelined 1 MiB / 64 KiB split; byte counts
  // stay Int32-aligned for the reduce family.
  const SizeCase kSizes[] = {{"small", 4 << 10, 0},
                             {"pipe", 1 << 20, 64 << 10}};
  const Algorithm kTreeAlgs[] = {Algorithm::Linear, Algorithm::Chain,
                                 Algorithm::Binary, Algorithm::Binomial};

  {
    for (const SizeCase& sz : kSizes) {
      BuildSpec spec;
      spec.bytes = sz.bytes;
      spec.segment = sz.segment;
      spec.dtype = Datatype::Int32;
      const std::string suffix =
          ".n" + std::to_string(n) + "." + sz.tag;
      for (Algorithm alg : kTreeAlgs) {
        BuildSpec s = spec;
        s.alg = alg;
        plan_case(out, std::string("plan.tree_bcast.") +
                           coll::algorithm_name(alg) + suffix,
                  coll::build_tree_bcast(n, s), n);
        plan_case(out, std::string("plan.tree_reduce.") +
                           coll::algorithm_name(alg) + suffix,
                  coll::build_tree_reduce(n, s), n);
        // Non-zero root exercises the builders' rank rotation.
        if (n > 2) {
          s.root = 1;
          plan_case(out, std::string("plan.tree_bcast.") +
                             coll::algorithm_name(alg) + ".root1" + suffix,
                    coll::build_tree_bcast(n, s), n);
          plan_case(out, std::string("plan.tree_reduce.") +
                             coll::algorithm_name(alg) + ".root1" + suffix,
                    coll::build_tree_reduce(n, s), n);
        }
      }
      plan_case(out, "plan.recdoub_allreduce" + suffix,
                coll::build_recdoub_allreduce(n, spec), n);
      plan_case(out, "plan.linear_gather" + suffix,
                coll::build_linear_gather(n, spec), n);
      plan_case(out, "plan.linear_scatter" + suffix,
                coll::build_linear_scatter(n, spec), n);
      {
        // Ring chunks are bytes/n; keep them element-aligned and nonzero.
        BuildSpec rs = spec;
        rs.bytes = static_cast<std::size_t>(n) * (64 << 10);
        plan_case(out, "plan.ring_reduce_scatter" + suffix,
                  coll::build_ring_reduce_scatter(n, rs), n);
        plan_case(out, "plan.ring_allreduce" + suffix,
                  coll::build_ring_allreduce(n, rs), n);
        BuildSpec st = spec;
        st.bytes = static_cast<std::size_t>(n) * (32 << 10);
        st.stride = 32 << 10;
        st.block = 16 << 10;
        plan_case(out, "plan.ring_reduce_scatter_strided" + suffix,
                  coll::build_ring_reduce_scatter_strided(n, st), n);
        plan_case(out, "plan.ring_allgather" + suffix,
                  coll::build_ring_allgather(n, spec), n);
      }
    }
    BuildSpec barrier;
    plan_case(out, "plan.dissemination_barrier.n" + std::to_string(n),
              coll::build_dissemination_barrier(n, barrier), n);
  }
}

// ---- graph.* family -----------------------------------------------------

/// One graph case: every rank's graph of `kind` under `cfg` over 1 MiB
/// per rank (Byte elements for bcast, Int32 for the reductions), recorded
/// once per scheduler window, or once as its structural defect.
void graph_case(SweepResult& out, core::HanWorld& gw, const std::string& name,
                CollKind kind, const HanConfig& cfg,
                const std::vector<int>& windows) {
  const Datatype dtype =
      kind == CollKind::Bcast ? Datatype::Byte : Datatype::Int32;
  GraphCheck check = verify_collective(gw, kind, 1 << 20, dtype, cfg, windows);
  if (!check.defect.empty()) {
    record_defect(out, name, std::move(check.defect));
    return;
  }
  for (std::size_t i = 0; i < windows.size(); ++i) {
    record(out, name + ".w" + std::to_string(windows[i]), check.reports[i]);
  }
}

/// The SearchSpace a sweep enumerates (full, or the smoke subset: one
/// inter/intra module combination per segment size).
tune::SearchSpace sweep_space(bool full_space) {
  tune::SearchSpace space;
  if (!full_space) {
    space.imods = {"adapt"};
    space.adapt_algs = {Algorithm::Chain};
    space.adapt_inter_segments = {32 << 10};
  }
  return space;
}

/// One graph-family sweep job: every `space` config of one collective kind
/// on one machine, named `prefix` + config. Owns its world — jobs share
/// nothing.
void graph_space_job(SweepResult& out, machine::MachineProfile profile,
                     const std::string& prefix, CollKind kind,
                     const tune::SearchSpace& space,
                     const std::vector<int>& windows) {
  core::HanWorld gw(std::move(profile));
  for (const HanConfig& cfg : space.enumerate(kind)) {
    graph_case(out, gw, prefix + cfg.to_string(), kind, cfg, windows);
  }
}

/// Multi-leader allreduce (k = 2: the canonical schedule striped over two
/// leaders); only scheduled for multi-node, multi-rank topologies.
void graph_ml2_job(SweepResult& out, const char* topo_tag, int topo_nodes,
                   int topo_ppn, bool full_space,
                   const std::vector<int>& windows) {
  core::HanWorld gw(machine::make_aries(topo_nodes, topo_ppn));
  synth::SynthSpec ml2 = synth::SynthSpec::canonical(CollKind::Allreduce);
  ml2.leaders = 2;
  for (const HanConfig& cfg :
       sweep_space(full_space).enumerate(CollKind::Allreduce)) {
    HanConfig striped = cfg;
    striped.sched = ml2.id();
    graph_case(out, gw,
               std::string("graph.") + topo_tag + ".allreduce_ml2." +
                   cfg.to_string(),
               CollKind::Allreduce, striped, windows);
  }
}

}  // namespace

int SweepResult::total_errors() const {
  int n = 0;
  for (const SweepEntry& e : entries) n += e.errors;
  return n;
}

int SweepResult::total_warnings() const {
  int n = 0;
  for (const SweepEntry& e : entries) n += e.warnings;
  return n;
}

std::string SweepResult::to_json() const {
  std::string j = "{\n  \"totals\": {\"cases\": " +
                  std::to_string(entries.size()) +
                  ", \"errors\": " + std::to_string(total_errors()) +
                  ", \"warnings\": " + std::to_string(total_warnings()) +
                  "},\n  \"cases\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SweepEntry& e = entries[i];
    j += "    ";
    sim::append_json_string(j, e.name);
    j += ": {\"actions\": " + std::to_string(e.actions) +
         ", \"errors\": " + std::to_string(e.errors) +
         ", \"warnings\": " + std::to_string(e.warnings) +
         ", \"findings\": [";
    for (std::size_t k = 0; k < e.lines.size(); ++k) {
      if (k > 0) j += ", ";
      sim::append_json_string(j, e.lines[k]);
    }
    j += "]}";
    j += i + 1 < entries.size() ? ",\n" : "\n";
  }
  j += "  }\n}\n";
  return j;
}

std::string SweepResult::summary() const {
  std::string s = std::to_string(entries.size()) + " cases, " +
                  std::to_string(total_errors()) + " errors, " +
                  std::to_string(total_warnings()) + " warnings\n";
  for (const SweepEntry& e : entries) {
    if (e.lines.empty()) continue;
    s += e.name + ":\n";
    for (const std::string& line : e.lines) s += "  " + line + "\n";
  }
  return s;
}

std::vector<SweepCase> sweep_cases(const SweepOptions& opts) {
  // Every job owns its worlds and copies what it reads of `opts`.
  const std::vector<int>& windows = opts.windows;
  const bool full_space = opts.full_space;
  std::vector<SweepCase> jobs;
  if (opts.plans) {
    for (int n : {2, 3, 4, 8, 16}) {
      jobs.push_back([n](SweepResult& frag) { sweep_plans_for(frag, n); });
    }
  }
  if (opts.graphs) {
    struct Topo {
      const char* tag;
      int nodes, ppn;
    };
    static const Topo kTopos[] = {{"2x2", 2, 2}, {"4x4", 4, 4},
                                  {"8x2", 8, 2}};
    struct KindCase {
      CollKind kind;
      bool full;  // full SearchSpace, or the (fs, smod) subset (the
                  // linear-phase collectives ignore the inter knobs)
    };
    static const KindCase kKinds[] = {
        {CollKind::Bcast, true},          {CollKind::Reduce, true},
        {CollKind::Allreduce, true},      {CollKind::ReduceScatter, true},
        {CollKind::Gather, false},        {CollKind::Scatter, false},
        {CollKind::Allgather, false},
    };
    for (const Topo& t : kTopos) {
      const std::string tprefix = std::string("graph.") + t.tag + ".";
      for (const KindCase& kc : kKinds) {
        tune::SearchSpace space = sweep_space(full_space);
        if (!kc.full) {
          // The linear-phase collectives ignore the inter knobs.
          space.imods = {"libnbc"};
          space.include_ring = false;
        }
        jobs.push_back([&t, kc, tprefix, space, windows](SweepResult& frag) {
          graph_space_job(frag, machine::make_aries(t.nodes, t.ppn),
                          tprefix + coll::coll_kind_name(kc.kind) + ".",
                          kc.kind, space, windows);
        });
      }
      // Barrier has no Table II knobs: one case per topology.
      jobs.push_back([&t, tprefix, windows](SweepResult& frag) {
        core::HanWorld gw(machine::make_aries(t.nodes, t.ppn));
        graph_case(frag, gw, tprefix + "barrier", CollKind::Barrier,
                   HanConfig{}, windows);
      });
      if (t.nodes > 1 && t.ppn >= 2) {
        jobs.push_back([&t, full_space, windows](SweepResult& frag) {
          graph_ml2_job(frag, t.tag, t.nodes, t.ppn, full_space, windows);
        });
      }
    }
    // NUMA variants of the stock machines: every registered numa-split
    // profile is swept with the derived (3-level) builders by default,
    // which emit the ladder pipelines that used to live in the
    // hand-written bcast3/allreduce3. Multi-rail variants cross the
    // stripe axis (HanConfig::sf, docs/FABRIC.md) into the space with the
    // divisors of the machine's NIC count, so every striped slice set gets
    // the same structural gate as the single-rail pipelines. One job per
    // (machine, kind).
    for (const machine::StockMachine& sm : machine::stock_machines()) {
      std::vector<std::pair<std::string, tune::SearchSpace>> variants;
      if (sm.profile.numa_per_node > 1) {
        variants.emplace_back("_lvl3.", sweep_space(full_space));
      }
      const int rails = sm.profile.nics_per_node;
      if (rails > 1) {
        tune::SearchSpace space = sweep_space(full_space);
        for (int d = 1; d <= rails; ++d) {
          if (rails % d == 0) space.stripe_factors.push_back(d);
        }
        variants.emplace_back("_rail.", std::move(space));
      }
      for (const auto& [suffix, space] : variants) {
        for (CollKind kind :
             {CollKind::Bcast, CollKind::Reduce, CollKind::Allreduce}) {
          jobs.push_back([&sm, kind, suffix, space, windows](
                             SweepResult& frag) {
            graph_space_job(frag, sm.profile,
                            std::string("graph.") + sm.name + "." +
                                coll::coll_kind_name(kind) + suffix,
                            kind, space, windows);
          });
        }
      }
    }
  }

  return jobs;
}

SweepResult run_sweep(const SweepOptions& opts) {
  return par::run_cases(opts.jobs, sweep_cases(opts));
}

bool parse_windows(const char* arg, std::vector<int>* out) {
  out->clear();
  long long v = 0;
  bool any = false;
  for (const char* p = arg;; ++p) {
    if (*p >= '0' && *p <= '9') {
      v = v * 10 + (*p - '0');
      any = true;
      if (v > std::numeric_limits<int>::max()) break;
    } else if ((*p == ',' || *p == '\0') && any && v >= 1 &&
               std::find(out->begin(), out->end(), v) == out->end()) {
      out->push_back(static_cast<int>(v));
      if (*p == '\0') return true;
      v = 0;
      any = false;
    } else {
      break;
    }
  }
  out->clear();
  return false;
}

void verify_lookup(const tune::LookupTable& table, SweepResult& out) {
  for (const auto& [key, cfg] : table.entries()) {
    if (cfg.sched.empty()) continue;
    const std::string name =
        std::string("lookup.") + coll::coll_kind_name(key.kind) + "." +
        std::to_string(key.nodes) + "x" + std::to_string(key.ppn) +
        ".log2_" + std::to_string(key.log2_bytes);
    synth::SynthSpec spec;
    if (!synth::SynthSpec::parse(cfg.sched, &spec)) {
      record_defect(out, name, "unparseable sched id '" + cfg.sched + "'");
      continue;
    }
    if (spec.kind != key.kind) {
      record_defect(out, name,
                    "sched id '" + cfg.sched + "' is for another kind");
      continue;
    }
    if (key.nodes < 2 || key.ppn < 1) {
      record_defect(out, name, "entry shape has no inter level");
      continue;
    }
    // Rebuild the schedule exactly as dispatch would: the entry's own
    // topology, its bucket's message size, its config's window. Striped
    // entries (v4 `sf=` tokens, in the config or the sched id itself)
    // need a multi-rail fabric with at least that many rails — on a
    // single-rail rebuild effective_sf would clamp to 1 and the striped
    // schedule would be verified in name only. Mid-carrying entries
    // likewise need a NUMA split, which the table does not record: they
    // are rebuilt under every split d the node admits (1 < d < ppn,
    // d | ppn), one case each. A node admitting none runs the spec with
    // its mid stages dropped, exactly as the flat rebuild does.
    std::vector<int> splits;
    if (spec.three_level()) {
      for (int d = 2; d < key.ppn; ++d) {
        if (key.ppn % d == 0) splits.push_back(d);
      }
    }
    if (splits.empty()) splits.push_back(1);
    const int rails = std::max(cfg.sf, spec.sf);
    const std::size_t bytes = std::size_t{1} << key.log2_bytes;
    for (int d : splits) {
      const std::string case_name =
          d > 1 ? name + ".numa" + std::to_string(d) : name;
      core::HanWorld gw(machine::with_rails(
          machine::with_numa(machine::make_aries(key.nodes, key.ppn), d),
          rails));
      GraphCheck check = verify_collective(gw, key.kind, bytes,
                                           Datatype::Byte, cfg,
                                           std::span(&cfg.window, 1));
      if (!check.defect.empty()) {
        record_defect(out, case_name, std::move(check.defect));
      } else {
        record(out, case_name, check.reports.front());
      }
    }
  }
}

GraphCheck verify_collective(core::HanWorld& world, CollKind kind,
                             std::size_t bytes, Datatype dtype,
                             const HanConfig& cfg,
                             std::span<const int> windows) {
  const mpi::Comm& wc = world.world.world_comm();
  const std::size_t n = static_cast<std::size_t>(wc.size());
  const BufView one = BufView::timing_only(bytes);
  const BufView all = BufView::timing_only(bytes * n);
  const auto build = [&](int me) -> task::TaskGraph {
    switch (kind) {
      case CollKind::Bcast:
        return task::build_bcast(world.han, wc, me, 0, one, dtype, cfg);
      case CollKind::Reduce:
        return task::build_reduce(world.han, wc, me, 0, one, one, dtype,
                                  mpi::ReduceOp::Sum, cfg);
      case CollKind::Allreduce:
        return task::build_allreduce(world.han, wc, me, one, one, dtype,
                                     mpi::ReduceOp::Sum, cfg);
      case CollKind::ReduceScatter:
        return task::build_reduce_scatter(
            world.han, wc, me, one, BufView::timing_only(bytes / n), dtype,
            mpi::ReduceOp::Sum, cfg);
      case CollKind::Gather:
        return task::build_gather(world.han, wc, me, 0, one, all, cfg);
      case CollKind::Scatter:
        return task::build_scatter(world.han, wc, me, 0, all, one, cfg);
      case CollKind::Allgather:
        return task::build_allgather(world.han, wc, me, one, all, cfg);
      case CollKind::Barrier:
        return task::build_barrier(world.han, wc, me);
    }
    return {};
  };
  GraphCheck check;
  std::vector<GraphSummary> summaries;
  for (int me = 0; me < wc.size(); ++me) {
    const task::TaskGraph graph = build(me);
    const std::string defect = task::validate_graph(graph);
    if (!defect.empty()) {
      check.defect = "rank " + std::to_string(me) + ": " + defect;
      return check;
    }
    summaries.push_back(summarize(graph, me));
  }
  check.reports = analyze_task_graphs(summaries, windows);
  return check;
}

}  // namespace han::verify
