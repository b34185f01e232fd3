#include "han/synth/synth.hpp"

#include <algorithm>
#include <set>

#include "autotune/search.hpp"
#include "coll/registry.hpp"
#include "han/han.hpp"
#include "han/verify/sweep.hpp"
#include "machine/machine.hpp"
#include "parallel/pool.hpp"
#include "simbase/json.hpp"
#include "simbase/units.hpp"

namespace han::synth {

namespace {

using coll::CollKind;
using core::HanConfig;
using mpi::Datatype;
using sim::json_number;
using sim::json_string;

std::string fmt_candidate(const Candidate& c) {
  std::string j = "{\"cfg\": " + json_string(c.cfg.to_string());
  j += ", \"lat\": " + json_number(c.cost.lat);
  j += ", \"bw\": " + json_number(c.cost.bw);
  j += std::string(", \"verified\": ") + (c.verified ? "true" : "false");
  j += ", \"errors\": " + std::to_string(c.verify_errors);
  j += ", \"warnings\": " + std::to_string(c.verify_warnings);
  if (c.time >= 0.0) j += ", \"time\": " + json_number(c.time);
  j += "}";
  return j;
}

}  // namespace

int SynthResult::finalist_findings() const {
  int n = 0;
  for (const SynthCase& c : cases) {
    for (const Candidate& f : c.finalists) {
      n += f.verify_errors + f.verify_warnings;
    }
  }
  return n;
}

int SynthResult::wins() const {
  int n = 0;
  for (const SynthCase& c : cases) {
    if (c.winner < 0 || c.baseline < 0.0) continue;
    n += c.finalists[c.winner].time <= c.baseline * (1.0 + 1e-9);
  }
  return n;
}

tune::LookupTable SynthResult::winners() const {
  tune::LookupTable table;
  for (const SynthCase& c : cases) {
    if (c.winner < 0) continue;
    table.insert(c.kind, opts.nodes, opts.ppn, c.bytes,
                 c.finalists[c.winner].cfg);
  }
  return table;
}

std::string SynthResult::to_json() const {
  int explored = 0, frontier = 0, finalists = 0;
  for (const SynthCase& c : cases) {
    explored += c.explored;
    frontier += c.frontier;
    finalists += static_cast<int>(c.finalists.size());
  }
  std::string j = "{\n  \"totals\": {\"cases\": " +
                  std::to_string(cases.size()) +
                  ", \"explored\": " + std::to_string(explored) +
                  ", \"frontier\": " + std::to_string(frontier) +
                  ", \"finalists\": " + std::to_string(finalists) +
                  ", \"finalist_findings\": " +
                  std::to_string(finalist_findings()) +
                  ", \"wins\": " + std::to_string(wins()) + "},\n";
  j += "  \"options\": {\"machine\": " +
       json_string(std::to_string(opts.nodes) + "x" +
                   (opts.numa > 1 ? std::to_string(opts.numa) + "x" : "") +
                   std::to_string(opts.ppn)) +
       ", \"seed\": " +
       std::to_string(opts.seed) +
       ", \"mutation_rounds\": " + std::to_string(opts.mutation_rounds) +
       ", \"mutants_per_round\": " + std::to_string(opts.mutants_per_round) +
       ", \"max_finalists\": " + std::to_string(opts.max_finalists) + "},\n";
  j += "  \"cases\": {\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SynthCase& c = cases[i];
    j += "    " + json_string(c.name) + ": {\"explored\": " +
         std::to_string(c.explored) +
         ", \"frontier\": " + std::to_string(c.frontier);
    if (c.baseline >= 0.0) {
      j += ", \"baseline\": {\"cfg\": " + json_string(c.baseline_cfg) +
           ", \"time\": " + json_number(c.baseline) + "}";
    }
    j += ", \"finalists\": [";
    for (std::size_t f = 0; f < c.finalists.size(); ++f) {
      if (f > 0) j += ", ";
      j += fmt_candidate(c.finalists[f]);
    }
    j += "]";
    if (c.winner >= 0) {
      const Candidate& w = c.finalists[c.winner];
      j += ", \"winner\": {\"cfg\": " + json_string(w.cfg.to_string()) +
           ", \"time\": " + json_number(w.time);
      if (c.baseline > 0.0) {
        j += ", \"vs_baseline\": " + json_number(w.time / c.baseline);
      }
      j += "}";
    }
    j += "}";
    j += i + 1 < cases.size() ? ",\n" : "\n";
  }
  j += "  }\n}\n";
  return j;
}

namespace {

/// One synthesis case, end to end: enumerate → prune/mutate → verify →
/// measure. Owns its world and rng stream; `case_ordinal` seeds the
/// mutation rng exactly as the serial loop always did, so the per-case
/// result is independent of how many cases run concurrently around it.
SynthCase run_case(const SynthOptions& opts, CollKind kind,
                   std::size_t bytes, std::uint64_t case_ordinal) {
  SynthCase c;
  c.kind = kind;
  c.bytes = bytes;
  // The numa segment appears only on NUMA machines, keeping flat-machine
  // reports byte-identical to before the knob existed.
  const std::string machine_tag =
      std::to_string(opts.nodes) +
      (opts.numa > 1 ? "x" + std::to_string(opts.numa) : "") + "x" +
      std::to_string(opts.ppn) +
      (opts.rails > 1 ? "r" + std::to_string(opts.rails) : "");
  c.name = std::string(coll::coll_kind_name(kind)) + "." + machine_tag +
           "." + sim::format_bytes(bytes);

  // Base Table II configs every spec is crossed with. ADAPT/Binary is
  // the workhorse inter module; fs and window are the axes that
  // interact with the schedule shape.
  std::vector<HanConfig> bases;
  for (std::size_t fs : opts.fs_sizes) {
    for (int w : opts.windows) {
      HanConfig base;
      base.fs = fs;
      base.imod = "adapt";
      base.smod = "sm";
      base.ibalg = coll::Algorithm::Binary;
      base.iralg = coll::Algorithm::Binary;
      base.ibs = 32 << 10;
      base.irs = 32 << 10;
      base.window = w;
      bases.push_back(std::move(base));
    }
  }

  // 1. Enumerate the grammar across the base configs and cost it.
  std::vector<Candidate> pool;
  std::vector<CostPoint> costs;  // pool[i].cost, for the frontier
  std::set<std::string> seen;
  auto admit = [&](SynthSpec spec, const HanConfig& base) {
    if (!spec.validate().empty()) return;
    Candidate cand;
    cand.cfg = base;
    cand.cfg.sched = spec.id();
    if (!seen.insert(cand.cfg.to_string()).second) return;
    cand.spec = std::move(spec);
    cand.cost = symbolic_cost(cand.spec, cand.cfg, opts.nodes, opts.ppn,
                              bytes, opts.numa, opts.rails);
    costs.push_back(cand.cost);
    pool.push_back(std::move(cand));
  };
  GeneratorOptions grammar = opts.grammar;
  grammar.rails = opts.rails;
  for (const SynthSpec& spec : enumerate_specs(kind, opts.ppn, grammar)) {
    for (const HanConfig& base : bases) admit(spec, base);
  }
  if (opts.numa > 1) {
    // NUMA machines additionally enumerate the three-level chain
    // (chain-order emission only; mutation explores order — generator.hpp).
    GeneratorOptions g3 = grammar;
    g3.three_level = true;
    for (const SynthSpec& spec : enumerate_specs(kind, opts.ppn, g3)) {
      for (const HanConfig& base : bases) admit(spec, base);
    }
  }

  // 2. Pareto prune, then mutate around the frontier.
  sim::Rng rng(opts.seed + 0x9e3779b97f4a7c15ull * (case_ordinal + 1));
  std::vector<std::size_t> frontier = pareto_frontier(costs);
  for (int round = 0; round < opts.mutation_rounds; ++round) {
    for (int mi = 0; mi < opts.mutants_per_round; ++mi) {
      const Candidate& parent =
          pool[frontier[rng.next_below(frontier.size())]];
      HanConfig base = parent.cfg;
      base.sched.clear();
      admit(mutate_spec(parent.spec, rng, opts.ppn, opts.rails), base);
    }
    frontier = pareto_frontier(costs);
  }
  c.explored = static_cast<int>(pool.size());
  c.frontier = static_cast<int>(frontier.size());

  // 3. Select finalists: the frontier's best by combined cost, plus
  // the canonical shape under every base config (so the winner can
  // never lose to the hand-written builders).
  std::vector<std::size_t> order = frontier;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              const double ca = pool[a].cost.lat + pool[a].cost.bw;
              const double cb = pool[b].cost.lat + pool[b].cost.bw;
              if (ca != cb) return ca < cb;
              return pool[a].cfg.to_string() < pool[b].cfg.to_string();
            });
  if (static_cast<int>(order.size()) > opts.max_finalists) {
    order.resize(static_cast<std::size_t>(opts.max_finalists));
  }
  std::vector<std::string> canonical_ids{SynthSpec::canonical(kind).id()};
  if (opts.numa > 1) {
    canonical_ids.push_back(SynthSpec::canonical3(kind).id());
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (std::find(canonical_ids.begin(), canonical_ids.end(),
                  pool[i].cfg.sched) == canonical_ids.end()) {
      continue;
    }
    if (std::find(order.begin(), order.end(), i) == order.end()) {
      order.push_back(i);
    }
  }
  for (std::size_t idx : order) c.finalists.push_back(pool[idx]);
  std::sort(c.finalists.begin(), c.finalists.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.cfg.to_string() < b.cfg.to_string();
            });

  // 4. Verify gate + simulator scoring on the real topology. On a NUMA
  // machine the hand-written baseline dispatches to the derived
  // three-level ladder — a win means beating it, not just the flat seed.
  machine::MachineProfile profile = machine::make_aries(opts.nodes, opts.ppn);
  if (opts.numa > 1) profile = machine::with_numa(profile, opts.numa);
  if (opts.rails > 1) profile = machine::with_rails(profile, opts.rails);
  core::HanWorld sw(std::move(profile));
  for (Candidate& cand : c.finalists) {
    // The soundness gate, at the candidate's own scheduler window: ANY
    // finding — error or warning — disqualifies it from execution.
    const verify::GraphCheck check = verify::verify_collective(
        sw, kind, bytes, Datatype::Byte, cand.cfg,
        std::span(&cand.cfg.window, 1));
    if (!check.defect.empty()) {
      cand.verify_errors = 1;
      continue;
    }
    const verify::Report& rep = check.reports.front();
    cand.verify_errors = rep.error_count() + (rep.truncated ? 1 : 0);
    cand.verify_warnings =
        static_cast<int>(rep.findings.size()) - rep.error_count();
    cand.verified = cand.verify_errors == 0 && cand.verify_warnings == 0;
  }
  tune::Searcher searcher(sw.world, sw.han, sw.world.world_comm());
  for (const HanConfig& base : bases) {
    const double t = searcher.measure_collective(kind, bytes, base);
    if (c.baseline < 0.0 || t < c.baseline) {
      c.baseline = t;
      c.baseline_cfg = base.to_string();
    }
  }
  for (std::size_t f = 0; f < c.finalists.size(); ++f) {
    Candidate& cand = c.finalists[f];
    if (!cand.verified) continue;
    cand.time = searcher.measure_collective(kind, bytes, cand.cfg);
    if (c.winner < 0 || cand.time < c.finalists[c.winner].time) {
      c.winner = static_cast<int>(f);
    }
  }

  return c;
}

}  // namespace

SynthResult run_synthesis(const SynthOptions& opts) {
  SynthResult result;
  result.opts = opts;

  // Flatten the (kind, size) grid into independent case jobs. The flat
  // index doubles as the case ordinal the mutation rng is seeded with —
  // identical to the serial loop's running counter.
  struct CaseInput {
    CollKind kind;
    std::size_t bytes;
  };
  std::vector<CaseInput> inputs;
  for (CollKind kind : opts.kinds) {
    for (std::size_t bytes : opts.sizes) inputs.push_back({kind, bytes});
  }
  result.cases = par::parallel_map(
      opts.jobs, static_cast<int>(inputs.size()), [&](int i) {
        const CaseInput& in = inputs[static_cast<std::size_t>(i)];
        return run_case(opts, in.kind, in.bytes,
                        static_cast<std::uint64_t>(i));
      });
  std::sort(result.cases.begin(), result.cases.end(),
            [](const SynthCase& a, const SynthCase& b) {
              return a.name < b.name;
            });
  return result;
}

}  // namespace han::synth
