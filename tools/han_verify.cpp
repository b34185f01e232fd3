// han_verify — the static verification gate for collective schedules.
//
//   han_verify [--smoke] [--no-plans] [--no-graphs] [--no-exec]
//              [--windows 1,2,3] [--jobs N] [--from-lookup <path>]
//              [--json <path>] [--quiet]
//
// --jobs N runs the sweep's independent cases on N threads (0 = one per
// hardware thread); reports are byte-identical for every N.
//
// --from-lookup <path> re-verifies every cached synthesized schedule
// (`sched=` entry) of a saved LookupTable instead of running the builder
// sweep — the gate for synthesis caches (docs/SYNTHESIS.md).
//
// Runs the han::verify sweep (every Plan/TaskGraph builder across the
// autotuner's SearchSpace; see docs/VERIFICATION.md) plus an execution
// matrix that drives real collectives through CollRuntime with the
// plan-checker hook recording an analysis of every Plan any submodule
// builds (sm/solo/libnbc/adapt/ring — the inline-built plans the static
// sweep cannot enumerate). Exit status: 0 = clean, 2 = findings.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "autotune/lookup.hpp"
#include "han/han.hpp"
#include "han/verify/sweep.hpp"
#include "han/verify/verify.hpp"
#include "parallel/pool.hpp"

namespace {

using namespace han;

/// Shared recorder: the CollRuntime plan-checker appends one SweepEntry
/// per built Plan under the current case label, never aborting (the CLI
/// reports at the end instead).
struct ExecRecorder {
  verify::SweepResult* out = nullptr;
  std::string label;
  int plan_index = 0;

  void arm(coll::CollRuntime& rt) {
    rt.set_plan_checker([this](const coll::Plan& plan, int comm_size) {
      verify::record(*out, label + ".plan" + std::to_string(plan_index++),
                     verify::analyze_plan(plan, comm_size));
      return std::string();  // record, don't abort
    });
  }
};

/// Every rank issues `issue(me)` and awaits the request.
void run_all(mpi::SimWorld& world,
             const std::function<mpi::Request(int)>& issue) {
  world.run([&](mpi::Rank& rank) -> sim::CoTask {
    return [](const std::function<mpi::Request(int)>& call,
              int me) -> sim::CoTask {
      mpi::Request r = call(me);
      co_await *r;
    }(issue, rank.world_rank);
  });
}

/// Execution matrix: drive HAN (and through it every submodule) on a
/// 2-node x 2-rank world, analyzing each Plan the runtime builds.
void run_exec(verify::SweepResult& out) {
  core::HanWorld hw(machine::make_aries(/*nodes=*/2, /*ppn=*/2));
  ExecRecorder rec;
  rec.out = &out;
  rec.arm(hw.rt);

  const mpi::Comm& wc = hw.world.world_comm();
  const std::size_t bytes = 64 << 10;
  const auto buf = [&](std::size_t b) {
    return mpi::BufView::timing_only(b, mpi::Datatype::Int32);
  };

  struct ConfigCase {
    const char* tag;
    core::HanConfig cfg;
  };
  std::vector<ConfigCase> cases;
  for (const char* smod : {"sm", "solo"}) {
    core::HanConfig libnbc;
    libnbc.fs = 16 << 10;
    libnbc.imod = "libnbc";
    libnbc.smod = smod;
    libnbc.ibalg = coll::Algorithm::Binomial;
    libnbc.iralg = coll::Algorithm::Binomial;
    cases.push_back({smod, libnbc});
    core::HanConfig adapt = libnbc;
    adapt.imod = "adapt";
    adapt.ibalg = coll::Algorithm::Chain;
    adapt.iralg = coll::Algorithm::Chain;
    adapt.ibs = 8 << 10;
    adapt.irs = 8 << 10;
    cases.push_back({smod, adapt});
  }

  for (const ConfigCase& c : cases) {
    const std::string prefix =
        std::string("exec.2x2.") + c.cfg.imod + "." + c.tag;
    rec.label = prefix + ".bcast";
    rec.plan_index = 0;
    run_all(hw.world, [&](int me) {
      return hw.han.ibcast_cfg(wc, me, 0, buf(bytes), mpi::Datatype::Int32,
                               c.cfg);
    });
    rec.label = prefix + ".reduce";
    rec.plan_index = 0;
    run_all(hw.world, [&](int me) {
      return hw.han.ireduce_cfg(wc, me, 0, buf(bytes), buf(bytes),
                                mpi::Datatype::Int32, mpi::ReduceOp::Sum,
                                c.cfg);
    });
    rec.label = prefix + ".allreduce";
    rec.plan_index = 0;
    run_all(hw.world, [&](int me) {
      return hw.han.iallreduce_cfg(wc, me, buf(bytes), buf(bytes),
                                   mpi::Datatype::Int32, mpi::ReduceOp::Sum,
                                   c.cfg);
    });
    rec.label = prefix + ".reduce_scatter";
    rec.plan_index = 0;
    run_all(hw.world, [&](int me) {
      return hw.han.ireduce_scatter_cfg(wc, me, buf(bytes),
                                        buf(bytes / wc.size()),
                                        mpi::Datatype::Int32,
                                        mpi::ReduceOp::Sum, c.cfg);
    });
  }

  // Ring inter module (reduce-scatter only).
  {
    core::HanConfig ring;
    ring.fs = 16 << 10;
    ring.imod = "ring";
    ring.smod = "sm";
    ring.ibalg = coll::Algorithm::Ring;
    ring.iralg = coll::Algorithm::Ring;
    rec.label = "exec.2x2.ring.sm.reduce_scatter";
    rec.plan_index = 0;
    run_all(hw.world, [&](int me) {
      return hw.han.ireduce_scatter_cfg(wc, me, buf(bytes),
                                        buf(bytes / wc.size()),
                                        mpi::Datatype::Int32,
                                        mpi::ReduceOp::Sum, ring);
    });
  }

  // The decider-driven entry points (gather/scatter/allgather/barrier).
  rec.label = "exec.2x2.default.gather";
  rec.plan_index = 0;
  run_all(hw.world, [&](int me) {
    return hw.han.igather(wc, me, 0, buf(bytes), buf(bytes * wc.size()),
                          coll::CollConfig{});
  });
  rec.label = "exec.2x2.default.scatter";
  rec.plan_index = 0;
  run_all(hw.world, [&](int me) {
    return hw.han.iscatter(wc, me, 0, buf(bytes * wc.size()), buf(bytes),
                           coll::CollConfig{});
  });
  rec.label = "exec.2x2.default.allgather";
  rec.plan_index = 0;
  run_all(hw.world, [&](int me) {
    return hw.han.iallgather(wc, me, buf(bytes), buf(bytes * wc.size()),
                             coll::CollConfig{});
  });
  rec.label = "exec.2x2.default.barrier";
  rec.plan_index = 0;
  run_all(hw.world, [&](int me) { return hw.han.ibarrier(wc, me); });

  hw.rt.set_plan_checker(nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  verify::SweepOptions opts;
  bool exec = true;
  bool quiet = false;
  std::string json_path;
  std::string lookup_path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--smoke") == 0) {
      opts.full_space = false;
    } else if (std::strcmp(a, "--no-plans") == 0) {
      opts.plans = false;
    } else if (std::strcmp(a, "--no-graphs") == 0) {
      opts.graphs = false;
    } else if (std::strcmp(a, "--no-exec") == 0) {
      exec = false;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(a, "--windows") == 0 && i + 1 < argc) {
      if (!verify::parse_windows(argv[++i], &opts.windows)) {
        std::fprintf(stderr, "han_verify: bad --windows list '%s'\n",
                     argv[i]);
        return 1;
      }
    } else if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      opts.jobs = han::par::parse_jobs(argv[++i]);
      if (opts.jobs < 0) {
        std::fprintf(stderr, "han_verify: bad --jobs value '%s'\n", argv[i]);
        return 1;
      }
    } else if (std::strcmp(a, "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(a, "--from-lookup") == 0 && i + 1 < argc) {
      lookup_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: han_verify [--smoke] [--no-plans] [--no-graphs] "
                   "[--no-exec] [--windows 1,2,3] [--jobs N] "
                   "[--from-lookup <path>] [--json <path>] [--quiet]\n");
      return std::strcmp(a, "--help") == 0 ? 0 : 1;
    }
  }

  verify::SweepResult result;
  if (!lookup_path.empty()) {
    const std::optional<tune::LookupTable> table =
        tune::LookupTable::load(lookup_path);
    if (!table.has_value()) {
      std::fprintf(stderr, "han_verify: cannot load lookup table '%s'\n",
                   lookup_path.c_str());
      return 1;
    }
    verify::verify_lookup(*table, result);
  } else {
    result = verify::run_sweep(opts);
    if (exec) run_exec(result);
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const verify::SweepEntry& a, const verify::SweepEntry& b) {
              return a.name < b.name;
            });

  if (!json_path.empty()) {
    const std::string j = result.to_json();
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "han_verify: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
  }
  if (!quiet) {
    std::fputs(result.summary().c_str(), stdout);
  }
  return result.total_errors() == 0 ? 0 : 2;
}
