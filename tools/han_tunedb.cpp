// han_tunedb — the persistent tuning database service CLI
// (docs/TUNING_SERVICE.md).
//
//   han_tunedb query      --db FILE [--json]
//   han_tunedb tune       --db FILE [machine opts] [--sizes 64K,1M]
//                         [--jobs N] [--json] [--quiet]
//   han_tunedb ingest     --db FILE --table FILE [machine opts]
//   han_tunedb invalidate --db FILE --key TOPO [--kind bcast]
//   han_tunedb gc         --db FILE --keep N
//
// machine opts: --machine aries|opath (default aries), --nodes N (8),
//   --ppn P (4), --numa D (1), --perturb-eff F@BYTES (scale the P2P
//   efficiency-curve knots at or above BYTES by F — models a firmware or
//   driver change so staleness detection can be exercised).
//
// `tune` is the fleet workflow: fingerprint the machine, reuse every
// fresh bucket from the DB, re-tune only collectives with stale or
// missing buckets, write the DB back. A fully-warm pass costs zero
// simulated benchmark seconds and leaves the DB byte-identical.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "autotune/tunedb.hpp"
#include "cli.hpp"
#include "coll/module.hpp"
#include "coll/runtime.hpp"
#include "han/han.hpp"
#include "parallel/pool.hpp"
#include "simbase/json.hpp"
#include "simbase/units.hpp"

namespace {

using namespace han;

struct MachineArgs {
  std::string family = "aries";
  int nodes = 8;
  int ppn = 4;
  int numa = 1;
  double perturb_factor = 1.0;
  std::uint64_t perturb_min_bytes = 0;
  bool perturbed = false;
};

/// "F@BYTES", e.g. "0.8@2M": scale factor F applied from BYTES upward.
bool parse_perturb(const char* arg, MachineArgs* m) {
  const char* at = std::strchr(arg, '@');
  if (at == nullptr || at == arg || at[1] == '\0') return false;
  char* end = nullptr;
  m->perturb_factor = std::strtod(arg, &end);
  if (end != at || m->perturb_factor <= 0.0) return false;
  bool ok = false;
  m->perturb_min_bytes = sim::parse_bytes(at + 1, &ok);
  m->perturbed = ok && m->perturb_min_bytes > 0;
  return m->perturbed;
}

std::optional<machine::MachineProfile> build_profile(const MachineArgs& m) {
  machine::MachineProfile profile;
  if (m.family == "aries") {
    profile = machine::make_aries(m.nodes, m.ppn);
  } else if (m.family == "opath") {
    profile = machine::make_opath(m.nodes, m.ppn);
  } else {
    std::fprintf(stderr, "han_tunedb: unknown --machine '%s'\n",
                 m.family.c_str());
    return std::nullopt;
  }
  if (m.numa > 1) profile = machine::with_numa(std::move(profile), m.numa);
  if (m.perturbed) {
    machine::scale_net_efficiency(profile, m.perturb_factor,
                                  m.perturb_min_bytes);
  }
  return profile;
}

int usage(bool ok) {
  std::fprintf(
      ok ? stdout : stderr,
      "usage: han_tunedb <query|tune|ingest|invalidate|gc> --db FILE\n"
      "  query      [--json]\n"
      "  tune       [--machine aries|opath] [--nodes N] [--ppn P]\n"
      "             [--numa D] [--perturb-eff F@BYTES] [--sizes 64K,1M]\n"
      "             [--jobs N] [--json] [--quiet]\n"
      "  ingest     --table FILE [machine opts]\n"
      "  invalidate --key TOPO [--kind bcast]\n"
      "  gc         --keep N\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(false);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") return usage(true);

  std::string db_path, table_path, key, kind_name;
  MachineArgs m;
  std::vector<std::size_t> sizes;
  int jobs = 1;
  long keep = -1;
  bool json = false;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_val = i + 1 < argc;
    bool ok = true;  // false: a malformed or out-of-range value
    if (std::strcmp(a, "--db") == 0 && has_val) {
      db_path = argv[++i];
    } else if (std::strcmp(a, "--table") == 0 && has_val) {
      table_path = argv[++i];
    } else if (std::strcmp(a, "--key") == 0 && has_val) {
      key = argv[++i];
    } else if (std::strcmp(a, "--kind") == 0 && has_val) {
      kind_name = argv[++i];
    } else if (std::strcmp(a, "--machine") == 0 && has_val) {
      m.family = argv[++i];
    } else if (std::strcmp(a, "--nodes") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 1, &m.nodes);
    } else if (std::strcmp(a, "--ppn") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 1, &m.ppn);
    } else if (std::strcmp(a, "--numa") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 1, &m.numa);
    } else if (std::strcmp(a, "--perturb-eff") == 0 && has_val) {
      ok = parse_perturb(argv[++i], &m);
    } else if (std::strcmp(a, "--sizes") == 0 && has_val) {
      ok = cli::size_list(argv[++i], /*ascending=*/false, &sizes);
    } else if (std::strcmp(a, "--jobs") == 0 && has_val) {
      jobs = par::parse_jobs(argv[++i]);
      ok = jobs >= 0;
    } else if (std::strcmp(a, "--keep") == 0 && has_val) {
      ok = cli::int_arg(argv[++i], 0L, &keep);
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      return usage(std::strcmp(a, "--help") == 0);
    }
    if (!ok) return cli::bad_value("han_tunedb", a, argv[i]);
  }
  if (db_path.empty()) {
    std::fprintf(stderr, "han_tunedb: --db is required\n");
    return 1;
  }
  if (m.nodes < 2 || m.ppn < 1) {
    std::fprintf(stderr, "han_tunedb: need --nodes >= 2 and --ppn >= 1\n");
    return 1;
  }

  // A missing DB file is an empty fleet; a malformed one is an error
  // (load() already printed why).
  tune::TuneDb db;
  {
    std::FILE* f = std::fopen(db_path.c_str(), "r");
    if (f != nullptr) {
      std::fclose(f);
      std::optional<tune::TuneDb> loaded = tune::TuneDb::load(db_path);
      if (!loaded.has_value()) return 1;
      db = std::move(*loaded);
    }
  }

  if (cmd == "query") {
    std::fputs(db.report_json().c_str(), stdout);
    return 0;
  }

  if (cmd == "tune") {
    std::optional<machine::MachineProfile> profile = build_profile(m);
    if (!profile.has_value()) return 1;
    core::HanWorld hw(std::move(*profile));
    tune::Tuner tuner(hw.world, hw.han, hw.world.world_comm());
    tune::TunerOptions opts;
    if (!sizes.empty()) opts.message_sizes = sizes;
    opts.jobs = jobs;
    const tune::WarmStartReport rep = tune::warm_tune(db, tuner, opts);
    if (!db.save(db_path)) return 1;
    if (json) {
      std::string j =
          "{\n  \"machine\": " +
          sim::json_string(tune::signature_of(hw.world.profile()).key()) +
          ",\n  \"cold\": " + (rep.cold ? "true" : "false") +
          ",\n  \"reused\": " + std::to_string(rep.reused) +
          ",\n  \"retuned\": " + std::to_string(rep.retuned) +
          ",\n  \"tuning_cost\": " + sim::json_number(rep.tuning_cost) +
          ",\n  \"retuned_kinds\": [";
      for (std::size_t i = 0; i < rep.retuned_kinds.size(); ++i) {
        if (i > 0) j += ", ";
        j += sim::json_string(rep.retuned_kinds[i]);
      }
      j += "]\n}\n";
      std::fputs(j.c_str(), stdout);
    } else if (!quiet) {
      std::printf("han_tunedb: %s %s: reused %d, retuned %d, cost %s s\n",
                  rep.cold ? "cold-tuned" : "warm-tuned",
                  tune::signature_of(hw.world.profile()).key().c_str(),
                  rep.reused, rep.retuned,
                  sim::json_number(rep.tuning_cost).c_str());
    }
    return 0;
  }

  if (cmd == "ingest") {
    if (table_path.empty()) {
      std::fprintf(stderr, "han_tunedb ingest: --table is required\n");
      return 1;
    }
    std::optional<tune::LookupTable> table =
        tune::LookupTable::load(table_path);
    if (!table.has_value()) {
      std::fprintf(stderr, "han_tunedb: cannot load lookup table '%s'\n",
                   table_path.c_str());
      return 1;
    }
    std::optional<machine::MachineProfile> profile = build_profile(m);
    if (!profile.has_value()) return 1;
    db.ingest(tune::signature_of(*profile), *table);
    if (!db.save(db_path)) return 1;
    if (!quiet) {
      std::printf("han_tunedb: ingested %zu entries for %s\n",
                  table->size(),
                  tune::signature_of(*profile).key().c_str());
    }
    return 0;
  }

  if (cmd == "invalidate") {
    if (key.empty()) {
      std::fprintf(stderr, "han_tunedb invalidate: --key is required\n");
      return 1;
    }
    std::optional<coll::CollKind> kind;
    if (!kind_name.empty()) {
      bool found = false;
      for (coll::CollKind k :
           {coll::CollKind::Bcast, coll::CollKind::Reduce,
            coll::CollKind::Allreduce, coll::CollKind::Gather,
            coll::CollKind::Scatter, coll::CollKind::Allgather,
            coll::CollKind::Barrier, coll::CollKind::ReduceScatter}) {
        if (kind_name == coll::coll_kind_name(k)) {
          kind = k;
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "han_tunedb: unknown --kind '%s'\n",
                     kind_name.c_str());
        return 1;
      }
    }
    const int removed = db.invalidate(key, kind);
    if (!db.save(db_path)) return 1;
    if (!quiet) {
      std::printf("han_tunedb: invalidated %d entries of '%s'\n", removed,
                  key.c_str());
    }
    return 0;
  }

  if (cmd == "gc") {
    if (keep < 0) {
      std::fprintf(stderr, "han_tunedb gc: --keep N is required\n");
      return 1;
    }
    const int dropped = db.gc(static_cast<std::size_t>(keep));
    if (!db.save(db_path)) return 1;
    if (!quiet) {
      std::printf("han_tunedb: dropped %d records, kept %zu\n", dropped,
                  db.record_count());
    }
    return 0;
  }

  return usage(false);
}
