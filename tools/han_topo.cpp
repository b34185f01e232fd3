// han_topo — print the hierarchy derived from a topology descriptor
// (docs/HIERARCHY.md) as obs-style JSON.
//
//   han_topo [--machine aries|opath] [--nodes N] [--ppn P] [--numa D]
//            [--stock NAME] [--topo DESC] [--out FILE]
//
// The default machine is aries 8x4 flat. --stock picks a registered stock
// machine by name (see `--stock list`). --topo overrides the derived
// descriptor (e.g. --topo node<cluster forces the flat 2-level split on a
// NUMA machine). Output goes to stdout unless --out is given.
//
// The JSON records, per level: the level key, the runtime label the
// scheduler observes ("intra"/"mid"/"inter"), the number of distinct
// communicator families, the family size, and whether any data crosses
// the level (live). Per rank it records the slot coordinates — rank(l,pr)
// at each level — and whether the rank sits on the leader chain.
//
// Exit status: 0 = printed, 1 = a malformed or non-positive --nodes/--ppn/
// --numa value or an unwritable --out file, 2 = any other bad argument.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli.hpp"
#include "han/hierarchy.hpp"
#include "simbase/json.hpp"

namespace {

using namespace han;

int usage(bool ok) {
  std::fprintf(
      ok ? stdout : stderr,
      "usage: han_topo [--machine aries|opath] [--nodes N] [--ppn P]\n"
      "                [--numa D] [--stock NAME|list] [--topo DESC]\n"
      "                [--out FILE]\n");
  return ok ? 0 : 2;
}

std::string level_label(const core::Hierarchy& h, int l) {
  if (l == 0) return "intra";
  if (l == h.depth() - 1) return "inter";
  return "mid";
}

}  // namespace

int main(int argc, char** argv) {
  std::string family = "aries";
  int nodes = 8, ppn = 4, numa = 1;
  std::string stock, topo_text, out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--machine") {
      const char* v = next();
      if (v == nullptr) return usage(false);
      family = v;
    } else if (a == "--nodes" || a == "--ppn" || a == "--numa") {
      const char* v = next();
      if (v == nullptr) return usage(false);
      int& n = a == "--nodes" ? nodes : a == "--ppn" ? ppn : numa;
      if (!cli::int_arg(v, 1, &n)) {
        return cli::bad_value("han_topo", a.c_str(), v);
      }
    } else if (a == "--stock") {
      const char* v = next();
      if (v == nullptr) return usage(false);
      stock = v;
    } else if (a == "--topo") {
      const char* v = next();
      if (v == nullptr) return usage(false);
      topo_text = v;
    } else if (a == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(false);
      out_path = v;
    } else if (a == "--help" || a == "-h") {
      return usage(true);
    } else {
      std::fprintf(stderr, "han_topo: unknown argument '%s'\n", a.c_str());
      return usage(false);
    }
  }

  if (stock == "list") {
    for (const machine::StockMachine& sm : machine::stock_machines()) {
      std::printf("%s\n", sm.name);
    }
    return 0;
  }

  machine::MachineProfile profile;
  if (!stock.empty()) {
    bool found = false;
    for (const machine::StockMachine& sm : machine::stock_machines()) {
      if (stock == sm.name) {
        profile = sm.profile;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "han_topo: unknown --stock '%s' (try list)\n",
                   stock.c_str());
      return 2;
    }
  } else if (!machine::make_stock(family, nodes, ppn, numa, &profile)) {
    std::fprintf(stderr, "han_topo: unknown --machine '%s'\n",
                 family.c_str());
    return 2;
  }

  core::TopologyDescriptor topo =
      core::TopologyDescriptor::from_profile(profile);
  if (!topo_text.empty() &&
      !core::TopologyDescriptor::parse(topo_text, &topo)) {
    std::fprintf(stderr, "han_topo: malformed --topo '%s'\n",
                 topo_text.c_str());
    return 2;
  }

  mpi::SimWorld world(profile);
  core::Hierarchy h(world, world.world_comm(), topo);
  const int n = world.world_size();

  using sim::json_string;
  std::string j = "{\n";
  j += "  \"machine\": " + json_string(profile.name) + ",\n";
  j += "  \"nodes\": " + std::to_string(profile.nodes) + ",\n";
  j += "  \"ppn\": " + std::to_string(profile.procs_per_node) + ",\n";
  j += "  \"numa_per_node\": " + std::to_string(profile.numa_per_node) +
       ",\n";
  j += "  \"descriptor\": " + json_string(topo.to_string()) + ",\n";
  j += "  \"depth\": " + std::to_string(h.depth()) + ",\n";
  j += "  \"world_size\": " + std::to_string(n) + ",\n";
  j += "  \"node_count\": " + std::to_string(h.node_count()) + ",\n";
  j += "  \"max_ppn\": " + std::to_string(h.max_ppn()) + ",\n";
  j += "  \"levels\": [\n";
  for (int l = 0; l < h.depth(); ++l) {
    std::vector<int> contexts;
    int max_size = 0;
    bool live = false;
    for (int pr = 0; pr < n; ++pr) {
      const mpi::Comm* c = h.comm(l, pr);
      if (c == nullptr) continue;
      if (c->size() > max_size) max_size = c->size();
      if (c->size() > 1) live = true;
      bool seen = false;
      for (int ctx : contexts) seen = seen || ctx == c->context();
      if (!seen) contexts.push_back(c->context());
    }
    j += "    {\"index\": " + std::to_string(l) +
         ", \"name\": " + json_string(h.level_name(l)) +
         ", \"label\": " + json_string(level_label(h, l)) +
         ", \"families\": " + std::to_string(contexts.size()) +
         ", \"size\": " + std::to_string(max_size) + ", \"live\": " +
         (live ? "true" : "false") + "}" + (l + 1 < h.depth() ? "," : "") +
         "\n";
  }
  j += "  ],\n";
  j += "  \"ranks\": [\n";
  for (int pr = 0; pr < n; ++pr) {
    j += "    {\"rank\": " + std::to_string(pr) + ", \"slots\": [";
    for (int l = 0; l < h.depth(); ++l) {
      j += std::to_string(h.rank(l, pr));
      if (l + 1 < h.depth()) j += ", ";
    }
    j += "], \"leader\": ";
    j += h.leader_below(h.depth() - 1, pr) ? "true" : "false";
    j += std::string("}") + (pr + 1 < n ? "," : "") + "\n";
  }
  j += "  ]\n";
  j += "}\n";

  if (out_path.empty()) {
    std::fwrite(j.data(), 1, j.size(), stdout);
    return 0;
  }
  if (!cli::write_file("han_topo", out_path, j)) return 1;
  std::printf("topo json: %s\n", out_path.c_str());
  return 0;
}
