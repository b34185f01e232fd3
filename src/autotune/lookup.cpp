#include "autotune/lookup.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "simbase/assert.hpp"

namespace han::tune {

namespace {

coll::CollKind parse_kind(const std::string& s, bool* ok) {
  *ok = true;
  if (s == "bcast") return coll::CollKind::Bcast;
  if (s == "reduce") return coll::CollKind::Reduce;
  if (s == "allreduce") return coll::CollKind::Allreduce;
  if (s == "gather") return coll::CollKind::Gather;
  if (s == "scatter") return coll::CollKind::Scatter;
  if (s == "allgather") return coll::CollKind::Allgather;
  if (s == "barrier") return coll::CollKind::Barrier;
  if (s == "reduce_scatter") return coll::CollKind::ReduceScatter;
  *ok = false;
  return coll::CollKind::Bcast;
}

}  // namespace

int LookupTable::bucket_of(std::size_t bytes) {
  int b = 0;
  std::size_t v = bytes == 0 ? 1 : bytes;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

void LookupTable::insert(coll::CollKind kind, int nodes, int ppn,
                         std::size_t bytes, const core::HanConfig& cfg) {
  entries_[Key{kind, nodes, ppn, bucket_of(bytes)}] = cfg;
}

const core::HanConfig* LookupTable::find(coll::CollKind kind, int nodes,
                                         int ppn, std::size_t bytes) const {
  auto it = entries_.find(Key{kind, nodes, ppn, bucket_of(bytes)});
  return it == entries_.end() ? nullptr : &it->second;
}

core::HanConfig LookupTable::decide(coll::CollKind kind, int nodes, int ppn,
                                    std::size_t bytes) const {
  if (const core::HanConfig* exact = find(kind, nodes, ppn, bytes)) {
    return *exact;
  }
  // Nearest tuned bucket: prefer the same (n, p) shape with the closest
  // message bucket; otherwise the entry minimizing a shape+size distance.
  const int want = bucket_of(bytes);
  const core::HanConfig* best = nullptr;
  double best_dist = 0.0;
  for (const auto& [key, cfg] : entries_) {
    if (key.kind != kind) continue;
    const double shape_penalty =
        (key.nodes == nodes ? 0.0 : 64.0 + std::abs(std::log2(
                                               double(key.nodes) / nodes))) +
        (key.ppn == ppn ? 0.0 : 64.0 + std::abs(std::log2(
                                           double(key.ppn) / ppn)));
    const double dist = std::abs(key.log2_bytes - want) + shape_penalty;
    if (best == nullptr || dist < best_dist) {
      best = &cfg;
      best_dist = dist;
    }
  }
  if (best != nullptr) return *best;
  return core::HanModule::default_config(kind, nodes, ppn, bytes);
}

core::HanModule::Decider LookupTable::decider() const {
  return [table = *this](coll::CollKind kind, int nodes, int ppn,
                         std::size_t bytes) {
    return table.decide(kind, nodes, ppn, bytes);
  };
}

std::string LookupTable::serialize() const {
  std::string out = "# HAN autotuning lookup table\n";
  out += "# kind nodes ppn log2_bytes : config\n";
  out += "version " + std::to_string(kFormatVersion) + "\n";
  for (const auto& [key, cfg] : entries_) {
    char line[64];
    std::snprintf(line, sizeof(line), "%s %d %d %d : ",
                  coll::coll_kind_name(key.kind), key.nodes, key.ppn,
                  key.log2_bytes);
    out += line;
    out += cfg.to_string();
    out += '\n';
  }
  return out;
}

bool LookupTable::deserialize(const std::string& text, LookupTable* out) {
  LookupTable table;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The first non-comment line must be the "version 4" header: older
    // and version-less formats are rejected rather than misread.
    if (!saw_header) {
      std::istringstream vs(line);
      std::string word, trailing;
      int v = 0;
      if (!(vs >> word >> v) || word != "version" || v != kFormatVersion ||
          (vs >> trailing)) {
        return false;
      }
      saw_header = true;
      continue;
    }
    std::istringstream ls(line);
    std::string kind_s, colon;
    int nodes = 0, ppn = 0, log2b = 0;
    if (!(ls >> kind_s >> nodes >> ppn >> log2b >> colon) || colon != ":") {
      return false;
    }
    bool ok = false;
    const coll::CollKind kind = parse_kind(kind_s, &ok);
    if (!ok || nodes <= 0 || ppn <= 0 || log2b < 0 || log2b > kMaxBucket) {
      return false;
    }
    std::string rest;
    std::getline(ls, rest);
    // Trim the leading space after ':'.
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    core::HanConfig cfg;
    if (!core::HanConfig::parse(rest, &cfg)) return false;
    table.entries_[Key{kind, nodes, ppn, log2b}] = cfg;
  }
  if (!saw_header) return false;
  *out = std::move(table);
  return true;
}

bool LookupTable::save(const std::string& path) const {
  errno = 0;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "LookupTable::save: cannot open '%s': %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  out << serialize();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "LookupTable::save: write to '%s' failed: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

std::optional<LookupTable> LookupTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  LookupTable table;
  if (!deserialize(buf.str(), &table)) return std::nullopt;
  return table;
}

}  // namespace han::tune
