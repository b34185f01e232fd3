#include "autotune/tunedb.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "simbase/assert.hpp"
#include "simbase/json.hpp"

namespace han::tune {

namespace {

// ---- FNV-1a 64 ------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (; n > 0; --n, ++p) {
    h ^= *p;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof v);
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return mix_u64(h, bits);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

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

// ---- MachineSignature ------------------------------------------------------

std::uint64_t MachineSignature::band(int log2_bytes) const {
  const int b = std::clamp(log2_bytes, 0, kBands - 1);
  return band_hash[b];
}

MachineSignature signature_of(const machine::MachineProfile& profile) {
  MachineSignature sig;
  sig.topo = profile.name + "." + std::to_string(profile.nodes) + "x" +
             std::to_string(profile.procs_per_node) + ".numa" +
             std::to_string(profile.numa_per_node);

  std::uint64_t h = fnv1a(kFnvOffset, sig.topo.data(), sig.topo.size());
  h = mix_double(h, profile.net_latency);
  h = mix_double(h, profile.nic_bandwidth);
  h = mix_double(h, profile.bisection_factor);
  h = mix_double(h, profile.shm_latency);
  h = mix_double(h, profile.membus_bandwidth);
  h = mix_double(h, profile.core_copy_bandwidth);
  h = mix_double(h, profile.inter_numa_bandwidth);
  h = mix_double(h, profile.inter_numa_latency);
  h = mix_double(h, profile.reduce_bandwidth_scalar);
  h = mix_double(h, profile.reduce_bandwidth_avx);
  h = mix_double(h, profile.jitter);
  h = mix_u64(h, profile.ompi_p2p.eager_limit);
  h = mix_double(h, profile.ompi_p2p.send_overhead);
  h = mix_double(h, profile.ompi_p2p.recv_overhead);
  h = mix_double(h, profile.ompi_p2p.match_overhead);
  h = mix_double(h, profile.ompi_p2p.rndv_rtt_extra);
  sig.scalar_hash = h;

  // Per-band curve hash: the interpolated efficiency sampled at four
  // points inside [2^b, 2^(b+1)). A knot edit moves at() across the whole
  // span between its neighboring knots, so every band that span reaches
  // changes hash — no band a perturbation can silently slip through.
  const machine::EffCurve& curve = profile.ompi_p2p.net_efficiency;
  for (int b = 0; b < MachineSignature::kBands; ++b) {
    std::uint64_t bh = mix_u64(sig.scalar_hash,
                               static_cast<std::uint64_t>(b));
    const std::uint64_t lo = std::uint64_t{1} << b;
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t bytes =
          lo + static_cast<std::uint64_t>(k) * (lo / 4);
      bh = mix_double(bh, curve.at(bytes));
    }
    sig.band_hash[b] = bh;
  }
  return sig;
}

// ---- TuneDb ----------------------------------------------------------------

LookupTable TuneDb::Record::table() const {
  LookupTable t;
  for (const auto& [key, entry] : entries) {
    t.insert(key.kind, key.nodes, key.ppn,
             std::size_t{1} << key.log2_bytes, entry.cfg);
  }
  return t;
}

const TuneDb::Record* TuneDb::find(const std::string& topo_key) const {
  auto it = records_.find(topo_key);
  return it == records_.end() ? nullptr : &it->second;
}

void TuneDb::ingest(const MachineSignature& sig, const LookupTable& table) {
  Record& rec = records_[sig.key()];
  rec.sig = sig;
  rec.revision += 1;
  rec.stamp = next_stamp_++;
  for (const auto& [key, cfg] : table.entries()) {
    rec.entries[key] = Entry{cfg, sig.band(key.log2_bytes)};
  }
}

std::vector<LookupTable::Key> TuneDb::stale_keys(
    const MachineSignature& sig,
    const std::vector<LookupTable::Key>& wanted) const {
  std::vector<LookupTable::Key> stale;
  const Record* rec = find(sig.key());
  for (const LookupTable::Key& key : wanted) {
    if (rec == nullptr) {
      stale.push_back(key);
      continue;
    }
    auto it = rec->entries.find(key);
    if (it == rec->entries.end() ||
        it->second.band_hash != sig.band(key.log2_bytes)) {
      stale.push_back(key);
    }
  }
  return stale;
}

int TuneDb::invalidate(const std::string& topo_key,
                       std::optional<coll::CollKind> kind) {
  auto it = records_.find(topo_key);
  if (it == records_.end()) return 0;
  if (!kind.has_value()) {
    const int n = static_cast<int>(it->second.entries.size());
    records_.erase(it);
    return n;
  }
  int n = 0;
  auto& entries = it->second.entries;
  for (auto e = entries.begin(); e != entries.end();) {
    if (e->first.kind == *kind) {
      e = entries.erase(e);
      ++n;
    } else {
      ++e;
    }
  }
  if (entries.empty()) records_.erase(it);
  return n;
}

int TuneDb::gc(std::size_t max_records) {
  if (records_.size() <= max_records) return 0;
  // Oldest ingest stamps go first; the map key breaks (impossible) ties
  // deterministically.
  std::vector<std::pair<std::uint64_t, std::string>> order;
  for (const auto& [key, rec] : records_) order.emplace_back(rec.stamp, key);
  std::sort(order.begin(), order.end());
  const std::size_t drop = records_.size() - max_records;
  for (std::size_t i = 0; i < drop; ++i) records_.erase(order[i].second);
  return static_cast<int>(drop);
}

std::size_t TuneDb::entry_count() const {
  std::size_t n = 0;
  for (const auto& [key, rec] : records_) n += rec.entries.size();
  return n;
}

std::string TuneDb::serialize() const {
  std::string out = "# HAN tuning database: machine signature -> tuned "
                    "configurations\n";
  out += "# see docs/TUNING_SERVICE.md for the format\n";
  out += "version " + std::to_string(kFormatVersion) + "\n";
  for (const auto& [key, rec] : records_) {
    out += "machine " + key + "\n";
    out += "revision " + std::to_string(rec.revision) + "\n";
    out += "stamp " + std::to_string(rec.stamp) + "\n";
    out += "scalar " + hex64(rec.sig.scalar_hash) + "\n";
    out += "bands";
    for (int b = 0; b < MachineSignature::kBands; ++b) {
      out += " " + hex64(rec.sig.band_hash[b]);
    }
    out += "\n";
    for (const auto& [ekey, entry] : rec.entries) {
      char line[96];
      std::snprintf(line, sizeof line, "entry %s %d %d %d %s : ",
                    coll::coll_kind_name(ekey.kind), ekey.nodes, ekey.ppn,
                    ekey.log2_bytes, hex64(entry.band_hash).c_str());
      out += line;
      out += entry.cfg.to_string();
      out += '\n';
    }
    out += "end\n";
  }
  return out;
}

bool TuneDb::deserialize(const std::string& text, TuneDb* out,
                         std::string* error) {
  TuneDb db;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool saw_version = false;
  Record* rec = nullptr;
  std::string rec_key;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "tunedb line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (!saw_version) {
      if (tag != "version") return fail("expected version header");
      int v = 0;
      std::string trailing;
      if (!(ls >> v) || ls >> trailing) return fail("malformed version");
      if (v < 1) return fail("bad version " + std::to_string(v));
      if (v > kFormatVersion) {
        return fail("format version " + std::to_string(v) +
                    " is newer than this build supports (" +
                    std::to_string(kFormatVersion) + ")");
      }
      saw_version = true;
      continue;
    }
    if (tag == "machine") {
      if (rec != nullptr) return fail("machine block missing 'end'");
      std::string key, trailing;
      if (!(ls >> key) || ls >> trailing) return fail("malformed machine");
      if (db.records_.count(key) != 0) {
        return fail("duplicate machine '" + key + "'");
      }
      rec = &db.records_[key];
      rec->sig.topo = key;
      rec_key = key;
    } else if (tag == "end") {
      if (rec == nullptr) return fail("'end' outside a machine block");
      rec = nullptr;
    } else if (rec == nullptr) {
      return fail("'" + tag + "' outside a machine block");
    } else if (tag == "revision") {
      if (!(ls >> rec->revision) || rec->revision < 1) {
        return fail("malformed revision");
      }
    } else if (tag == "stamp") {
      if (!(ls >> rec->stamp)) return fail("malformed stamp");
      db.next_stamp_ = std::max(db.next_stamp_, rec->stamp + 1);
    } else if (tag == "scalar") {
      std::string hex;
      if (!(ls >> hex) || !parse_hex64(hex, &rec->sig.scalar_hash)) {
        return fail("malformed scalar hash");
      }
    } else if (tag == "bands") {
      for (int b = 0; b < MachineSignature::kBands; ++b) {
        std::string hex;
        if (!(ls >> hex) || !parse_hex64(hex, &rec->sig.band_hash[b])) {
          return fail("malformed band hash " + std::to_string(b));
        }
      }
      std::string trailing;
      if (ls >> trailing) return fail("trailing band hash");
    } else if (tag == "entry") {
      std::string kind_s, hash_s, colon;
      int nodes = 0, ppn = 0, log2b = 0;
      if (!(ls >> kind_s >> nodes >> ppn >> log2b >> hash_s >> colon) ||
          colon != ":") {
        return fail("malformed entry");
      }
      bool ok = false;
      const coll::CollKind kind = parse_kind(kind_s, &ok);
      if (!ok || nodes <= 0 || ppn <= 0 || log2b < 0 ||
          log2b > LookupTable::kMaxBucket) {
        return fail("bad entry key");
      }
      Entry entry;
      if (!parse_hex64(hash_s, &entry.band_hash)) {
        return fail("bad entry band hash");
      }
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      if (!core::HanConfig::parse(rest, &entry.cfg)) {
        return fail("unparseable config '" + rest + "'");
      }
      rec->entries[LookupTable::Key{kind, nodes, ppn, log2b}] =
          std::move(entry);
    } else {
      return fail("unknown field '" + tag + "'");
    }
  }
  if (!saw_version) return fail("empty file (no version header)");
  if (rec != nullptr) return fail("unterminated machine block");
  *out = std::move(db);
  return true;
}

bool TuneDb::save(const std::string& path) const {
  errno = 0;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "TuneDb::save: cannot open '%s': %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  out << serialize();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "TuneDb::save: write to '%s' failed: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

std::optional<TuneDb> TuneDb::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  TuneDb db;
  std::string error;
  if (!deserialize(buf.str(), &db, &error)) {
    std::fprintf(stderr, "TuneDb::load: rejecting '%s': %s\n", path.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  return db;
}

std::string TuneDb::report_json() const {
  std::string j = "{\n  \"totals\": {\"records\": " +
                  std::to_string(records_.size()) +
                  ", \"entries\": " + std::to_string(entry_count()) +
                  "},\n  \"machines\": {\n";
  std::size_t i = 0;
  for (const auto& [key, rec] : records_) {
    std::map<std::string, int> kinds;
    for (const auto& [ekey, entry] : rec.entries) {
      kinds[coll::coll_kind_name(ekey.kind)] += 1;
    }
    j += "    " + sim::json_string(key) + ": {\"revision\": " +
         std::to_string(rec.revision) +
         ", \"stamp\": " + std::to_string(rec.stamp) + ", \"scalar\": \"" +
         hex64(rec.sig.scalar_hash) + "\", \"entries\": " +
         std::to_string(rec.entries.size()) + ", \"kinds\": {";
    std::size_t k = 0;
    for (const auto& [kname, count] : kinds) {
      if (k++ > 0) j += ", ";
      j += sim::json_string(kname) + ": " + std::to_string(count);
    }
    j += "}}";
    j += ++i < records_.size() ? ",\n" : "\n";
  }
  j += "  }\n}\n";
  return j;
}

// ---- warm_tune -------------------------------------------------------------

WarmStartReport warm_tune(TuneDb& db, Tuner& tuner,
                          const TunerOptions& options) {
  // Normalize like Tuner::tune so bucket bookkeeping matches what the
  // tuner would produce.
  const TunerOptions opts = options.normalized();

  WarmStartReport rep;
  const MachineSignature sig = signature_of(tuner.world().profile());
  const TuneDb::Record* rec = db.find(sig.key());
  rep.cold = rec == nullptr;

  core::Hierarchy& hc = tuner.han().flat_hierarchy(tuner.comm());
  const int nodes = hc.node_count();
  const int ppn = hc.max_ppn();

  // A collective re-tunes whole or not at all: its task benchmarks — the
  // entire tuning cost — are message-size independent, so once one bucket
  // is stale the remaining buckets of that kind are free anyway.
  TunerOptions inc = opts;
  inc.kinds.clear();
  for (coll::CollKind kind : opts.kinds) {
    std::vector<LookupTable::Key> wanted;
    for (std::size_t m : opts.message_sizes) {
      wanted.push_back(
          LookupTable::Key{kind, nodes, ppn, LookupTable::bucket_of(m)});
    }
    wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
    if (!db.stale_keys(sig, wanted).empty()) {
      inc.kinds.push_back(kind);
      rep.retuned_kinds.push_back(coll::coll_kind_name(kind));
      continue;
    }
    for (const LookupTable::Key& key : wanted) {
      auto it = rec->entries.find(key);
      HAN_ASSERT(it != rec->entries.end());
      rep.table.insert(key.kind, key.nodes, key.ppn,
                       std::size_t{1} << key.log2_bytes, it->second.cfg);
      ++rep.reused;
    }
  }

  if (!inc.kinds.empty()) {
    const TuneReport tr = tuner.tune(inc);
    rep.tuning_cost = tr.tuning_cost;
    for (const auto& [key, cfg] : tr.table.entries()) {
      rep.table.insert(key.kind, key.nodes, key.ppn,
                       std::size_t{1} << key.log2_bytes, cfg);
      ++rep.retuned;
    }
  }

  obs::MetricsRegistry& metrics = tuner.world().metrics();
  metrics.counter("tune.warm.reused").add(static_cast<double>(rep.reused));
  metrics.counter("tune.warm.retuned").add(static_cast<double>(rep.retuned));

  // Fully-warm passes leave the DB untouched (idempotent: no revision
  // churn); anything tuned — including a cold first contact — is recorded.
  if (rep.cold || rep.retuned > 0) db.ingest(sig, rep.table);
  return rep;
}

}  // namespace han::tune
