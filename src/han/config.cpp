#include "han/config.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "han/synth/spec.hpp"
#include "simbase/units.hpp"

namespace han::core {

namespace {

coll::Algorithm parse_alg(const std::string& s, bool* ok) {
  *ok = true;
  if (s == "chain") return coll::Algorithm::Chain;
  if (s == "binary") return coll::Algorithm::Binary;
  if (s == "binomial") return coll::Algorithm::Binomial;
  if (s == "linear") return coll::Algorithm::Linear;
  if (s == "recdoub") return coll::Algorithm::RecursiveDoubling;
  if (s == "ring") return coll::Algorithm::Ring;
  if (s == "default") return coll::Algorithm::Default;
  *ok = false;
  return coll::Algorithm::Default;
}

}  // namespace

std::string HanConfig::to_string() const {
  std::string out;
  out += "fs=" + sim::format_bytes(fs);
  out += " imod=" + imod;
  out += " smod=" + smod;
  out += " ibalg=" + std::string(coll::algorithm_name(ibalg));
  out += " iralg=" + std::string(coll::algorithm_name(iralg));
  out += " ibs=" + sim::format_bytes(ibs);
  out += " irs=" + sim::format_bytes(irs);
  out += " window=" + std::to_string(window);
  // Optional tokens only appear when non-default, so flat 2-level config
  // strings (and their goldens) are unchanged.
  if (lvl != 0) out += " lvl=" + std::to_string(lvl);
  if (malg != coll::Algorithm::Default) {
    out += " malg=" + std::string(coll::algorithm_name(malg));
  }
  if (ms != 0) out += " ms=" + sim::format_bytes(ms);
  if (zcs != 0) out += " zcs=" + sim::format_bytes(zcs);
  if (sf != 1) out += " sf=" + std::to_string(sf);
  if (!sched.empty()) out += " sched=" + sched;
  return out;
}

bool HanConfig::parse(const std::string& text, HanConfig* out) {
  HanConfig cfg;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eq = text.find('=', pos);
    if (eq == std::string::npos) return false;
    const std::string key = text.substr(pos, eq - pos);
    std::size_t end = text.find(' ', eq + 1);
    if (end == std::string::npos) end = text.size();
    const std::string value = text.substr(eq + 1, end - eq - 1);
    bool ok = true;
    if (key == "fs") {
      cfg.fs = sim::parse_bytes(value, &ok);
    } else if (key == "imod") {
      // Closed sets: a truncated module name must fail here, loudly, not
      // surface later as a missing-module assert (or worse, be cached).
      ok = value == "libnbc" || value == "adapt" || value == "ring";
      if (ok) cfg.imod = value;
    } else if (key == "smod") {
      ok = value == "sm" || value == "solo";
      if (ok) cfg.smod = value;
    } else if (key == "ibalg") {
      cfg.ibalg = parse_alg(value, &ok);
    } else if (key == "iralg") {
      cfg.iralg = parse_alg(value, &ok);
    } else if (key == "ibs") {
      cfg.ibs = sim::parse_bytes(value, &ok);
    } else if (key == "irs") {
      cfg.irs = sim::parse_bytes(value, &ok);
    } else if (key == "window") {
      char* rest = nullptr;
      const long v = std::strtol(value.c_str(), &rest, 10);
      // Checked against INT_MAX before the cast: 4294967297 must not wrap
      // to window 1.
      ok = rest != nullptr && *rest == '\0' && !value.empty() && v >= 1 &&
           v <= INT_MAX;
      if (ok) cfg.window = static_cast<int>(v);
    } else if (key == "lvl") {
      char* rest = nullptr;
      const long v = std::strtol(value.c_str(), &rest, 10);
      // 0 = derive; explicit depths must be plausible ladders. Anything
      // else (including the reserved 1) is rejected loudly.
      ok = rest != nullptr && *rest == '\0' && !value.empty() &&
           (v == 0 || (v >= 2 && v <= 8));
      if (ok) cfg.lvl = static_cast<int>(v);
    } else if (key == "malg") {
      cfg.malg = parse_alg(value, &ok);
    } else if (key == "ms") {
      cfg.ms = sim::parse_bytes(value, &ok);
    } else if (key == "zcs") {
      cfg.zcs = sim::parse_bytes(value, &ok);
    } else if (key == "sf") {
      char* rest = nullptr;
      const long v = std::strtol(value.c_str(), &rest, 10);
      // Stripe factors are small NIC counts; 64 bounds any plausible node.
      ok = rest != nullptr && *rest == '\0' && !value.empty() && v >= 1 &&
           v <= 64;
      if (ok) cfg.sf = static_cast<int>(v);
    } else if (key == "sched") {
      synth::SynthSpec spec;
      ok = synth::SynthSpec::parse(value, &spec);
      if (ok) cfg.sched = value;
    } else {
      ok = false;
    }
    if (!ok) return false;
    pos = end + (end < text.size() ? 1 : 0);
  }
  *out = cfg;
  return true;
}

}  // namespace han::core
