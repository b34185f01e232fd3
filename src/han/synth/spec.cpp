#include "han/synth/spec.hpp"

#include <algorithm>

#include "simbase/assert.hpp"

namespace han::synth {

namespace {

const char* kind_tag(coll::CollKind kind) {
  switch (kind) {
    case coll::CollKind::Allreduce: return "ar";
    case coll::CollKind::Bcast: return "bc";
    default: return nullptr;
  }
}

/// Parse a non-negative integer at s[pos..]; advances pos past the
/// digits. Returns -1 when no digit is present or the value overflows a
/// small sane bound (lags and leader counts are tiny).
int parse_small_int(const std::string& s, std::size_t* pos) {
  if (*pos >= s.size() || s[*pos] < '0' || s[*pos] > '9') return -1;
  int v = 0;
  while (*pos < s.size() && s[*pos] >= '0' && s[*pos] <= '9') {
    v = v * 10 + (s[*pos] - '0');
    if (v > 9999) return -1;
    ++*pos;
  }
  return v;
}

}  // namespace

const std::vector<std::string>& chain_roles(coll::CollKind kind,
                                            bool three_level) {
  // Filtered out of kChain once, indexed [bcast][three_level]: validate()
  // runs on every parsed id and every enumerated candidate.
  static const std::array<std::vector<std::string>, 4> kChains = [] {
    std::array<std::vector<std::string>, 4> chains;
    for (int c = 0; c < 4; ++c) {
      for (std::string_view role : kChain) {
        if (c >= 2 && role[1] != 'b') continue;     // bcast: ib, mb, sb
        if (c % 2 == 0 && role[0] == 'm') continue;  // flat: no mid roles
        chains[c].emplace_back(role);
      }
    }
    return chains;
  }();
  return kChains[(kind == coll::CollKind::Bcast ? 2 : 0) +
                 (three_level ? 1 : 0)];
}

std::string SynthSpec::id() const {
  std::string out = kind_tag(kind) == nullptr ? "??" : kind_tag(kind);
  out += std::to_string(kVersion);
  out += ":k" + std::to_string(leaders);
  if (sf != 1) out += ":r" + std::to_string(sf);
  out += ":";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out += '.';
    out += stages[i].role + std::to_string(stages[i].lag);
  }
  return out;
}

bool SynthSpec::parse(const std::string& text, SynthSpec* out) {
  SynthSpec spec;
  if (text.size() < 2) return false;
  const std::string tag = text.substr(0, 2);
  if (tag == "ar") {
    spec.kind = coll::CollKind::Allreduce;
  } else if (tag == "bc") {
    spec.kind = coll::CollKind::Bcast;
  } else {
    return false;
  }
  std::size_t pos = 2;
  const int version = parse_small_int(text, &pos);
  if (version != kVersion) return false;
  if (pos + 1 >= text.size() || text[pos] != ':' || text[pos + 1] != 'k') {
    return false;
  }
  pos += 2;
  spec.leaders = parse_small_int(text, &pos);
  if (spec.leaders < 0) return false;
  if (pos >= text.size() || text[pos] != ':') return false;
  ++pos;
  // Optional rail-stripe group ":r<sf>" (omitted at the sf=1 default).
  if (pos < text.size() && text[pos] == 'r' && pos + 1 < text.size() &&
      text[pos + 1] >= '0' && text[pos + 1] <= '9') {
    ++pos;
    spec.sf = parse_small_int(text, &pos);
    if (spec.sf < 0) return false;
    if (pos >= text.size() || text[pos] != ':') return false;
    ++pos;
  }
  // Stage list: role-lag pairs joined by '.'; at least one stage.
  while (true) {
    if (pos + 2 > text.size()) return false;
    StageSlot slot;
    slot.role = text.substr(pos, 2);
    if (chain_pos(slot.role) < 0) return false;
    pos += 2;
    slot.lag = parse_small_int(text, &pos);
    if (slot.lag < 0) return false;
    spec.stages.push_back(std::move(slot));
    if (pos == text.size()) break;
    if (text[pos] != '.') return false;
    ++pos;
  }
  if (!spec.validate().empty()) return false;
  *out = std::move(spec);
  return true;
}

int SynthSpec::lag_of(const std::string& role) const {
  for (const StageSlot& s : stages) {
    if (s.role == role) return s.lag;
  }
  return -1;
}

int SynthSpec::max_lag() const {
  int m = 0;
  for (const StageSlot& s : stages) m = std::max(m, s.lag);
  return m;
}

bool SynthSpec::three_level() const {
  for (const StageSlot& s : stages) {
    if (s.role == "mr" || s.role == "mb") return true;
  }
  return false;
}

std::string SynthSpec::validate() const {
  if (kind_tag(kind) == nullptr) {
    return "synth spec: unsupported collective kind";
  }
  const std::vector<std::string>& chain = chain_roles(kind, three_level());
  // Exactly the kind's stage multiset, each role once.
  if (stages.size() != chain.size()) {
    return "synth spec: expected " + std::to_string(chain.size()) +
           " stages, got " + std::to_string(stages.size());
  }
  for (const std::string& role : chain) {
    int count = 0;
    for (const StageSlot& s : stages) count += s.role == role;
    if (count != 1) {
      return "synth spec: stage '" + role + "' must appear exactly once";
    }
  }
  for (const StageSlot& s : stages) {
    if (s.lag < 0 || s.lag > kMaxLag) {
      return "synth spec: stage '" + s.role + "' lag " +
             std::to_string(s.lag) + " outside [0, " +
             std::to_string(kMaxLag) + "]";
    }
  }
  // Lag monotonicity along the dependency chain, head pinned to 0 (a
  // uniform shift only inserts idle steps).
  if (lag_of(chain.front()) != 0) {
    return "synth spec: chain head '" + chain.front() + "' must have lag 0";
  }
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const int prev = lag_of(chain[i - 1]);
    const int cur = lag_of(chain[i]);
    if (cur < prev) {
      return "synth spec: stage '" + chain[i] + "' lag " +
             std::to_string(cur) + " below its prerequisite '" +
             chain[i - 1] + "' lag " + std::to_string(prev);
    }
    if (cur == prev) {
      // Same step: the prerequisite must be emitted first so the builder
      // can reference it as a dependency (and the scheduler's in-step
      // dependency chaining works).
      std::size_t at_prev = 0, at_cur = 0;
      for (std::size_t j = 0; j < stages.size(); ++j) {
        if (stages[j].role == chain[i - 1]) at_prev = j;
        if (stages[j].role == chain[i]) at_cur = j;
      }
      if (at_cur < at_prev) {
        return "synth spec: stage '" + chain[i] +
               "' emitted before its equal-lag prerequisite '" +
               chain[i - 1] + "'";
      }
    }
  }
  if (leaders < 1 || leaders > kMaxLeaders) {
    return "synth spec: leaders " + std::to_string(leaders) +
           " outside [1, " + std::to_string(kMaxLeaders) + "]";
  }
  if (kind == coll::CollKind::Bcast && leaders != 1) {
    return "synth spec: bcast schedules are single-leader";
  }
  if (sf < 1 || sf > kMaxStripe) {
    return "synth spec: rail stripe " + std::to_string(sf) +
           " outside [1, " + std::to_string(kMaxStripe) + "]";
  }
  return "";
}

std::vector<StageSlot> canonical_chain(coll::CollKind kind,
                                       std::span<const task::Level> tiers) {
  const int d = static_cast<int>(tiers.size());
  auto role = [&](int l, char op) {
    const char lvl = l == 0                          ? 's'
                     : tiers[l] == task::Level::Mid ? 'm'
                                                     : 'i';
    return std::string{lvl, op};
  };
  std::vector<StageSlot> chain;
  chain.reserve(kind == coll::CollKind::Allreduce ? 2 * tiers.size()
                                                  : tiers.size());
  if (kind == coll::CollKind::Bcast && d == 2) {
    chain.push_back({role(0, 'b'), 1});
    chain.push_back({role(1, 'b'), 0});
  } else if (kind == coll::CollKind::Bcast) {
    for (int l = d - 1; l >= 0; --l) chain.push_back({role(l, 'b'), d - 1 - l});
  } else if (kind == coll::CollKind::Reduce) {
    for (int l = d - 1; l >= 0; --l) chain.push_back({role(l, 'r'), l});
  } else {
    HAN_ASSERT(kind == coll::CollKind::Allreduce);
    for (int l = 0; l < d; ++l) chain.push_back({role(l, 'r'), l});
    for (int l = d - 1; l >= 0; --l) {
      chain.push_back({role(l, 'b'), 2 * d - 1 - l});
    }
  }
  return chain;
}

SynthSpec SynthSpec::canonical(coll::CollKind kind) {
  return {kind, canonical_chain(kind, kFlatTiers)};
}

SynthSpec SynthSpec::canonical3(coll::CollKind kind) {
  return {kind, canonical_chain(kind, kNumaTiers)};
}

}  // namespace han::synth
