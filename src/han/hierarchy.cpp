#include "han/hierarchy.hpp"

#include <algorithm>
#include <map>

#include "simbase/assert.hpp"

namespace han::core {

namespace {

constexpr const char* kKnownLevels[] = {"numa", "node", "cluster"};

/// Which level-`name` domain does world rank `wr` live in? Domains are
/// global ids: every rank is in exactly one domain per level, and domains
/// nest (numa ⊂ node ⊂ cluster).
int domain_id(mpi::SimWorld& world, const std::string& name, int wr) {
  const mpi::Rank& rk = world.rank(wr);
  if (name == "numa") {
    const int domains = std::max(1, world.profile().numa_per_node);
    return rk.node * domains + rk.numa;
  }
  if (name == "node") return rk.node;
  HAN_ASSERT_MSG(name == "cluster", "unknown hierarchy level key");
  return 0;
}

}  // namespace

TopologyDescriptor TopologyDescriptor::flat() {
  return TopologyDescriptor{{"node", "cluster"}};
}

TopologyDescriptor TopologyDescriptor::from_profile(
    const machine::MachineProfile& p) {
  if (p.numa_per_node > 1) {
    return TopologyDescriptor{{"numa", "node", "cluster"}};
  }
  return flat();
}

std::string TopologyDescriptor::to_string() const {
  std::string out;
  for (const std::string& l : levels) {
    if (!out.empty()) out += '<';
    out += l;
  }
  return out;
}

bool TopologyDescriptor::parse(const std::string& text,
                               TopologyDescriptor* out) {
  TopologyDescriptor t;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t sep = text.find('<', pos);
    const std::string key = text.substr(
        pos, sep == std::string::npos ? std::string::npos : sep - pos);
    if (std::find(std::begin(kKnownLevels), std::end(kKnownLevels), key) ==
        std::end(kKnownLevels)) {
      return false;
    }
    t.levels.push_back(key);
    if (sep == std::string::npos) break;
    pos = sep + 1;
  }
  if (t.depth() < 2) return false;
  if (t.levels.back() != "cluster") return false;
  // Keys must appear in canonical innermost-to-outermost order, once each.
  std::size_t cursor = 0;
  for (const std::string& l : t.levels) {
    while (cursor < std::size(kKnownLevels) && l != kKnownLevels[cursor]) {
      ++cursor;
    }
    if (cursor == std::size(kKnownLevels)) return false;
    ++cursor;
  }
  *out = std::move(t);
  return true;
}

Hierarchy::Hierarchy(mpi::SimWorld& world, const mpi::Comm& parent,
                     TopologyDescriptor topo)
    : parent_(&parent), topo_(std::move(topo)) {
  const int n = parent.size();
  const int d = topo_.depth();
  HAN_ASSERT_MSG(d >= 2, "a hierarchy needs at least two levels");
  comms_.resize(d);
  ranks_.assign(d, std::vector<int>(n, -1));

  // Level 0: the innermost split. A flat descriptor uses the shared-memory
  // split (the paper's low_comm, exactly); deeper descriptors split by the
  // innermost domain key.
  if (d == 2) {
    comms_[0] = world.comm_split_shared(parent);
  } else {
    std::vector<int> color(n), key(n);
    for (int pr = 0; pr < n; ++pr) {
      color[pr] = domain_id(world, topo_.levels[0], parent.world_rank(pr));
      key[pr] = pr;
    }
    comms_[0] = world.comm_split(parent, color, key);
  }
  for (int pr = 0; pr < n; ++pr) {
    ranks_[0][pr] = comms_[0][pr]->comm_rank_of_world(parent.world_rank(pr));
  }

  // Levels 1..d-1: the slot families. Two ranks share a level-l comm iff
  // they sit in the same level-l domain and hold the same slot at every
  // lower level. Colors are dense first-seen ids: with the usual contiguous
  // placement they ascend with the slot tuple, so comm_split's sorted-color
  // group order reproduces HanComm's split-by-local-rank creation order.
  std::vector<int> color(n), key(n);
  std::vector<std::vector<int>> family(n);  // (domain, slot tuple) per rank
  for (int l = 1; l < d; ++l) {
    std::map<std::vector<int>, int> family_color;
    for (int pr = 0; pr < n; ++pr) {
      family[pr].assign(1, domain_id(world, topo_.levels[l],
                                     parent.world_rank(pr)));
      for (int j = 0; j < l; ++j) family[pr].push_back(ranks_[j][pr]);
      family_color.emplace(family[pr], 0);
    }
    // Dense color ids in (domain, slot tuple) order: for the flat
    // descriptor this is exactly HanComm's color = low_rank creation order.
    int next = 0;
    for (auto& [f, c] : family_color) c = next++;
    for (int pr = 0; pr < n; ++pr) {
      color[pr] = family_color.at(family[pr]);
      key[pr] = pr;
    }
    comms_[l] = world.comm_split(parent, color, key);
    for (int pr = 0; pr < n; ++pr) {
      ranks_[l][pr] = comms_[l][pr]->comm_rank_of_world(parent.world_rank(pr));
    }
  }

  node_count_ = comms_[d - 1][0] != nullptr ? comms_[d - 1][0]->size() : 1;
  for (int pr = 0; pr < n; ++pr) {
    int below = 1;
    for (int l = 0; l + 1 < d; ++l) below *= comms_[l][pr]->size();
    max_ppn_ = std::max(max_ppn_, below);
  }

  for (int pr = 1; pr < n && node_contiguous_; ++pr) {
    // Parent ranks on the same node must be consecutive.
    if (comms_[0][pr] == comms_[0][pr - 1]) {
      node_contiguous_ = ranks_[0][pr] == ranks_[0][pr - 1] + 1;
    } else {
      node_contiguous_ = ranks_[0][pr] == 0;
    }
  }

  // Record the distinct splits before degenerate top comms are forgotten
  // below — they exist in the world either way and must be freed with the
  // parent.
  for (const auto& vec : comms_) {
    for (mpi::Comm* c : vec) {
      if (c != nullptr && std::find(sub_comms_.begin(), sub_comms_.end(), c) ==
                              sub_comms_.end()) {
        sub_comms_.push_back(c);
      }
    }
  }

  if (node_count_ <= 1) {
    // The leader chain's top family has a single member: no data can cross
    // the top level, so the whole family layer collapses (the single-node
    // rule of the 2-level seed, applied to the outermost level).
    std::fill(comms_[d - 1].begin(), comms_[d - 1].end(), nullptr);
    std::fill(ranks_[d - 1].begin(), ranks_[d - 1].end(), -1);
  }

  auto live = [&](int l) {
    return std::any_of(comms_[l].begin(), comms_[l].end(),
                       [](const mpi::Comm* c) {
                         return c != nullptr && c->size() > 1;
                       });
  };
  int top = d - 1;
  while (top > 0 && !live(top)) --top;
  if (top > 0 || live(0)) {
    for (int l = 0; l <= top; ++l) live_.push_back(l);
  }
  for (std::size_t i = 0; live_.size() > 2 && i + 1 < live_.size();) {
    if (live(live_[i])) {
      ++i;
    } else {
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

bool Hierarchy::leader_below(int l, int pr) const {
  for (int j = 0; j < l; ++j) {
    if (ranks_[j][pr] != 0) return false;
  }
  return true;
}

bool Hierarchy::same_slots_below(int l, int a, int b) const {
  for (int j = 0; j < l; ++j) {
    if (ranks_[j][a] != ranks_[j][b]) return false;
  }
  return true;
}

}  // namespace han::core
