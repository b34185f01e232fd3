#include "han/synth/generator.hpp"

#include <algorithm>
#include <string>

namespace han::synth {

namespace {

void push_if_valid(std::vector<SynthSpec>& out, SynthSpec spec) {
  if (spec.validate().empty()) out.push_back(std::move(spec));
}

}  // namespace

std::vector<SynthSpec> enumerate_specs(coll::CollKind kind, int ppn,
                                       const GeneratorOptions& opts) {
  const std::vector<std::string> chain = chain_roles(kind, opts.three_level);
  const int links = static_cast<int>(chain.size()) - 1;
  const int slack = std::max(opts.max_extra_lag, 0);

  // Lag assignments: chain head at 0, each link delta in [0, slack].
  std::vector<std::vector<int>> lag_sets;
  std::vector<int> deltas(links, 0);
  for (;;) {
    std::vector<int> lags(chain.size(), 0);
    for (int l = 0; l < links; ++l) lags[l + 1] = lags[l] + deltas[l];
    lag_sets.push_back(std::move(lags));
    int carry = links - 1;
    while (carry >= 0 && deltas[carry] == slack) deltas[carry--] = 0;
    if (carry < 0) break;
    ++deltas[carry];
  }

  // Leader counts, clamped and deduplicated (bcast is single-leader; the
  // validate() call filters k > 1 there).
  std::vector<int> ks;
  for (int k : opts.leader_counts) {
    const int kk = std::max(1, std::min(k, ppn));
    if (std::find(ks.begin(), ks.end(), kk) == ks.end()) ks.push_back(kk);
  }
  std::sort(ks.begin(), ks.end());

  // Rail-stripe factors, clamped to the machine's rails: a single-rail
  // machine enumerates exactly the pre-rail grammar.
  std::vector<int> sfs;
  for (int s : opts.stripe_factors) {
    const int ss = std::max(1, std::min(s, std::max(1, opts.rails)));
    if (std::find(sfs.begin(), sfs.end(), ss) == sfs.end()) sfs.push_back(ss);
  }
  if (sfs.empty()) sfs.push_back(1);
  std::sort(sfs.begin(), sfs.end());

  std::vector<SynthSpec> out;
  // Emission orders: every permutation of the chain's stages
  // (std::next_permutation over indices; validate() rejects orders that
  // emit a stage before its equal-lag prerequisite). The six-stage
  // three-level chain would permute 720 ways — there only the chain-order
  // emission enumerates, and mutate_spec's adjacent swaps explore order
  // locally around the pareto frontier instead.
  std::vector<int> perm(chain.size());
  for (std::size_t j = 0; j < perm.size(); ++j) perm[j] = static_cast<int>(j);
  std::sort(perm.begin(), perm.end());
  do {
    for (const std::vector<int>& lags : lag_sets) {
      for (int k : ks) {
        for (int s : sfs) {
          SynthSpec spec;
          spec.kind = kind;
          spec.leaders = k;
          spec.sf = s;
          for (int idx : perm) {
            spec.stages.push_back({chain[idx], lags[idx]});
          }
          push_if_valid(out, std::move(spec));
        }
      }
    }
  } while (!opts.three_level &&
           std::next_permutation(perm.begin(), perm.end()));

  std::sort(out.begin(), out.end(),
            [](const SynthSpec& a, const SynthSpec& b) {
              return a.id() < b.id();
            });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

SynthSpec mutate_spec(const SynthSpec& base, sim::Rng& rng, int ppn,
                      int rails) {
  SynthSpec spec = base;
  // The rail-stripe move only enters the rotation on multi-rail machines,
  // keeping single-rail mutation sequences identical to the pre-rail ones.
  switch (rng.next_below(rails > 1 ? 4 : 3)) {
    case 0: {  // bump one stage's lag by +-1
      const std::size_t at = rng.next_below(spec.stages.size());
      const int delta = rng.next_below(2) == 0 ? -1 : 1;
      spec.stages[at].lag += delta;
      break;
    }
    case 1: {  // swap two adjacent stages in the emission order
      if (spec.stages.size() >= 2) {
        const std::size_t at = rng.next_below(spec.stages.size() - 1);
        std::swap(spec.stages[at], spec.stages[at + 1]);
      }
      break;
    }
    case 2: {  // halve or double the leader stripe count
      const int k =
          rng.next_below(2) == 0 ? spec.leaders / 2 : spec.leaders * 2;
      spec.leaders = std::max(1, std::min(k, ppn));
      break;
    }
    default: {  // halve or double the rail-stripe factor
      const int s = rng.next_below(2) == 0 ? spec.sf / 2 : spec.sf * 2;
      spec.sf = std::max(1, std::min(s, std::max(1, rails)));
      break;
    }
  }
  return spec;
}

}  // namespace han::synth
