// SynthSpec: the serializable identity of a hierarchical pipeline
// schedule (docs/SYNTHESIS.md), and the one description of a pipeline.
//
// A HAN collective's stepped pipeline is an ordered stage list: each
// stage is a role (sr/ir/ib/sb, mr/mb on a mid level) with a pipeline
// lag, and stage s contributes the task for segment (t - lag_s) at step
// t. canonical_chain() generates the default schedule of every pipeline
// builder on the ladder it resolves — the paper's stage lags
// (sr0.ir1.ib2.sb3 for allreduce) and per-step emission order, one role
// per live level. A SynthSpec names any point of the bounded generator
// grammar around it: the stage list plus a leader (stripe) count.
// Together with the ordinary Table II knobs carried by HanConfig (fs,
// imod, smod, algorithms, window) it fully determines a TaskGraph, built
// by the ladder builders task::build_bcast / task::build_allreduce — so a
// synthesized schedule can be cached in the autotuner LookupTable and
// dispatched exactly like a tuned configuration (HanConfig::sched).
//
// The id grammar is space-free (HanConfig::to_string tokens are
// space-separated) and versioned:
//
//   allreduce:  ar1:k<leaders>[:r<sf>]:sr<lag>.ir<lag>.ib<lag>.sb<lag>
//   bcast:      bc1:k1[:r<sf>]:ib<lag>.sb<lag>
//
// Reduce has a canonical chain but no id grammar: parse() rejects any
// reduce id.
//
// Three-level schedules (derived NUMA ladders, docs/HIERARCHY.md) add the
// mid roles "mr"/"mb" to the same grammar — the dependency chain grows to
// sr.mr.ir.ib.mb.sb (ib.mb.sb for bcast) whenever either mid role appears.
// Multi-rail schedules (docs/FABRIC.md) add the optional rail-stripe
// group ":r<sf>" after the leader count — each inter stage splits into sf
// rail-pinned slices; the token is omitted at the sf=1 default. Both are
// pure grammar extensions that leave every previously valid id unchanged,
// so kVersion stays 1.
//
// Stage order in the id IS the per-step emission order (it fixes the
// per-comm FIFO order, so it is semantically meaningful). parse()
// round-trips id() exactly and rejects any malformed or truncated id
// loudly; validate() holds the semantic rules (lag monotonicity along the
// dependency chain, prerequisite-first order for equal lags) that make the
// built graph well-formed by construction.
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coll/types.hpp"
#include "han/task/graph.hpp"

namespace han::synth {

/// Every stage role in dependency order, prerequisite first: the reduce
/// stages ascend the ladder (sr → mr → ir), the bcast stages descend it
/// (ib → mb → sb). Each kind's chain (chain_roles) is a subsequence, and a
/// stage's prerequisite is the nearest earlier role a spec contains. The
/// validator, the generator and both cost walks (synth and tuner) read
/// this one table.
inline constexpr std::array<std::string_view, 6> kChain{"sr", "mr", "ir",
                                                        "ib", "mb", "sb"};

/// Position of `role` in kChain; -1 for an unknown role.
constexpr int chain_pos(std::string_view role) {
  for (std::size_t p = 0; p < kChain.size(); ++p) {
    if (kChain[p] == role) return static_cast<int>(p);
  }
  return -1;
}

/// The dependency chain of one kind: allreduce walks all of kChain, bcast
/// its descending half; flat chains skip the mid roles.
const std::vector<std::string>& chain_roles(coll::CollKind kind,
                                            bool three_level);

/// One pipeline stage: the stage role — s*/m*/i* for the intra, mid and
/// inter level, *r/*b for reduce and bcast — and its pipeline lag:
/// segment index at step t is t - lag.
struct StageSlot {
  std::string role;  // "sr" | "ir" | "ib" | "sb" | "mr" | "mb"
  int lag = 0;

  friend bool operator==(const StageSlot&, const StageSlot&) = default;
};

/// The canonical chain of `kind` on a resolved ladder whose tiers,
/// innermost first, run at `tiers`. One role per live tier and direction,
/// named by the tier's level: tier 0 is s*, a Mid tier m*, the Inter tier
/// i*. Lags and emission order:
///  - bcast: sb1.ib0 at depth 2 (sb of the previous segment emitted
///    first); deeper ladders top-down, tier l lagging depth-1-l
///    (ib0.mb1.sb2);
///  - reduce: top-down, tier l lagging l (ir1.sr0);
///  - allreduce: the reduces up the ladder, tier l lagging l, then the
///    bcasts down it, tier l lagging 2*depth-1-l (sr0.ir1.ib2.sb3).
std::vector<StageSlot> canonical_chain(coll::CollKind kind,
                                       std::span<const task::Level> tiers);

/// The paper's flat ladder and the derived NUMA ladder, innermost first.
inline constexpr std::array<task::Level, 2> kFlatTiers{task::Level::Intra,
                                                       task::Level::Inter};
inline constexpr std::array<task::Level, 3> kNumaTiers{
    task::Level::Intra, task::Level::Mid, task::Level::Inter};

struct SynthSpec {
  /// Schedule ids are versioned; bump when the grammar changes shape.
  static constexpr int kVersion = 1;
  /// Upper bound on any stage lag (keeps ids compact and pipelines sane).
  static constexpr int kMaxLag = 9;
  /// Upper bound on the leader (stripe) count.
  static constexpr int kMaxLeaders = 64;
  /// Upper bound on the rail-stripe factor (NIC counts are small).
  static constexpr int kMaxStripe = 64;

  coll::CollKind kind = coll::CollKind::Allreduce;  // Allreduce | Bcast
  std::vector<StageSlot> stages;  // per-step emission order
  int leaders = 1;                // segment-stripe count k (allreduce)
  int sf = 1;                     // rail-stripe factor of the inter stages
                                  // (clamped to the machine's rails)

  friend bool operator==(const SynthSpec&, const SynthSpec&) = default;

  /// Canonical, parseable identifier (the HanConfig::sched value).
  std::string id() const;

  /// Strict inverse of id(): returns false on any malformed, truncated,
  /// or semantically invalid input (out->* unspecified then). A true
  /// return implies validate().empty().
  static bool parse(const std::string& id, SynthSpec* out);

  /// "" when the spec is well-formed, else a description of the first
  /// defect. Rules: the stage multiset matches the kind (allreduce:
  /// sr/ir/ib/sb once each; bcast: ib/sb once each), lags are in
  /// [0, kMaxLag] and non-decreasing along the dependency chain
  /// (sr <= ir <= ib <= sb; ib <= sb for bcast) with the chain head at
  /// lag 0, a dependency's prerequisite is emitted first when lags are
  /// equal, and leaders is in [1, kMaxLeaders] (1 for bcast).
  std::string validate() const;

  int lag_of(const std::string& role) const;  // -1 when absent
  int max_lag() const;

  /// True when the spec carries a mid stage ("mr"/"mb") — the dependency
  /// chain is then the three-level ladder's (validate() requires the full
  /// mid multiset, so a lone mid role is rejected loudly).
  bool three_level() const;

  /// canonical_chain on the paper's flat intra + inter ladder: allreduce
  /// ar1:k1:sr0.ir1.ib2.sb3, bcast bc1:k1:sb1.ib0 (and the reduce chain
  /// ir1.sr0, which has no id).
  static SynthSpec canonical(coll::CollKind kind);

  /// canonical_chain on the derived intra + mid + inter NUMA ladder:
  /// allreduce ar1:k1:sr0.mr1.ir2.ib3.mb4.sb5, bcast bc1:k1:ib0.mb1.sb2.
  static SynthSpec canonical3(coll::CollKind kind);
};

}  // namespace han::synth
