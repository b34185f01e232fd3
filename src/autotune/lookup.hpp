// The autotuner's lookup table (paper §III-C step 1 output / step 2 input).
//
// Keys are the paper's Table I inputs — collective type t, node count n,
// processes per node p, message size m (sampled at powers of two). Values
// are Table II configurations. decide() answers arbitrary inputs by
// snapping to the nearest sampled bucket, the simple variant of the
// quadtree/decision-tree schemes the paper cites for step 2.
//
// Tables serialize to a human-readable text file, mirroring the
// HAN-in-Open-MPI dynamic-rules file workflow (tuned offline once per
// machine, loaded at MPI_Init).
#pragma once

#include <map>
#include <optional>
#include <string>

#include "han/han.hpp"

namespace han::tune {

class LookupTable {
 public:
  /// Text-format version written by serialize(). v1 = the version-less
  /// seed format (plain Table II configs); v2 adds the header line and
  /// may carry synthesized-schedule ids (`sched=`) in config values; v3
  /// may carry per-level hierarchy tokens (`lvl=`/`malg=`/`ms=`/`zcs=`,
  /// docs/HIERARCHY.md); v4 may carry the multi-rail stripe factor
  /// (`sf=`, docs/FABRIC.md) in config values. deserialize() accepts
  /// v1-v4 and rejects anything newer.
  static constexpr int kFormatVersion = 4;

  struct Key {
    coll::CollKind kind;
    int nodes;
    int ppn;
    int log2_bytes;  // floor(log2(max(m,1)))

    auto operator<=>(const Key&) const = default;
  };

  static int bucket_of(std::size_t bytes);
  /// bucket_of's largest result; deserialize() rejects larger buckets,
  /// whose `1 << log2_bytes` would overflow std::size_t.
  static constexpr int kMaxBucket = 63;

  void insert(coll::CollKind kind, int nodes, int ppn, std::size_t bytes,
              const core::HanConfig& cfg);

  /// Exact-bucket lookup; nullptr when the bucket was never tuned.
  const core::HanConfig* find(coll::CollKind kind, int nodes, int ppn,
                              std::size_t bytes) const;

  /// Nearest-bucket decision for arbitrary inputs: exact bucket first,
  /// then the closest tuned message bucket for the same (kind, n, p), then
  /// the closest tuned (n, p) shape, finally the static default heuristic.
  core::HanConfig decide(coll::CollKind kind, int nodes, int ppn,
                         std::size_t bytes) const;

  /// Adapter for HanModule::set_decider (copies the table).
  core::HanModule::Decider decider() const;

  std::size_t size() const { return entries_.size(); }

  /// Read access for rule compilers (autotune/decision.hpp) and tooling.
  using Entries = std::map<Key, core::HanConfig>;
  const Entries& entries() const { return entries_; }

  std::string serialize() const;
  static bool deserialize(const std::string& text, LookupTable* out);

  /// Best-effort file round-trip.
  bool save(const std::string& path) const;
  static std::optional<LookupTable> load(const std::string& path);

 private:
  std::map<Key, core::HanConfig> entries_;
};

}  // namespace han::tune
