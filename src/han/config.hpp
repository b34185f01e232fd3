// HanConfig: the autotuned parameter set of a HAN collective operation —
// exactly the output columns of the paper's Table II.
#pragma once

#include <compare>
#include <cstddef>
#include <string>

#include "coll/types.hpp"

namespace han::core {

struct HanConfig {
  std::size_t fs = 512 << 10;  // HAN segment size (pipeline granularity)
  std::string imod = "adapt";  // inter-node submodule (libnbc | adapt)
  std::string smod = "sm";     // intra-node submodule (sm | solo)
  coll::Algorithm ibalg = coll::Algorithm::Binary;  // inter bcast algorithm
  coll::Algorithm iralg = coll::Algorithm::Binary;  // inter reduce algorithm
  std::size_t ibs = 0;  // inter bcast segment size (if imod supports it)
  std::size_t irs = 0;  // inter reduce segment size (if imod supports it)
  int window = 1;       // scheduler in-flight step window (1 = lock-step,
                        // the paper's wait-all barrier semantics)
  std::string sched;    // synthesized-schedule id (synth::SynthSpec);
                        // "" = the kind's canonical stage chain

  // --- per-level fields (n-level hierarchies, LookupTable format v3) ------
  int lvl = 0;          // hierarchy depth: 0 = derive from the machine's
                        // topology descriptor, 2 = force the flat 2-level
                        // ladder (the paper's shape)
  coll::Algorithm malg = coll::Algorithm::Default;  // mid-level algorithm
  std::size_t ms = 0;   // mid-level segment size (0 = module default)
  std::size_t zcs = 0;  // zero-copy switchover: intra/mid stages of
                        // messages smaller than this use the
                        // copy-in-copy-out p2p module instead of the
                        // shared-memory one (0 = always shared memory)

  // --- multi-rail fields (LookupTable format v4, docs/FABRIC.md) ----------
  int sf = 1;           // inter-node stripe factor: split each inter
                        // send into sf slices, one per fabric rail
                        // (1 = unstriped; clamped to the machine's rails)

  friend auto operator<=>(const HanConfig&, const HanConfig&) = default;

  std::string to_string() const;

  /// Parse the to_string() form back; returns false on malformed input.
  /// Strict: unknown keys, bad values, unknown imod/smod names, and
  /// malformed or truncated sched ids all fail (never silently fall back
  /// to defaults).
  static bool parse(const std::string& text, HanConfig* out);
};

}  // namespace han::core
