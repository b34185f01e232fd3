// Hierarchy: the n-level communicator ladder derived from a topology
// descriptor (docs/HIERARCHY.md).
//
// A TopologyDescriptor is an ordered list of level keys, innermost first
// (e.g. numa < node < cluster), derived from the machine profile. The
// Hierarchy splits a parent communicator into one communicator family per
// level: two ranks share a level-l communicator iff they sit in the same
// level-l domain and occupy the same slot (communicator rank) at every
// lower level. This generalizes both of the seed's hand-written splits:
//
//  * depth 2 reproduces HanComm exactly — a shared-memory low split plus
//    the split-by-local-rank up families (Open MPI HAN's root_low_rank
//    trick: rooted operations ride the family holding the root, so any
//    rank can be the root without a relay hop);
//  * depth 3 subsumes the retired Han3::Comm3 — the slot-0 chain of
//    families is the leaf -> mid -> up leader ladder, and the remaining
//    families extend the root trick to every level.
//
// Degenerate outermost levels (a single domain with a single member)
// collapse: the top family is nulled exactly like HanComm's single-node
// up comms, and the task builders drop trailing inactive levels, so a
// flat machine behaves bit-identically to the 2-level seed.
#pragma once

#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "simmpi/world.hpp"

namespace han::core {

/// Ordered level keys, innermost first; the outermost must be "cluster".
/// Known keys: "numa" (processes sharing one NUMA domain), "node"
/// (processes sharing one node), "cluster" (everything).
struct TopologyDescriptor {
  std::vector<std::string> levels;

  int depth() const { return static_cast<int>(levels.size()); }

  /// The paper's flat 2-level split: node < cluster.
  static TopologyDescriptor flat();

  /// Derive from a machine profile: NUMA machines (numa_per_node > 1) get
  /// numa < node < cluster, flat machines get node < cluster.
  static TopologyDescriptor from_profile(const machine::MachineProfile& p);

  /// Grammar: '<'-joined level keys, innermost first ("numa<node<cluster").
  std::string to_string() const;

  /// Parse the to_string() form. Strict: unknown keys, duplicates, fewer
  /// than two levels, out-of-order keys, and a non-"cluster" outermost
  /// level all fail.
  static bool parse(const std::string& text, TopologyDescriptor* out);

  friend bool operator==(const TopologyDescriptor&,
                         const TopologyDescriptor&) = default;
};

class Hierarchy {
 public:
  Hierarchy(mpi::SimWorld& world, const mpi::Comm& parent,
            TopologyDescriptor topo);

  const mpi::Comm& parent() const { return *parent_; }
  const TopologyDescriptor& topo() const { return topo_; }
  int depth() const { return topo_.depth(); }
  const std::string& level_name(int l) const { return topo_.levels[l]; }

  /// Level-l communicator family member containing parent rank pr.
  /// Level 0 is never null; the top level is nulled (for every rank) when
  /// the leader chain's top family has a single member — no data can cross
  /// it, exactly HanComm's single-node rule.
  const mpi::Comm* comm(int l, int pr) const { return comms_[l][pr]; }

  /// Rank of parent rank pr within comm(l, pr); -1 when nulled.
  int rank(int l, int pr) const { return ranks_[l][pr]; }

  /// True when pr holds slot 0 at every level below l (the leader chain).
  bool leader_below(int l, int pr) const;

  /// True when a and b occupy the same slot at every level below l — i.e.
  /// they share the level-l communicator family of rank b (the n-level
  /// root trick: a participates in b's level-l operation iff true).
  bool same_slots_below(int l, int a, int b) const;

  // --- 2-level compatibility view (level 0 / top level) --------------------
  const mpi::Comm& low(int pr) const { return *comms_[0][pr]; }
  const mpi::Comm* up(int pr) const { return comms_[depth() - 1][pr]; }
  int low_rank(int pr) const { return ranks_[0][pr]; }
  int up_rank(int pr) const { return ranks_[depth() - 1][pr]; }

  /// The levels a pipeline runs on, innermost first. Dead outermost
  /// levels (no family anywhere has two members) collapse away first —
  /// HanComm's single-node up-nulling, applied from the top down. Below
  /// the top, a dead level is spliced out while more than two levels
  /// remain: a deep descriptor on a machine without the matching domains
  /// runs the flat pipeline instead of pushing lag-chain bubbles (or
  /// null-comm tasks) through the schedule. At two levels a dead level
  /// stays, keeping its disabled lag slot (the seed's 2-level shapes).
  const std::vector<int>& live_levels() const { return live_; }

  /// Members of the leader chain's top family (1 on a single node) — the
  /// node count on flat descriptors.
  int node_count() const { return node_count_; }
  /// Largest per-node process count: the maximum over ranks of the product
  /// of their sub-top communicator sizes.
  int max_ppn() const { return max_ppn_; }

  /// Whether parent ranks on one level-0 domain are consecutive, in
  /// level-0 rank order: HAN's two-level data layout needs this
  /// node-contiguous placement (true for the world communicator; Open MPI
  /// HAN likewise disables itself otherwise).
  bool node_contiguous() const { return node_contiguous_; }

  /// The distinct communicators created by the splits (owners: SimWorld);
  /// exposed so the parent comm's destruction can free them.
  const std::vector<mpi::Comm*>& sub_comms() const { return sub_comms_; }

 private:
  const mpi::Comm* parent_;
  TopologyDescriptor topo_;
  std::vector<std::vector<mpi::Comm*>> comms_;  // [level][parent rank]
  std::vector<std::vector<int>> ranks_;         // [level][parent rank]
  std::vector<mpi::Comm*> sub_comms_;
  std::vector<int> live_;
  int node_count_ = 0;
  int max_ppn_ = 0;
  bool node_contiguous_ = true;
};

}  // namespace han::core
