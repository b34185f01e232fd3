// Collective schedules as dependency DAGs.
//
// A Plan holds, for every rank of a communicator, the list of primitive
// actions (P2P send/recv, memory-bus copy, reduction arithmetic, raw CPU
// compute) with dependency edges. Edges may cross ranks — cross-rank edges
// model shared-memory flag signalling (with a propagation latency) without
// paying full P2P protocol costs, which is how the SM and SOLO intra-node
// modules are expressed.
//
// Plans are pure data: a named builder (coll/builders.hpp) makes one from
// (comm size, BuildSpec) alone. CollRuntime keeps each distinct plan as a
// template while it is busy and replays it for every collective instance
// with that key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simbase/small_vec.hpp"
#include "simbase/units.hpp"
#include "simmpi/datatype.hpp"

namespace han::coll {

/// Byte range within a rank's buffer slot. Slots 0..num_user_slots-1 bind
/// to the user buffers passed at start(); higher slots are plan-declared
/// temporaries.
struct SlotRef {
  int slot = 0;
  std::size_t offset = 0;
};

/// Dependency edge. `rank == kSameRank` refers to the executing rank.
/// `latency` delays readiness past the dependency's completion (shared-
/// memory flag propagation, window-synchronization epochs).
struct DepRef {
  static constexpr int kSameRank = -1;
  int rank = kSameRank;  // comm rank owning the dependency
  int action = 0;        // index into that rank's action list
  sim::Time latency = 0.0;
};

struct Action {
  enum class Kind : std::uint8_t {
    Send,     // isend `bytes` from src to comm rank `peer`, tag `tag`
    Recv,     // irecv `bytes` into dst from comm rank `peer`, tag `tag`
    Copy,     // memory-bus copy of `bytes`, dst = src
    Reduce,   // dst = dst OP src over `bytes` (CPU arithmetic)
    Compute,  // occupy CPU for `seconds` (setup costs, progression ticks)
    Noop,     // synchronization-only node
    // Shared-memory primitives: direct access to another rank's slot,
    // paying bus/CPU costs but no P2P protocol. Only valid when `peer` is
    // on the same node; used by the SM and SOLO intra-node modules.
    // Sequencing with the peer's writes is the builder's job (cross-rank
    // dependency edges).
    CrossCopy,    // dst(me) = src(peer), one memory-bus copy
    CrossReduce,  // dst(me) = dst(me) OP src(peer), CPU arithmetic
  };

  Kind kind = Kind::Noop;
  int peer = -1;
  int tag = 0;  // small per-plan tag; the runtime namespaces it per instance
  std::size_t bytes = 0;
  SlotRef src;
  SlotRef dst;
  mpi::ReduceOp op = mpi::ReduceOp::Sum;
  mpi::Datatype dtype = mpi::Datatype::Byte;
  bool avx = false;         // Reduce: use AVX-rate arithmetic
  double copy_cap = 0.0;    // Copy: rate cap (0 = core copy bandwidth)
  double bus_factor = 1.0;  // Copy: fraction of bytes charged to the bus
                            // (cache-resident shared-memory reads < 1)
  sim::Time seconds = 0.0;  // Compute duration
  sim::Time pre_delay = 0.0;  // fixed latency before execution starts
  // Inline: nearly every action waits on at most two others, and a plan
  // template is rebuilt in every busy period of the runtime.
  sim::SmallVec<DepRef, 2> deps;
};

struct RankPlan {
  std::vector<Action> actions;
  /// Sizes of temporary slots; temp i becomes slot num_user_slots + i.
  std::vector<std::size_t> temp_slots;

  /// Append an action, returning its index (for dependency wiring).
  int add(Action a) {
    actions.push_back(std::move(a));
    return static_cast<int>(actions.size()) - 1;
  }
};

struct Plan {
  int num_user_slots = 1;
  /// Fabric rail carrying this plan's inter-node sends; -1 (default)
  /// leaves the choice to the machine's RailPolicy. Striped schedules
  /// issue one sub-plan per rail, each pinned here.
  int rail = -1;
  std::vector<RankPlan> ranks;  // indexed by comm rank

  explicit Plan(int comm_size = 0, int user_slots = 1)
      : num_user_slots(user_slots), ranks(comm_size) {}
};

// ---- small builder helpers -------------------------------------------

inline Action send_action(int peer, int tag, std::size_t bytes, SlotRef src) {
  Action a;
  a.kind = Action::Kind::Send;
  a.peer = peer;
  a.tag = tag;
  a.bytes = bytes;
  a.src = src;
  return a;
}

inline Action recv_action(int peer, int tag, std::size_t bytes, SlotRef dst) {
  Action a;
  a.kind = Action::Kind::Recv;
  a.peer = peer;
  a.tag = tag;
  a.bytes = bytes;
  a.dst = dst;
  return a;
}

inline Action copy_action(std::size_t bytes, SlotRef src, SlotRef dst,
                          double cap = 0.0, double bus_factor = 1.0) {
  Action a;
  a.kind = Action::Kind::Copy;
  a.bytes = bytes;
  a.src = src;
  a.dst = dst;
  a.copy_cap = cap;
  a.bus_factor = bus_factor;
  return a;
}

inline Action reduce_action(std::size_t bytes, SlotRef src, SlotRef dst,
                            mpi::ReduceOp op, mpi::Datatype dtype, bool avx) {
  Action a;
  a.kind = Action::Kind::Reduce;
  a.bytes = bytes;
  a.src = src;
  a.dst = dst;
  a.op = op;
  a.dtype = dtype;
  a.avx = avx;
  return a;
}

inline Action compute_action(sim::Time seconds) {
  Action a;
  a.kind = Action::Kind::Compute;
  a.seconds = seconds;
  return a;
}

inline Action cross_copy_action(int peer, std::size_t bytes, SlotRef peer_src,
                                SlotRef dst, double cap = 0.0,
                                double bus_factor = 1.0) {
  Action a;
  a.kind = Action::Kind::CrossCopy;
  a.peer = peer;
  a.bytes = bytes;
  a.src = peer_src;
  a.dst = dst;
  a.copy_cap = cap;
  a.bus_factor = bus_factor;
  return a;
}

inline Action cross_reduce_action(int peer, std::size_t bytes,
                                  SlotRef peer_src, SlotRef dst,
                                  mpi::ReduceOp op, mpi::Datatype dtype,
                                  bool avx) {
  Action a;
  a.kind = Action::Kind::CrossReduce;
  a.peer = peer;
  a.bytes = bytes;
  a.src = peer_src;
  a.dst = dst;
  a.op = op;
  a.dtype = dtype;
  a.avx = avx;
  return a;
}

inline DepRef dep(int action) { return DepRef{DepRef::kSameRank, action, 0.0}; }

inline DepRef cross_dep(int rank, int action, sim::Time latency) {
  return DepRef{rank, action, latency};
}

}  // namespace han::coll
