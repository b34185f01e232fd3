// Plan builders for the ring-pattern collective family.
//
// Ring algorithms move data around a logical ring of the communicator in
// n-1 equal-chunk steps, making every step bandwidth-balanced: each rank
// sends and receives exactly bytes/n per step regardless of n. That makes
// them the bandwidth-optimal choice for large messages (SCCL's canonical
// building blocks): reduce-scatter and allgather are the primitives, and
// allreduce is their composition. Builders are pure: Plan in, Plan out, no
// simulator state.
#pragma once

#include "coll/builders.hpp"

namespace han::coll {

/// Reduce-scatter with equal blocks via a ring (n-1 steps of bytes/n).
/// Rank r ends up owning the fully reduced chunk r. Honours spec.segment:
/// chunks are sliced so transfers pipeline with reduces across steps.
/// Slots: 0 = sendbuf (`bytes`, comm_size chunks), 1 = recvbuf (rank's own
/// chunk).
Plan build_ring_reduce_scatter(int comm_size, const BuildSpec& spec);

/// Reduce-scatter over a *strided* chunk set: chunk c is the
/// `spec.block`-long range at offset `c * spec.stride` of slot 0, and
/// rank r ends up owning the fully reduced chunk r in slot 1. This is the
/// geometry HAN's hierarchical reduce-scatter pipelines on: slot 0 is a
/// node-leader's partially reduced vector and chunk c is one slice of node
/// c's region, so a slice's inter-node ring can run while the intra level
/// reduces the next slice. `spec.segment` pipelines within chunks as in
/// build_ring_reduce_scatter.
Plan build_ring_reduce_scatter_strided(int comm_size, const BuildSpec& spec);

/// Allgather via ring. Slots: 0 = sendbuf (`bytes`), 1 = recvbuf
/// (`bytes * comm_size`).
Plan build_ring_allgather(int comm_size, const BuildSpec& spec);

/// Allreduce via ring reduce-scatter + ring allgather (bandwidth optimal;
/// 2(n-1) steps). Slots: 0 = sendbuf, 1 = recvbuf.
Plan build_ring_allreduce(int comm_size, const BuildSpec& spec);

}  // namespace han::coll
