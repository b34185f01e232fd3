#include "coll/builders.hpp"

#include <algorithm>

#include "coll/ring/ring_builders.hpp"
#include "coll/sm/sm.hpp"
#include "coll/solo/solo.hpp"
#include "coll/topology.hpp"
#include "simbase/assert.hpp"

namespace han::coll {

namespace {

/// Apply the one-time per-rank setup cost: dep-free actions get it as a
/// pre_delay (they are the ones that start when the rank arrives).
void apply_setup(RankPlan& rp, sim::Time setup) {
  if (setup <= 0.0) return;
  for (Action& a : rp.actions) {
    if (a.deps.empty()) a.pre_delay += setup;
  }
}

void apply_setup(Plan& plan, sim::Time setup) {
  for (RankPlan& rp : plan.ranks) apply_setup(rp, setup);
}

void apply_action_delay(Plan& plan, sim::Time delay) {
  if (delay <= 0.0) return;
  for (RankPlan& rp : plan.ranks) {
    for (Action& a : rp.actions) a.pre_delay += delay;
  }
}

}  // namespace

namespace detail {

void finalize_plan(Plan& plan, const BuildSpec& spec) {
  plan.rail = spec.rail;
  apply_action_delay(plan, spec.action_pre_delay);
  apply_setup(plan, spec.op_setup);
}

}  // namespace detail

Segmenter::Segmenter(std::size_t bytes, std::size_t segment,
                     mpi::Datatype dtype)
    : bytes_(bytes) {
  const std::size_t elem = type_size(dtype);
  if (segment == 0 || segment >= bytes) {
    segment_ = bytes == 0 ? 1 : bytes;
    count_ = 1;
  } else {
    // Align to elements.
    segment_ = std::max(elem, segment - segment % elem);
    std::size_t n = (bytes + segment_ - 1) / segment_;
    if (n > kMaxInternalSegments) {
      // Coarsen to the cap (keeps flat-comm pipelines tractable; see
      // DESIGN.md "model scale" notes).
      segment_ = (bytes + kMaxInternalSegments - 1) / kMaxInternalSegments;
      segment_ += (elem - segment_ % elem) % elem;
      n = (bytes + segment_ - 1) / segment_;
    }
    count_ = static_cast<int>(n);
  }
  if (count_ == 0) count_ = 1;
}

std::size_t Segmenter::offset(int i) const {
  return static_cast<std::size_t>(i) * segment_;
}

std::size_t Segmenter::length(int i) const {
  const std::size_t off = offset(i);
  if (off >= bytes_) return 0;
  return std::min(segment_, bytes_ - off);
}

Plan build_tree_bcast(int comm_size, const BuildSpec& spec) {
  Plan plan(comm_size, /*user_slots=*/1);
  const Segmenter segs(spec.bytes, spec.segment, spec.dtype);

  for (int rank = 0; rank < comm_size; ++rank) {
    RankPlan& rp = plan.ranks[rank];
    const int vrank = to_vrank(rank, spec.root, comm_size);
    const TreeNode node = tree_node(spec.alg, comm_size, vrank);
    std::vector<int> recv_idx(segs.count(), -1);

    if (node.parent >= 0) {
      const int parent = from_vrank(node.parent, spec.root, comm_size);
      for (int i = 0; i < segs.count(); ++i) {
        recv_idx[i] = rp.add(
            recv_action(parent, i, segs.length(i), SlotRef{0, segs.offset(i)}));
      }
    }
    for (int i = 0; i < segs.count(); ++i) {
      for (int child_v : node.children) {
        const int child = from_vrank(child_v, spec.root, comm_size);
        Action send =
            send_action(child, i, segs.length(i), SlotRef{0, segs.offset(i)});
        if (recv_idx[i] >= 0) send.deps.push_back(dep(recv_idx[i]));
        rp.add(std::move(send));
      }
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

Plan build_tree_reduce(int comm_size, const BuildSpec& spec) {
  Plan plan(comm_size, /*user_slots=*/2);
  const Segmenter segs(spec.bytes, spec.segment, spec.dtype);

  for (int rank = 0; rank < comm_size; ++rank) {
    RankPlan& rp = plan.ranks[rank];
    const int vrank = to_vrank(rank, spec.root, comm_size);
    const TreeNode node = tree_node(spec.alg, comm_size, vrank);
    const bool is_root = vrank == 0;
    const bool leaf = node.children.empty();

    // Accumulator: recvbuf at the root, a temp elsewhere (non-root ranks
    // may not have a valid recvbuf, as in MPI). Leaves send straight from
    // their sendbuf — no accumulator at all.
    SlotRef acc{1, 0};
    int child_tmp_base = 0;
    if (!leaf) {
      if (!is_root) {
        rp.temp_slots.push_back(spec.bytes);  // accumulator temp
        acc = SlotRef{plan.num_user_slots, 0};
      }
      child_tmp_base = plan.num_user_slots + static_cast<int>(
          rp.temp_slots.size());
      for (std::size_t c = 0; c < node.children.size(); ++c) {
        rp.temp_slots.push_back(spec.bytes);
      }
    }

    for (int i = 0; i < segs.count(); ++i) {
      const std::size_t off = segs.offset(i);
      const std::size_t len = segs.length(i);
      int last = -1;  // chain of ops producing acc segment i

      if (!leaf) {
        last = rp.add(copy_action(len, SlotRef{0, off}, SlotRef{acc.slot, off}));
        for (std::size_t c = 0; c < node.children.size(); ++c) {
          const int child = from_vrank(node.children[c], spec.root, comm_size);
          const SlotRef tmp{child_tmp_base + static_cast<int>(c), off};
          const int rc = rp.add(recv_action(child, i, len, tmp));
          Action red = reduce_action(len, tmp, SlotRef{acc.slot, off}, spec.op,
                                     spec.dtype, spec.avx);
          red.deps.push_back(dep(rc));
          red.deps.push_back(dep(last));
          last = rp.add(std::move(red));
        }
      }
      if (!is_root) {
        const int parent = from_vrank(node.parent, spec.root, comm_size);
        const SlotRef src = leaf ? SlotRef{0, off} : SlotRef{acc.slot, off};
        Action send = send_action(parent, i, len, src);
        if (last >= 0) send.deps.push_back(dep(last));
        rp.add(std::move(send));
      }
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

Plan build_recdoub_allreduce(int comm_size, const BuildSpec& spec) {
  Plan plan(comm_size, /*user_slots=*/2);
  const int n = comm_size;
  int pow2 = 1;
  while (pow2 * 2 <= n) pow2 *= 2;
  const int rem = n - pow2;
  int steps = 0;
  while ((1 << steps) < pow2) ++steps;

  // Tags: 1 = fold-in, 2 = fold-out, 10+k = doubling step k.
  for (int rank = 0; rank < n; ++rank) {
    RankPlan& rp = plan.ranks[rank];
    rp.temp_slots.push_back(spec.bytes);  // partner receive buffer
    const SlotRef tmp{2, 0};
    const SlotRef acc{1, 0};

    const int init =
        rp.add(copy_action(spec.bytes, SlotRef{0, 0}, acc));
    int last = init;

    const bool extra = rank < 2 * rem && rank % 2 == 0;
    const bool folds = rank < 2 * rem && rank % 2 == 1;

    if (extra) {
      // Fold in to the odd neighbour; receive the final result back.
      Action send = send_action(rank + 1, 1, spec.bytes, acc);
      send.deps.push_back(dep(last));
      rp.add(std::move(send));
      rp.add(recv_action(rank + 1, 2, spec.bytes, acc));
      continue;
    }
    if (folds) {
      const int rc = rp.add(recv_action(rank - 1, 1, spec.bytes, tmp));
      Action red = reduce_action(spec.bytes, tmp, acc, spec.op, spec.dtype,
                                 spec.avx);
      red.deps.push_back(dep(rc));
      red.deps.push_back(dep(last));
      last = rp.add(std::move(red));
    }

    // Active group: vr < pow2.
    const int vr = rank < 2 * rem ? rank / 2 : rank - rem;
    for (int k = 0; k < steps; ++k) {
      const int partner_vr = vr ^ (1 << k);
      const int partner =
          partner_vr < rem ? partner_vr * 2 + 1 : partner_vr + rem;
      Action send = send_action(partner, 10 + k, spec.bytes, acc);
      send.deps.push_back(dep(last));
      rp.add(std::move(send));
      Action recv = recv_action(partner, 10 + k, spec.bytes, tmp);
      recv.deps.push_back(dep(last));  // tmp reuse across steps
      const int rc = rp.add(std::move(recv));
      Action red = reduce_action(spec.bytes, tmp, acc, spec.op, spec.dtype,
                                 spec.avx);
      red.deps.push_back(dep(rc));
      last = rp.add(std::move(red));
    }

    if (folds) {
      Action send = send_action(rank - 1, 2, spec.bytes, acc);
      send.deps.push_back(dep(last));
      rp.add(std::move(send));
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

Plan build_linear_gather(int comm_size, const BuildSpec& spec) {
  Plan plan(comm_size, /*user_slots=*/2);
  const std::size_t block = spec.bytes;
  for (int rank = 0; rank < comm_size; ++rank) {
    RankPlan& rp = plan.ranks[rank];
    if (rank == spec.root) {
      rp.add(copy_action(block, SlotRef{0, 0},
                         SlotRef{1, static_cast<std::size_t>(rank) * block}));
      for (int src = 0; src < comm_size; ++src) {
        if (src == spec.root) continue;
        rp.add(recv_action(src, src, block,
                           SlotRef{1, static_cast<std::size_t>(src) * block}));
      }
    } else {
      rp.add(send_action(spec.root, rank, block, SlotRef{0, 0}));
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

Plan build_linear_scatter(int comm_size, const BuildSpec& spec) {
  Plan plan(comm_size, /*user_slots=*/2);
  const std::size_t block = spec.bytes;
  for (int rank = 0; rank < comm_size; ++rank) {
    RankPlan& rp = plan.ranks[rank];
    if (rank == spec.root) {
      rp.add(copy_action(block,
                         SlotRef{0, static_cast<std::size_t>(rank) * block},
                         SlotRef{1, 0}));
      for (int dst = 0; dst < comm_size; ++dst) {
        if (dst == spec.root) continue;
        rp.add(send_action(dst, dst, block,
                           SlotRef{0, static_cast<std::size_t>(dst) * block}));
      }
    } else {
      rp.add(recv_action(spec.root, rank, block, SlotRef{1, 0}));
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

Plan build_dissemination_barrier(int comm_size, const BuildSpec& spec) {
  Plan plan(comm_size, /*user_slots=*/1);
  const int n = comm_size;
  for (int r = 0; r < n; ++r) {
    RankPlan& rp = plan.ranks[r];
    int prev = -1;
    for (int k = 0, dist = 1; dist < n; ++k, dist *= 2) {
      Action send = send_action((r + dist) % n, k, 0, SlotRef{0, 0});
      if (prev >= 0) send.deps.push_back(dep(prev));
      rp.add(std::move(send));
      Action recv = recv_action((r - dist + n) % n, k, 0, SlotRef{0, 0});
      if (prev >= 0) recv.deps.push_back(dep(prev));
      prev = rp.add(std::move(recv));
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

Plan build_plan(PlanBuilder builder, int n, const BuildSpec& spec) {
  switch (builder) {
    case PlanBuilder::TreeBcast: return build_tree_bcast(n, spec);
    case PlanBuilder::TreeReduce: return build_tree_reduce(n, spec);
    case PlanBuilder::RecdoubAllreduce: return build_recdoub_allreduce(n, spec);
    case PlanBuilder::LinearGather: return build_linear_gather(n, spec);
    case PlanBuilder::LinearScatter: return build_linear_scatter(n, spec);
    case PlanBuilder::DisseminationBarrier:
      return build_dissemination_barrier(n, spec);
    case PlanBuilder::RingReduceScatter:
      return build_ring_reduce_scatter(n, spec);
    case PlanBuilder::RingReduceScatterStrided:
      return build_ring_reduce_scatter_strided(n, spec);
    case PlanBuilder::RingAllgather: return build_ring_allgather(n, spec);
    case PlanBuilder::RingAllreduce: return build_ring_allreduce(n, spec);
    case PlanBuilder::SmBcast: return build_sm_bcast(n, spec);
    case PlanBuilder::SmReduce: return build_sm_reduce(n, spec);
    case PlanBuilder::SmBarrier: return build_sm_barrier(n, spec);
    case PlanBuilder::SoloBcast: return build_solo_bcast(n, spec);
    case PlanBuilder::SoloReduce: return build_solo_reduce(n, spec);
  }
  HAN_ASSERT_MSG(false, "unknown plan builder");
  return Plan(n);
}

}  // namespace coll
