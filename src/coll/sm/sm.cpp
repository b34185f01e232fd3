#include "coll/sm/sm.hpp"

#include "coll/topology.hpp"
#include "machine/effcurve.hpp"

namespace han::coll {

namespace {

constexpr sim::Time kSmSetup = 0.3e-6;  // shm segment reservation
// Fraction of copy-out bytes that reach DRAM (the rest is L3-served).
constexpr double kBcastBusFactor = 0.35;

const machine::EffCurve& sm_curve() {
  // Fragment-pipeline efficiency: near-full rate while a fragment batch
  // fits the shm slots, decaying as large messages serialize through them.
  static const machine::EffCurve curve({
      {8 << 10, 0.95},
      {64 << 10, 0.85},
      {256 << 10, 0.76},
      {1 << 20, 0.70},
      {8 << 20, 0.66},
  });
  return curve;
}

}  // namespace

double SmModule::copy_efficiency(std::size_t bytes) {
  return sm_curve().at(bytes);
}

Plan build_sm_bcast(int n, const BuildSpec& spec) {
  const int root = spec.root;
  const std::size_t bytes = spec.bytes;
  Plan plan(n, /*user_slots=*/1);
  const double cap = spec.copy_bandwidth * SmModule::copy_efficiency(bytes);
  // Root stages the message into the shared buffer; every reader copies
  // out after the flag propagates.
  RankPlan& rp = plan.ranks[root];
  rp.temp_slots.push_back(bytes);
  Action stage = copy_action(bytes, SlotRef{0, 0}, SlotRef{1, 0}, cap);
  stage.pre_delay = kSmSetup;
  const int stage_idx = rp.add(std::move(stage));
  for (int r = 0; r < n; ++r) {
    if (r == root) continue;
    Action out = cross_copy_action(root, bytes, SlotRef{1, 0}, SlotRef{0, 0},
                                   cap, kBcastBusFactor);
    out.pre_delay = kSmSetup;
    out.deps.push_back(cross_dep(root, stage_idx, spec.flag_latency));
    plan.ranks[r].add(std::move(out));
  }
  return plan;
}

Plan build_sm_reduce(int n, const BuildSpec& spec) {
  const int root = spec.root;
  const std::size_t bytes = spec.bytes;
  const sim::Time flag = spec.flag_latency;
  Plan plan(n, /*user_slots=*/2);
  const double cap = spec.copy_bandwidth * SmModule::copy_efficiency(bytes);

  // Binomial reduction tree over the node. Every rank with a parent
  // publishes its (partial) result into shm; parents reduce children's
  // shm windows with scalar arithmetic (coll/sm has no AVX kernels).
  // Action layout per rank: [init?][reduce per child...][publish?]
  struct Layout {
    int acc_slot = -1;       // accumulator slot (root: 1)
    int publish_idx = -1;    // index of the publish action
    int publish_slot = -1;   // slot parents read
  };
  std::vector<Layout> layout(n);
  std::vector<TreeNode> nodes(n);
  for (int r = 0; r < n; ++r) {
    nodes[r] = tree_node(Algorithm::Binomial, n, to_vrank(r, root, n));
  }

  // First pass: initialize accumulators.
  for (int r = 0; r < n; ++r) {
    RankPlan& rp = plan.ranks[r];
    const bool leaf = nodes[r].children.empty();
    if (!leaf || r == root) {  // root always materializes recvbuf
      if (r == root) {
        layout[r].acc_slot = 1;
      } else {
        rp.temp_slots.push_back(bytes);
        layout[r].acc_slot = 2;
      }
      Action init = copy_action(bytes, SlotRef{0, 0},
                                SlotRef{layout[r].acc_slot, 0}, cap);
      init.pre_delay = kSmSetup;
      rp.add(std::move(init));
    }
  }

  // Second pass (children before parents in vrank order is not needed:
  // we wire dependencies explicitly). Process ranks by decreasing vrank
  // so a parent's reduce can reference its child's publish index.
  std::vector<int> by_vrank(n);
  for (int r = 0; r < n; ++r) by_vrank[to_vrank(r, root, n)] = r;
  for (int v = n - 1; v >= 0; --v) {
    const int r = by_vrank[v];
    RankPlan& rp = plan.ranks[r];
    const bool leaf = nodes[r].children.empty();
    int last = leaf ? -1 : 0;  // init action index (0 for non-leaves)

    for (int child_v : nodes[r].children) {
      const int child = by_vrank[child_v];
      Action red = cross_reduce_action(
          child, bytes, SlotRef{layout[child].publish_slot, 0},
          SlotRef{layout[r].acc_slot, 0}, spec.op, spec.dtype, /*avx=*/false);
      red.deps.push_back(cross_dep(child, layout[child].publish_idx, flag));
      if (last >= 0) red.deps.push_back(dep(last));
      last = rp.add(std::move(red));
    }

    if (v != 0) {
      // Publish our contribution (leaf: raw sendbuf; internal: acc).
      const int src_slot = leaf ? 0 : layout[r].acc_slot;
      const int stage_slot =
          static_cast<int>(plan.num_user_slots + rp.temp_slots.size());
      rp.temp_slots.push_back(bytes);
      Action pub = copy_action(bytes, SlotRef{src_slot, 0},
                               SlotRef{stage_slot, 0}, cap);
      if (leaf) pub.pre_delay = kSmSetup;
      if (last >= 0) pub.deps.push_back(dep(last));
      layout[r].publish_idx = rp.add(std::move(pub));
      layout[r].publish_slot = stage_slot;
    }
  }
  return plan;
}

Plan build_sm_barrier(int n, const BuildSpec& spec) {
  Plan plan(n, /*user_slots=*/1);
  // Action 0 on every rank is an arrival marker; round k (action k+1)
  // waits on our own round k-1 and on rank (r - 2^k)'s round k-1 marker
  // (one flag hop). After ceil(log2 n) rounds every rank transitively
  // depends on every arrival marker — the dissemination property.
  for (int r = 0; r < n; ++r) plan.ranks[r].add(Action{});
  for (int k = 0, dist = 1; dist < n; ++k, dist *= 2) {
    for (int r = 0; r < n; ++r) {
      Action a;  // Noop by default
      a.deps.push_back(dep(k));
      a.deps.push_back(cross_dep((r - dist + n) % n, k, spec.flag_latency));
      plan.ranks[r].add(std::move(a));
    }
  }
  return plan;
}

mpi::Request SmModule::ibcast(const mpi::Comm& comm, int me, int root,
                              mpi::BufView buf, mpi::Datatype /*dtype*/,
                              const CollConfig& /*cfg*/) {
  return rt().start(comm, me, PlanBuilder::SmBcast,
                    shm_spec(root, buf.bytes), {buf});
}

mpi::Request SmModule::ireduce(const mpi::Comm& comm, int me, int root,
                               mpi::BufView send, mpi::BufView recv,
                               mpi::Datatype dtype, mpi::ReduceOp op,
                               const CollConfig& /*cfg*/) {
  BuildSpec spec = shm_spec(root, send.bytes);
  spec.dtype = dtype;
  spec.op = op;
  return rt().start(comm, me, PlanBuilder::SmReduce, spec, {send, recv});
}

mpi::Request SmModule::iallreduce(const mpi::Comm& comm, int me,
                                  mpi::BufView send, mpi::BufView recv,
                                  mpi::Datatype dtype, mpi::ReduceOp op,
                                  const CollConfig& cfg) {
  // coll/sm composes allreduce as reduce-to-0 followed by bcast-from-0.
  // Each rank enters the bcast only after its own reduce part completes, so
  // root never stages stale data.
  mpi::Request gate = mpi::make_request(world().engine());
  mpi::Request red = ireduce(comm, me, /*root=*/0, send, recv, dtype, op, cfg);
  red->on_complete([this, &comm, me, recv, dtype, cfg, gate] {
    mpi::Request bc = ibcast(comm, me, /*root=*/0, recv, dtype, cfg);
    bc->on_complete([gate] { gate->complete(); });
  });
  return gate;
}

mpi::Request SmModule::ibarrier(const mpi::Comm& comm, int me) {
  // Flag-based dissemination through shm: modeled as zero-byte cross
  // signalling with one flag hop per round.
  BuildSpec spec;
  spec.flag_latency = world().profile().shm_latency;
  return rt().start(comm, me, PlanBuilder::SmBarrier, spec,
                    {mpi::BufView::timing_only(0)});
}

}  // namespace han::coll
