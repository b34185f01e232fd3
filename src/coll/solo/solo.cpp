#include "coll/solo/solo.hpp"

#include "coll/topology.hpp"

namespace han::coll {

namespace {
// One-sided reads of a hot buffer are largely L3-served, like SM's
// copy-out, but with no intermediate staging copy.
constexpr double kSoloBusFactor = 0.35;
constexpr sim::Time kWindowPost = 0.5e-6;  // root-side epoch open
}  // namespace

Plan build_solo_bcast(int n, const BuildSpec& spec) {
  const int root = spec.root;
  Plan plan(n, /*user_slots=*/1);
  // Root opens the exposure epoch; everyone reads the root buffer
  // directly (one copy, full core rate — SOLO's large-message edge).
  Action post = compute_action(kWindowPost);
  post.pre_delay = SoloModule::window_sync_cost();
  const int post_idx = plan.ranks[root].add(std::move(post));
  for (int r = 0; r < n; ++r) {
    if (r == root) continue;
    Action read = cross_copy_action(root, spec.bytes, SlotRef{0, 0},
                                    SlotRef{0, 0}, spec.copy_bandwidth,
                                    kSoloBusFactor);
    read.pre_delay = SoloModule::window_sync_cost();
    read.deps.push_back(cross_dep(root, post_idx, spec.flag_latency));
    plan.ranks[r].add(std::move(read));
  }
  return plan;
}

Plan build_solo_reduce(int n, const BuildSpec& spec) {
  const int root = spec.root;
  const std::size_t bytes = spec.bytes;
  Plan plan(n, /*user_slots=*/2);
  // Binomial tree of direct one-sided reads: a parent reduces each
  // child's exposed accumulator straight into its own, with AVX kernels
  // and no staging copies.
  struct Layout {
    int acc_slot = 0;     // slot parents read (leaf: raw sendbuf)
    int expose_idx = -1;  // action marking the accumulator as final
  };
  std::vector<Layout> layout(n);
  std::vector<TreeNode> nodes(n);
  std::vector<int> by_vrank(n);
  for (int r = 0; r < n; ++r) {
    nodes[r] = tree_node(Algorithm::Binomial, n, to_vrank(r, root, n));
    by_vrank[to_vrank(r, root, n)] = r;
  }

  for (int v = n - 1; v >= 0; --v) {
    const int r = by_vrank[v];
    RankPlan& rp = plan.ranks[r];
    const bool leaf = nodes[r].children.empty();
    int last = -1;
    if (!leaf || r == root) {
      // Materialize an accumulator: recvbuf at root, a temp elsewhere.
      if (r == root) {
        layout[r].acc_slot = 1;
      } else {
        layout[r].acc_slot = 2;
        rp.temp_slots.push_back(bytes);
      }
      Action init = copy_action(bytes, SlotRef{0, 0},
                                SlotRef{layout[r].acc_slot, 0},
                                spec.copy_bandwidth, kSoloBusFactor);
      init.pre_delay = SoloModule::window_sync_cost();
      last = rp.add(std::move(init));
      for (int child_v : nodes[r].children) {
        const int child = by_vrank[child_v];
        Action red = cross_reduce_action(
            child, bytes, SlotRef{layout[child].acc_slot, 0},
            SlotRef{layout[r].acc_slot, 0}, spec.op, spec.dtype,
            /*avx=*/true);
        red.deps.push_back(
            cross_dep(child, layout[child].expose_idx, spec.flag_latency));
        red.deps.push_back(dep(last));
        last = rp.add(std::move(red));
      }
      layout[r].expose_idx = last;
    } else {
      // Leaf: expose the raw send buffer (zero-copy) after the window
      // sync epoch.
      Action expose = compute_action(kWindowPost);
      expose.pre_delay = SoloModule::window_sync_cost();
      layout[r].acc_slot = 0;
      layout[r].expose_idx = rp.add(std::move(expose));
    }
  }
  return plan;
}

mpi::Request SoloModule::ibcast(const mpi::Comm& comm, int me, int root,
                                mpi::BufView buf, mpi::Datatype /*dtype*/,
                                const CollConfig& /*cfg*/) {
  return rt().start(comm, me, PlanBuilder::SoloBcast,
                    shm_spec(root, buf.bytes), {buf});
}

mpi::Request SoloModule::ireduce(const mpi::Comm& comm, int me, int root,
                                 mpi::BufView send, mpi::BufView recv,
                                 mpi::Datatype dtype, mpi::ReduceOp op,
                                 const CollConfig& /*cfg*/) {
  BuildSpec spec = shm_spec(root, send.bytes);
  spec.dtype = dtype;
  spec.op = op;
  return rt().start(comm, me, PlanBuilder::SoloReduce, spec, {send, recv});
}

mpi::Request SoloModule::iallreduce(const mpi::Comm& comm, int me,
                                    mpi::BufView send, mpi::BufView recv,
                                    mpi::Datatype dtype, mpi::ReduceOp op,
                                    const CollConfig& cfg) {
  mpi::Request gate = mpi::make_request(world().engine());
  mpi::Request red = ireduce(comm, me, /*root=*/0, send, recv, dtype, op, cfg);
  red->on_complete([this, &comm, me, recv, dtype, cfg, gate] {
    mpi::Request bc = ibcast(comm, me, /*root=*/0, recv, dtype, cfg);
    bc->on_complete([gate] { gate->complete(); });
  });
  return gate;
}

}  // namespace han::coll
