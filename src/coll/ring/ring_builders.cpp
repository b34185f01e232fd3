#include "coll/ring/ring_builders.hpp"

#include <algorithm>
#include <functional>

#include "coll/topology.hpp"
#include "simbase/assert.hpp"

namespace han::coll {

namespace {

// Shared core of the contiguous and strided reduce-scatter builders.
// Chunk c lives at chunk_off(c) in slot 0 with length chunk_len(c); rank
// r's fully reduced chunk r lands in slot 1.
//
// Recv-reduce-send formulation: a rank's contribution to chunk c is folded
// in exactly once — when c's partial sum passes through — by reducing the
// slot-0 operand straight into the received buffer. No accumulator copy of
// the send buffer is ever made; the final step receives into slot 1
// directly, so the only temporaries are one landing chunk per intermediate
// step.
//
// Same chunk rotation as the allreduce reduce-scatter phase, shifted by
// one chunk so that after n-1 steps rank r owns its *own* chunk r. Each
// chunk is internally sliced (spec.segment): slice t is forwarded as soon
// as its reduce finishes, so transfers overlap reduces and the wave
// pipelines around the ring.
Plan ring_rs_plan(int n, const BuildSpec& spec,
                  const std::function<std::size_t(int)>& chunk_off,
                  const std::function<std::size_t(int)>& chunk_len) {
  Plan plan(n, /*user_slots=*/2);
  for (int r = 0; r < n; ++r) {
    RankPlan& rp = plan.ranks[r];
    if (n == 1) {
      rp.add(copy_action(chunk_len(0), SlotRef{0, chunk_off(0)},
                         SlotRef{1, 0}));
      continue;
    }
    const int right = (r + 1) % n;
    const int left = (r - 1 + n) % n;
    // Step s < n-2 receives chunk (r-s-2)%n into its own temp slot 2+s.
    for (int s = 0; s + 1 < n - 1; ++s) {
      rp.temp_slots.push_back(chunk_len((r - s - 2 + 2 * n) % n));
    }
    std::vector<int> last_reduce;  // step s-1's per-slice reduces
    for (int s = 0; s < n - 1; ++s) {
      const int send_c = (r - s - 1 + 2 * n) % n;
      const int recv_c = (r - s - 2 + 2 * n) % n;
      const Segmenter sseg(chunk_len(send_c), spec.segment, spec.dtype);
      const Segmenter rseg(chunk_len(recv_c), spec.segment, spec.dtype);
      const bool final_step = s == n - 2;
      for (int t = 0; t < sseg.count(); ++t) {
        // Step 0 forwards the rank's own contribution straight from the
        // send buffer; later steps forward the partial reduced last step.
        Action send = send_action(
            right, s * (Segmenter::kMaxInternalSegments + 1) + t,
            sseg.length(t),
            s == 0 ? SlotRef{0, chunk_off(send_c) + sseg.offset(t)}
                   : SlotRef{2 + (s - 1), sseg.offset(t)});
        if (s > 0) send.deps.push_back(dep(last_reduce[t]));
        rp.add(std::move(send));
      }
      std::vector<int> next(rseg.count());
      for (int t = 0; t < rseg.count(); ++t) {
        const SlotRef dst = final_step ? SlotRef{1, rseg.offset(t)}
                                       : SlotRef{2 + s, rseg.offset(t)};
        const int rc = rp.add(recv_action(
            left, s * (Segmenter::kMaxInternalSegments + 1) + t,
            rseg.length(t), dst));
        Action red = reduce_action(
            rseg.length(t), SlotRef{0, chunk_off(recv_c) + rseg.offset(t)},
            dst, spec.op, spec.dtype, spec.avx);
        red.deps.push_back(dep(rc));
        next[t] = rp.add(std::move(red));
      }
      last_reduce = std::move(next);
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

}  // namespace

Plan build_ring_reduce_scatter(int comm_size, const BuildSpec& spec) {
  const int n = comm_size;
  const std::size_t elem = type_size(spec.dtype);
  const std::size_t count = spec.bytes / elem;
  // Chunk c covers elements [c*count/n, (c+1)*count/n).
  return ring_rs_plan(
      n, spec, [=](int c) { return (count * c / n) * elem; },
      [=](int c) { return (count * (c + 1) / n - count * c / n) * elem; });
}

Plan build_ring_reduce_scatter_strided(int comm_size, const BuildSpec& spec) {
  return ring_rs_plan(
      comm_size, spec, [&](int c) { return c * spec.stride; },
      [&](int) { return spec.block; });
}

Plan build_ring_allgather(int comm_size, const BuildSpec& spec) {
  Plan plan(comm_size, /*user_slots=*/2);
  const int n = comm_size;
  const std::size_t block = spec.bytes;
  for (int r = 0; r < n; ++r) {
    RankPlan& rp = plan.ranks[r];
    const int right = (r + 1) % n;
    const int left = (r - 1 + n) % n;
    const int init = rp.add(copy_action(
        block, SlotRef{0, 0}, SlotRef{1, static_cast<std::size_t>(r) * block}));
    int prev_recv = -1;
    for (int s = 0; s < n - 1; ++s) {
      const int send_b = (r - s + n) % n;
      const int recv_b = (r - s - 1 + n) % n;
      Action send = send_action(right, s, block,
                                SlotRef{1, static_cast<std::size_t>(send_b) *
                                               block});
      send.deps.push_back(dep(s == 0 ? init : prev_recv));
      rp.add(std::move(send));
      prev_recv = rp.add(recv_action(
          left, s, block,
          SlotRef{1, static_cast<std::size_t>(recv_b) * block}));
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

Plan build_ring_allreduce(int comm_size, const BuildSpec& spec) {
  Plan plan(comm_size, /*user_slots=*/2);
  const int n = comm_size;
  const std::size_t elem = type_size(spec.dtype);
  const std::size_t count = spec.bytes / elem;

  // Chunk c covers elements [c*count/n, (c+1)*count/n).
  auto chunk_off = [&](int c) { return (count * c / n) * elem; };
  auto chunk_len = [&](int c) {
    return (count * (c + 1) / n - count * c / n) * elem;
  };

  for (int r = 0; r < n; ++r) {
    RankPlan& rp = plan.ranks[r];
    rp.temp_slots.push_back(spec.bytes / std::max(1, n) + elem);  // step tmp
    const SlotRef acc{1, 0};
    const SlotRef tmp{2, 0};
    const int right = (r + 1) % n;
    const int left = (r - 1 + n) % n;

    int last = rp.add(copy_action(spec.bytes, SlotRef{0, 0}, acc));

    if (n == 1) continue;

    // Reduce-scatter: after step s, rank r has reduced chunk (r-s-1+n)%n
    // deeper by one contribution; after n-1 steps it owns chunk (r+1)%n.
    for (int s = 0; s < n - 1; ++s) {
      const int send_c = (r - s + n) % n;
      const int recv_c = (r - s - 1 + n) % n;
      Action send = send_action(right, s, chunk_len(send_c),
                                SlotRef{1, chunk_off(send_c)});
      send.deps.push_back(dep(last));
      rp.add(std::move(send));
      Action recv = recv_action(left, s, chunk_len(recv_c), tmp);
      recv.deps.push_back(dep(last));  // tmp reuse
      const int rc = rp.add(std::move(recv));
      Action red =
          reduce_action(chunk_len(recv_c), tmp, SlotRef{1, chunk_off(recv_c)},
                        spec.op, spec.dtype, spec.avx);
      red.deps.push_back(dep(rc));
      last = rp.add(std::move(red));
    }

    // Allgather: rank r starts by forwarding its completed chunk (r+1)%n.
    int prev_recv = -1;
    for (int s = 0; s < n - 1; ++s) {
      const int send_c = (r + 1 - s + n) % n;
      const int recv_c = (r - s + n) % n;
      Action send = send_action(right, 1000 + s, chunk_len(send_c),
                                SlotRef{1, chunk_off(send_c)});
      send.deps.push_back(dep(s == 0 ? last : prev_recv));
      rp.add(std::move(send));
      // Receives write distinct final chunks, but must not land before the
      // local reduce-scatter chain finishes writing acc — dep on `last`.
      Action recv = recv_action(left, 1000 + s, chunk_len(recv_c),
                                SlotRef{1, chunk_off(recv_c)});
      recv.deps.push_back(dep(last));
      prev_recv = rp.add(std::move(recv));
    }
  }
  detail::finalize_plan(plan, spec);
  return plan;
}

}  // namespace han::coll
