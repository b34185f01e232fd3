#include "han/task/builders.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "han/hierarchy.hpp"
#include "han/synth/spec.hpp"
#include "han/task/shapes.hpp"
#include "han/task/stripe.hpp"
#include "simbase/assert.hpp"

namespace han::task {

namespace {

using coll::CollConfig;
using coll::CollKind;
using coll::CollModule;
using coll::Segmenter;
using core::HanConfig;
using core::Hierarchy;
using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;

BufView seg_of(BufView buf, const Segmenter& segs, int i) {
  return buf.slice(segs.offset(i), segs.length(i));
}

/// The task record of one module call; fields the call does not take keep
/// their defaults.
TaskNode task(Op op, Level level, int step, std::vector<int> deps,
              CollModule* mod, const mpi::Comm* comm, int me, int root,
              BufView send, BufView recv, Datatype dtype = Datatype::Byte,
              ReduceOp rop = ReduceOp::Sum, CollConfig cfg = {}) {
  TaskNode n;
  n.op = op;
  n.level = level;
  n.step = step;
  n.deps = std::move(deps);
  n.mod = mod;
  n.comm = comm;
  n.me = me;
  n.root = root;
  n.send = send;
  n.recv = recv;
  n.dtype = dtype;
  n.rop = rop;
  n.cfg = cfg;
  return n;
}

// ---------------------------------------------------------------------------
// Ladder resolution: the per-operation view of a Hierarchy.
// ---------------------------------------------------------------------------

/// One rooted operation's resolved ladder: globally degenerate levels
/// collapsed away, per-rank comms/ranks/roots/enables settled.
struct Ladder {
  std::vector<const mpi::Comm*> comm;  // my level family
  std::vector<int> rank;               // my rank within it
  std::vector<int> root;               // the op root's rank within its family
  std::vector<Level> level;            // Intra / Mid / Inter task level
  std::vector<bool> member;            // I hold the root's slots below this
  std::vector<bool> enabled;           // member && my family moves data
  bool flat2 = false;                  // the canonical intra+inter ladder
  int de() const { return static_cast<int>(comm.size()); }
};

Ladder make_ladder(const Hierarchy& h, int me, int root) {
  const std::vector<int>& keep = h.live_levels();
  Ladder lad;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const int l = keep[i];
    const mpi::Comm* c = h.comm(l, me);
    lad.comm.push_back(c);
    lad.rank.push_back(h.rank(l, me));
    lad.root.push_back(h.rank(l, root));
    lad.level.push_back(h.level_name(l) == "cluster" ? Level::Inter
                        : i == 0                     ? Level::Intra
                                                     : Level::Mid);
    // The n-level root trick: I run level l's operation iff I hold the
    // root's slot at every level below it (HanComm's root_low_rank test,
    // generalized). Spliced levels have trivial all-zero slots, so the
    // original level index is the right one to compare at.
    lad.member.push_back(h.same_slots_below(l, me, root));
    lad.enabled.push_back(lad.member.back() && c != nullptr && c->size() > 1);
  }
  lad.flat2 = lad.de() == 2 && lad.level[0] == Level::Intra &&
              lad.level[1] == Level::Inter;
  return lad;
}

/// The module running level l's stage: the inter level uses cfg.imod; the
/// intra/mid levels use cfg.smod, or the copy-in-copy-out p2p module when
/// the whole message sits under the zero-copy switchover cfg.zcs.
CollModule* ladder_module(core::HanModule& m, const Ladder& lad, int l,
                          const HanConfig& cfg, std::size_t msg_bytes) {
  if (lad.level[l] == Level::Inter) return m.inter_module(cfg);
  if (cfg.zcs > 0 && msg_bytes < cfg.zcs) return &m.modules().libnbc();
  return m.intra_module(cfg);
}

// ---------------------------------------------------------------------------
// Schedules: which stages a ladder pipeline runs, in what order, at what
// lags, over how many leader stripes.
// ---------------------------------------------------------------------------

/// One rank's resolved pipeline: a ladder per leader stripe (segment i
/// runs on lads[i % k]), the stage list in per-step emission order, and
/// the rail stripe of its inter stages.
struct Pipeline {
  std::vector<Ladder> lads;
  std::vector<StageSpec> stages;
  int sf = 1;

  const Ladder& lad(int seg) const {
    return lads[static_cast<std::size_t>(seg) % lads.size()];
  }
};

/// Resolve cfg's schedule for one rooted ladder operation. sched = ""
/// (and any reduce, which has no spec grammar) runs the kind's canonical
/// chain on the ladder cfg selects. A SynthSpec id runs its own stage
/// list: a spec without mid roles pins the paper's flat ladder, a
/// mid-carrying one the derived ladder (on a flat machine its mid stages
/// drop out), and k > 1 leaders give stripe j the ladder rooted at rank j
/// — stripe j's intra stages root at local rank j, and j's own families
/// carry its upper stages. A config naming a schedule is synthesizer
/// output or a cached table entry, so a malformed or wrong-kind id is
/// corruption, not a fallback.
Pipeline resolve_pipeline(core::HanModule& m, const mpi::Comm& comm, int me,
                          int root, const HanConfig& cfg, CollKind kind) {
  synth::SynthSpec spec;
  const bool has_spec = kind != CollKind::Reduce && !cfg.sched.empty();
  if (has_spec) {
    HAN_ASSERT_MSG(synth::SynthSpec::parse(cfg.sched, &spec),
                   "cfg.sched is not a valid synthesized-schedule id");
    HAN_ASSERT_MSG(spec.kind == kind,
                   "cfg.sched names a schedule for a different collective");
  }
  Hierarchy& h = !has_spec            ? m.ladder_for(comm, cfg)
                 : spec.three_level() ? m.hierarchy(comm)
                                      : m.flat_hierarchy(comm);
  Pipeline p;
  p.lads.push_back(make_ladder(h, me, root));
  const int de = p.lads.front().de();
  if (de < 2) return p;  // the builders emit the unsegmented op themselves

  p.sf = has_spec ? std::max(cfg.sf, spec.sf) : cfg.sf;
  const int width = p.lads.front().comm[0]->size();
  const int k = has_spec ? std::max(1, std::min(spec.leaders, width)) : 1;
  for (int j = 1; j < k; ++j) p.lads.push_back(make_ladder(h, me, j));
  const Ladder& lad = p.lads.front();
  // Non-members of the root's inter family keep the seed's dedicated
  // lag-0 follower shape on the flat ladder; deeper ladders share one
  // stage list whose per-rank enables encode every role.
  if (kind == CollKind::Bcast && lad.flat2 && !lad.member[1]) {
    p.stages = bcast_follower_shape();
  } else {
    if (!has_spec) spec.stages = synth::canonical_chain(kind, lad.level);
    p.stages = ladder_stages(spec.stages, lad.level);
  }
  return p;
}

/// Emit a resolved pipeline of reduce and bcast stages (each task runs
/// only where its segment's ladder enables the level). A level's reduce
/// combines the partial of the nearest live level below into its own
/// partial (recv at the top) one segment ahead of the level above; a
/// level's bcast forwards what the nearest level above delivered, and the
/// top bcast of an allreduce returns the total the top reduce just formed.
/// `ibcfg` configures the inter bcasts.
void emit_pipeline(TaskGraph& g, core::HanModule& m, const Pipeline& p,
                   const HanConfig& cfg, const CollConfig& ibcfg,
                   BufView send, BufView recv, Datatype dtype, ReduceOp op) {
  mpi::SimWorld& w = m.world_ref();
  const int de = p.lads.front().de();
  const CollConfig ircfg{cfg.iralg, cfg.irs};
  const CollConfig mcfg{cfg.malg, cfg.ms};
  const Segmenter segs(send.bytes, cfg.fs, dtype);
  const int u = segs.count();

  // Per-level partials: level l reduces into part[l], which the next level
  // up forwards (han3's leaf_part/node_part, generalized). Only ranks that
  // participate at level l+1 in some stripe hold real data in part[l].
  std::vector<BufView> part(static_cast<std::size_t>(de - 1));
  if (std::any_of(p.stages.begin(), p.stages.end(),
                  [](const StageSpec& s) { return s.op == Op::Reduce; })) {
    for (int l = 0; l + 1 < de; ++l) {
      const bool holds =
          std::any_of(p.lads.begin(), p.lads.end(),
                      [l](const Ladder& lad) { return lad.member[l + 1]; });
      part[static_cast<std::size_t>(l)] =
          g.temp(w.data_mode() && holds, send.bytes, dtype);
    }
  }
  auto part_seg = [&](int l, int i) {
    return seg_of(part[static_cast<std::size_t>(l)], segs, i);
  };

  std::vector<std::vector<int>> red(de, std::vector<int>(u, -1));
  std::vector<std::vector<int>> bc(de, std::vector<int>(u, -1));
  for_each_task(p.stages, u, [&](int t, const StageSpec& s, int i) {
    const Ladder& lad = p.lad(i);
    const int l = s.tier;
    if (!lad.enabled[l]) return;
    const bool inter = lad.level[l] == Level::Inter;
    TaskNode n = task(s.op, s.level, t, {},
                      ladder_module(m, lad, l, cfg, send.bytes), lad.comm[l],
                      lad.rank[l], lad.root[l], {}, {}, dtype);
    if (s.op == Op::Reduce) {
      n.cfg = inter ? ircfg : l == 0 ? CollConfig{} : mcfg;
      n.send = seg_of(send, segs, i);
      for (int j = l - 1; j >= 0; --j) {
        if (lad.enabled[j]) {
          n.send = part_seg(j, i);
          break;
        }
      }
      n.recv = l == de - 1 ? seg_of(recv, segs, i)
               : lad.member[l + 1]
                   ? part_seg(l, i)
                   : BufView::timing_only(segs.length(i), dtype);
      n.rop = op;
      for (int j = l - 1; j >= 0 && n.deps.empty(); --j) {
        if (red[j][i] >= 0) n.deps.push_back(red[j][i]);
      }
      if (inter) n.sf = effective_sf(p.sf, w.profile(), n.send.bytes, dtype);
      red[l][i] = g.add(std::move(n));
    } else {
      n.cfg = inter ? ibcfg : l == 0 ? CollConfig{} : mcfg;
      n.recv = seg_of(recv, segs, i);
      if (l == de - 1) {
        if (red[l][i] >= 0) n.deps.push_back(red[l][i]);
      } else {
        for (int j = l + 1; j < de && n.deps.empty(); ++j) {
          if (bc[j][i] >= 0) n.deps.push_back(bc[j][i]);
        }
      }
      if (inter) n.sf = effective_sf(p.sf, w.profile(), n.recv.bytes, dtype);
      bc[l][i] = g.add(std::move(n));
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Bcast (paper Fig. 1, generalized): the top level runs ib(t); each lower
// level re-broadcasts one segment behind the level above; level 0 delivers
// with sb. On the canonical flat ladder this is exactly the seed's leader
// ib(0), sbib(1..u-1), sb(u-1) / follower sb(0..u-1) pair.
// ---------------------------------------------------------------------------

TaskGraph build_bcast(core::HanModule& m, const mpi::Comm& comm, int me,
                      int root, BufView buf, Datatype dtype,
                      const HanConfig& cfg) {
  TaskGraph g;
  const Pipeline p =
      resolve_pipeline(m, comm, me, root, cfg, CollKind::Bcast);
  const Ladder& lad = p.lads.front();
  if (lad.de() == 0) return g;  // single rank: nothing to move
  if (lad.de() == 1) {
    // Ladder collapsed to one intra level: a single unsegmented operation
    // (the seed's single-node path).
    if (lad.enabled[0]) {
      g.add(task(Op::Bcast, lad.level[0], 0, {},
                 ladder_module(m, lad, 0, cfg, buf.bytes), lad.comm[0],
                 lad.rank[0], lad.root[0], {}, buf, dtype));
    }
    return g;
  }
  // No reduce stages: the op argument is never used.
  emit_pipeline(g, m, p, cfg, CollConfig{cfg.ibalg, cfg.ibs}, buf, buf,
                dtype, ReduceOp::Sum);
  return g;
}

// ---------------------------------------------------------------------------
// Reduce: the mirror ladder — each level reduces into a per-level partial
// one segment ahead of the level above (the rooted prefix of Fig. 5).
// ---------------------------------------------------------------------------

TaskGraph build_reduce(core::HanModule& m, const mpi::Comm& comm, int me,
                       int root, BufView send, BufView recv, Datatype dtype,
                       ReduceOp op, const HanConfig& cfg) {
  TaskGraph g;
  mpi::SimWorld& w = m.world_ref();
  const Pipeline p =
      resolve_pipeline(m, comm, me, root, cfg, CollKind::Reduce);
  const Ladder& lad = p.lads.front();

  if (lad.de() == 0) {
    if (w.data_mode() && send.has_data() && recv.has_data()) {
      std::memcpy(recv.data, send.data, send.bytes);
    }
    return g;
  }
  if (lad.de() == 1) {
    if (lad.enabled[0]) {
      g.add(task(Op::Reduce, lad.level[0], 0, {},
                 ladder_module(m, lad, 0, cfg, send.bytes), lad.comm[0],
                 lad.rank[0], lad.root[0], send, recv, dtype, op));
    } else if (w.data_mode() && send.has_data() && recv.has_data()) {
      std::memcpy(recv.data, send.data, send.bytes);
    }
    return g;
  }

  // No bcast stages: the inter bcast config is never used.
  emit_pipeline(g, m, p, cfg, CollConfig{}, send, recv, dtype, op);
  return g;
}

// ---------------------------------------------------------------------------
// Allreduce (paper Fig. 5, generalized): the reduce ladder ascends to the
// top, then the bcast ladder descends — 2d stages over d live levels. On
// the flat ladder this is exactly the paper's 4-stage sr → ir → ib → sb
// pipeline; at depth 3 it is the retired allreduce3 bit for bit. A
// schedule with k > 1 leaders stripes the segments over k node-local
// leaders, each driving its own up communicator (the multi-leader
// extension, paper §II-A).
// ---------------------------------------------------------------------------

TaskGraph build_allreduce(core::HanModule& m, const mpi::Comm& comm, int me,
                          BufView send, BufView recv, Datatype dtype,
                          ReduceOp op, const HanConfig& cfg) {
  TaskGraph g;
  mpi::SimWorld& w = m.world_ref();
  // No user root: the slot-0 leader chain carries the upper levels.
  const Pipeline p =
      resolve_pipeline(m, comm, me, /*root=*/0, cfg, CollKind::Allreduce);
  const Ladder& lad = p.lads.front();

  if (lad.de() == 0) {
    if (w.data_mode() && send.has_data() && recv.has_data()) {
      std::memcpy(recv.data, send.data, send.bytes);
    }
    return g;
  }
  if (lad.de() == 1) {
    if (lad.enabled[0]) {
      g.add(task(Op::Allreduce, lad.level[0], 0, {},
                 ladder_module(m, lad, 0, cfg, send.bytes), lad.comm[0],
                 lad.rank[0], /*root=*/0, send, recv, dtype, op));
    } else if (w.data_mode() && send.has_data() && recv.has_data()) {
      std::memcpy(recv.data, send.data, send.bytes);
    }
    return g;
  }

  // Paper §III-B: the inter reduce and bcast share algorithm and root to
  // maximize the opposite-direction overlap on the full-duplex network.
  emit_pipeline(g, m, p, cfg, CollConfig{cfg.iralg, cfg.ibs}, send, recv,
                dtype, op);
  return g;
}

// ---------------------------------------------------------------------------
// Reduce-scatter (equal blocks): sr pipeline → inter ring-or-tree → ss.
// The ring path is dependency-driven (all nodes at step 0): slice k's
// strided inter-node ring overlaps slice k+1's intra reduces, exactly the
// seed's issue-without-await structure, which step barriers cannot express.
// ---------------------------------------------------------------------------

TaskGraph build_reduce_scatter(core::HanModule& m, const mpi::Comm& comm,
                               int me, BufView send, BufView recv,
                               Datatype dtype, ReduceOp op,
                               const HanConfig& cfg) {
  TaskGraph g;
  mpi::SimWorld& w = m.world_ref();
  Hierarchy& hc = m.flat_hierarchy(comm);
  const mpi::Comm* low = &hc.low(me);
  const int me_low = hc.low_rank(me);
  const bool has_intra = low->size() > 1;
  const bool has_inter = hc.up(me) != nullptr;
  const std::size_t total = send.bytes;
  CollModule* smod = m.intra_module(cfg);
  CollModule* libnbc = &m.modules().libnbc();

  if (!has_inter) {
    if (has_intra) {
      // Single node: reduce to the leader, then scatter the blocks back.
      const BufView full = g.temp(w.data_mode() && me_low == 0, total, dtype);
      const int red = g.add(task(Op::Reduce, Level::Intra, 0, {}, smod, low,
                                 me_low, 0, send, full, dtype, op));
      g.add(task(Op::Scatter, Level::Intra, 1, {red}, libnbc, low, me_low, 0,
                 full, recv));
    } else if (w.data_mode() && send.has_data() && recv.has_data()) {
      std::memcpy(recv.data, send.data, send.bytes);
    }
    return g;
  }

  CollModule* imod = m.inter_module(cfg);
  const std::size_t region = recv.bytes * low->size();  // this node's slice
  const Segmenter segs(total, cfg.fs, dtype);
  const int u = segs.count();
  const bool leader = me_low == 0;
  const bool ring = cfg.imod == "ring";

  if (leader) {
    const mpi::Comm* up = hc.up(me);
    const int me_up = hc.up_rank(me);
    const BufView partial = g.temp(w.data_mode() && has_intra, total, dtype);
    // Without an intra level the node's region is the caller's block.
    const BufView region_buf =
        has_intra ? g.temp(w.data_mode(), region, dtype) : recv;
    int inter_last = -1;  // node delivering this node's region

    if (ring) {
      const CollConfig ircfg{coll::Algorithm::Ring, cfg.irs};
      if (has_intra) {
        const int nodes = hc.node_count();
        int sr_last = -1, ring_prev = -1, ring_prev2 = -1;
        for_each_ring_slice(
            region, cfg.fs, dtype,
            [&](int /*k*/, std::size_t s_off, std::size_t s_len) {
              for (int j = 0; j < nodes; ++j) {
                const std::size_t off = j * region + s_off;
                std::vector<int> deps;
                if (sr_last >= 0) deps.push_back(sr_last);
                // Slice k's reduces start once ring(k-1) is *issued*
                // (i.e. ring(k-2) completed) — they overlap ring(k-1),
                // which is the point of the two-level pipeline.
                if (j == 0 && ring_prev2 >= 0) deps.push_back(ring_prev2);
                sr_last = g.add(task(Op::Reduce, Level::Intra, 0,
                                     std::move(deps), smod, low, me_low, 0,
                                     send.slice(off, s_len),
                                     partial.slice(off, s_len), dtype, op));
              }
              std::vector<int> deps{sr_last};
              if (ring_prev >= 0) deps.push_back(ring_prev);
              ring_prev2 = ring_prev;
              TaskNode rs = task(Op::ReduceScatter, Level::Inter, 0,
                                 std::move(deps), &m.modules().ring(), up,
                                 me_up, 0, partial.slice(s_off, total - s_off),
                                 region_buf.slice(s_off, s_len), dtype, op,
                                 ircfg);
              rs.stride = region;
              ring_prev = g.add(std::move(rs));
            });
        inter_last = ring_prev;
      } else {
        // No intra level: one bandwidth-optimal ring reduce-scatter of
        // the whole vector — chunk j of the up comm is exactly node j's
        // region (node-contiguous placement).
        inter_last = g.add(task(Op::ReduceScatter, Level::Inter, 0, {}, imod,
                                up, me_up, 0, send, region_buf, dtype, op,
                                ircfg));
      }
    } else {
      // Tree path: sr ⊕ ir pipeline reducing the whole vector to up-root
      // 0, then one inter scatter of the node regions.
      const CollConfig ircfg{cfg.iralg, cfg.irs};
      const BufView full_red =
          g.temp(w.data_mode() && me_up == 0, total, dtype);
      std::vector<synth::StageSlot> chain =
          synth::SynthSpec::canonical(CollKind::Reduce).stages;
      if (!has_intra) {
        std::erase_if(chain,
                      [](const synth::StageSlot& s) { return s.role == "sr"; });
      }
      std::vector<int> sr_node(u, -1);
      int ir_last = -1;
      for_each_task(chain, u, [&](int t, const synth::StageSlot& s, int i) {
        if (s.role == "sr") {
          sr_node[i] = g.add(task(Op::Reduce, Level::Intra, t, {}, smod, low,
                                  me_low, 0, seg_of(send, segs, i),
                                  seg_of(partial, segs, i), dtype, op));
        } else {  // ir(i)
          std::vector<int> deps;
          if (has_intra) deps.push_back(sr_node[i]);
          ir_last = g.add(task(Op::Reduce, Level::Inter, t, std::move(deps),
                               imod, up, me_up, 0,
                               seg_of(has_intra ? partial : send, segs, i),
                               seg_of(full_red, segs, i), dtype, op, ircfg));
        }
      });
      inter_last = g.add(task(Op::Scatter, Level::Inter,
                              shape_steps(chain, u), {ir_last}, imod, up,
                              me_up, 0, full_red, region_buf));
    }

    // ss: scatter the node's reduced region into per-rank blocks.
    if (has_intra) {
      g.add(task(Op::Scatter, Level::Intra, g.nodes[inter_last].step + 1,
                 {inter_last}, libnbc, low, me_low, 0, region_buf, recv));
    }
  } else {
    // Non-leaders: contribute to every sr (in exactly the leader's issue
    // order — the low comm matches collectives by call order), then
    // receive their block.
    int sr_last = -1;
    if (ring) {
      const int nodes = hc.node_count();
      for_each_ring_slice(
          region, cfg.fs, dtype,
          [&](int /*k*/, std::size_t s_off, std::size_t s_len) {
            for (int j = 0; j < nodes; ++j) {
              std::vector<int> deps;
              if (sr_last >= 0) deps.push_back(sr_last);
              sr_last = g.add(task(Op::Reduce, Level::Intra, 0,
                                   std::move(deps), smod, low, me_low, 0,
                                   send.slice(j * region + s_off, s_len),
                                   BufView::timing_only(s_len, dtype), dtype,
                                   op));
            }
          });
    } else {
      for (int i = 0; i < u; ++i) {
        sr_last = g.add(task(Op::Reduce, Level::Intra, i, {}, smod, low,
                             me_low, 0, seg_of(send, segs, i),
                             BufView::timing_only(segs.length(i), dtype),
                             dtype, op));
      }
    }
    std::vector<int> deps;
    if (sr_last >= 0) deps.push_back(sr_last);
    g.add(task(Op::Scatter, Level::Intra,
               sr_last >= 0 ? g.nodes[sr_last].step + 1 : 0, std::move(deps),
               libnbc, low, me_low, 0, BufView::timing_only(region), recv));
  }
  return g;
}

// ---------------------------------------------------------------------------
// Gather / Scatter / Allgather / Barrier (paper §III: "similar designs can
// be extended to other collective operations")
// ---------------------------------------------------------------------------

TaskGraph build_gather(core::HanModule& m, const mpi::Comm& comm, int me,
                       int root, BufView send, BufView recv,
                       const HanConfig& cfg) {
  TaskGraph g;
  mpi::SimWorld& w = m.world_ref();
  Hierarchy& hc = m.flat_hierarchy(comm);
  const mpi::Comm* low = &hc.low(me);
  const int me_low = hc.low_rank(me);
  const int root_low = hc.low_rank(root);
  const bool has_inter = hc.up(me) != nullptr;
  CollModule* libnbc = &m.modules().libnbc();

  if (!has_inter) {
    g.add(task(Op::Gather, Level::Intra, 0, {}, libnbc, low, me_low, root_low,
               send, recv));
    return g;
  }

  // sg: node-local gather to this operation's leaders. P2P gather over the
  // shm pipe — Open MPI similarly falls back to a P2P module here.
  const std::size_t node_bytes = send.bytes * low->size();
  const bool leader = me_low == root_low;
  const BufView node_block =
      leader ? g.temp(w.data_mode(), node_bytes, Datatype::Byte)
             : BufView::timing_only(node_bytes);
  const int sg = g.add(task(Op::Gather, Level::Intra, 0, {}, libnbc, low,
                            me_low, root_low, send, node_block));
  // ig: inter-node gather of node blocks to the root.
  if (leader) {
    g.add(task(Op::Gather, Level::Inter, 1, {sg}, m.inter_module(cfg),
               hc.up(me), hc.up_rank(me), hc.up_rank(root), node_block,
               me == root ? recv : BufView::timing_only(recv.bytes)));
  }
  return g;
}

TaskGraph build_scatter(core::HanModule& m, const mpi::Comm& comm, int me,
                        int root, BufView send, BufView recv,
                        const HanConfig& cfg) {
  TaskGraph g;
  mpi::SimWorld& w = m.world_ref();
  Hierarchy& hc = m.flat_hierarchy(comm);
  const mpi::Comm* low = &hc.low(me);
  const int me_low = hc.low_rank(me);
  const int root_low = hc.low_rank(root);
  const bool has_inter = hc.up(me) != nullptr;
  CollModule* libnbc = &m.modules().libnbc();

  if (!has_inter) {
    g.add(task(Op::Scatter, Level::Intra, 0, {}, libnbc, low, me_low,
               root_low, send, recv));
    return g;
  }

  const std::size_t node_bytes = recv.bytes * low->size();
  const bool leader = me_low == root_low;
  const BufView node_block =
      leader ? g.temp(w.data_mode(), node_bytes, Datatype::Byte)
             : BufView::timing_only(node_bytes);
  std::vector<int> ss_deps;
  if (leader) {
    ss_deps.push_back(g.add(
        task(Op::Scatter, Level::Inter, 0, {}, m.inter_module(cfg), hc.up(me),
             hc.up_rank(me), hc.up_rank(root),
             me == root ? send : BufView::timing_only(send.bytes),
             node_block)));
  }
  g.add(task(Op::Scatter, Level::Intra, leader ? 1 : 0, std::move(ss_deps),
             libnbc, low, me_low, root_low, node_block, recv));
  return g;
}

TaskGraph build_allgather(core::HanModule& m, const mpi::Comm& comm, int me,
                          BufView send, BufView recv, const HanConfig& cfg) {
  TaskGraph g;
  mpi::SimWorld& w = m.world_ref();
  Hierarchy& hc = m.flat_hierarchy(comm);
  const mpi::Comm* low = &hc.low(me);
  const int me_low = hc.low_rank(me);
  const bool has_inter = hc.up(me) != nullptr;
  CollModule* libnbc = &m.modules().libnbc();

  if (!has_inter) {
    g.add(task(Op::Allgather, Level::Intra, 0, {}, libnbc, low, me_low, 0,
               send, recv));
    return g;
  }

  const bool leader = me_low == 0;
  const std::size_t node_bytes = send.bytes * low->size();
  const BufView node_block =
      leader ? g.temp(w.data_mode(), node_bytes, Datatype::Byte)
             : BufView::timing_only(node_bytes);

  // sg: gather node block to the leader.
  const int sg = g.add(task(Op::Gather, Level::Intra, 0, {}, libnbc, low,
                            me_low, 0, send, node_block));
  // iag: inter-node allgather of node blocks (leaders only) straight into
  // the final layout (node-contiguous placement).
  int sb_dep = sg;
  if (leader) {
    sb_dep = g.add(task(Op::Allgather, Level::Inter, 1, {sg},
                        m.inter_module(cfg), hc.up(me), hc.up_rank(me), 0,
                        node_block, recv));
  }
  // sb: broadcast the assembled buffer within the node.
  g.add(task(Op::Bcast, Level::Intra, leader ? 2 : 1, {sb_dep},
             m.intra_module(cfg), low, me_low, 0, {}, recv));
  return g;
}

TaskGraph build_barrier(core::HanModule& m, const mpi::Comm& comm, int me) {
  TaskGraph g;
  Hierarchy& hc = m.flat_hierarchy(comm);
  const mpi::Comm* low = &hc.low(me);
  const int me_low = hc.low_rank(me);
  const bool has_intra = low->size() > 1;
  const bool has_inter = hc.up(me) != nullptr;
  CollModule* sm = &m.modules().sm();

  // Fan-in: node barrier; leaders: inter barrier; fan-out: node signal.
  int prev = -1;
  if (has_intra) {
    prev = g.add(task(Op::Barrier, Level::Intra, 0, {}, sm, low, me_low, 0,
                      {}, {}));
  }
  if (has_inter && me_low == 0) {
    std::vector<int> deps;
    if (prev >= 0) deps.push_back(prev);
    prev = g.add(task(Op::Barrier, Level::Inter, prev >= 0 ? 1 : 0,
                      std::move(deps), &m.modules().libnbc(), hc.up(me),
                      hc.up_rank(me), 0, {}, {}));
  }
  if (has_intra) {
    std::vector<int> deps;
    if (prev >= 0) deps.push_back(prev);
    g.add(task(Op::Bcast, Level::Intra,
               prev >= 0 ? g.nodes[prev].step + 1 : 0, std::move(deps), sm,
               low, me_low, 0, {}, BufView::timing_only(0)));
  }
  return g;
}

}  // namespace han::task
