#include "han/task/builders.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "han/hierarchy.hpp"
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
using mpi::Datatype;
using mpi::ReduceOp;

constexpr int kMaxTiers = RankView::kMaxTiers;
constexpr int kRootless = ShapeNode::kRootless;
// The flat kinds' tiers: the node-local and the inter-node communicator.
constexpr int kLow = 0;
constexpr int kUp = 1;

bool ladder_kind(CollKind kind) {
  return kind == CollKind::Bcast || kind == CollKind::Reduce ||
         kind == CollKind::Allreduce;
}

BufRef seg_of(BufRef buf, const Segmenter& segs, int i) {
  return buf.slice(segs.offset(i), segs.length(i));
}

/// The shape record of one module call on `tier`, rooted at ladder
/// stripe `stripe`'s root (kRootless: root 0); fields the call does not
/// take keep their defaults.
ShapeNode task(Op op, Level level, int step, CollModule* mod, int tier,
               int stripe, BufRef send, BufRef recv,
               Datatype dtype = Datatype::Byte, ReduceOp rop = ReduceOp::Sum,
               CollConfig cfg = {}) {
  ShapeNode n;
  n.op = op;
  n.level = level;
  n.step = step;
  n.mod = mod;
  n.tier = tier;
  n.stripe = stripe;
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
/// collapsed away, per-rank roles settled.
struct Ladder {
  int de = 0;                              // live tiers
  std::array<Level, kMaxTiers> level{};    // Intra / Mid / Inter task level
  std::array<bool, kMaxTiers> member{};    // I hold the root's slots below
  std::array<bool, kMaxTiers> enabled{};   // member && my family moves data
  bool flat2 = false;                      // the canonical intra+inter ladder
  std::span<const Level> levels() const {
    return {level.data(), static_cast<std::size_t>(de)};
  }
};

/// Whether rank `me` runs tier l's operation of a ladder rooted at parent
/// rank `root` (enabled) and holds the root's slots below it (member).
/// The n-level root trick: I run level l's operation iff I hold the
/// root's slot at every level below it (HanComm's root_low_rank test,
/// generalized). Spliced levels have trivial all-zero slots, so the
/// original level index is the right one to compare at.
std::pair<bool, bool> ladder_role(const Hierarchy& h, int l, int me,
                                  int root) {
  const bool member = h.same_slots_below(l, me, root);
  const mpi::Comm* c = h.comm(l, me);
  return {member, member && c != nullptr && c->size() > 1};
}

Ladder make_ladder(const Hierarchy& h, int me, int root) {
  const std::vector<int>& keep = h.live_levels();
  Ladder lad;
  lad.de = static_cast<int>(keep.size());
  for (int i = 0; i < lad.de; ++i) {
    const int l = keep[static_cast<std::size_t>(i)];
    lad.level[i] = h.level_name(l) == "cluster" ? Level::Inter
                   : i == 0                     ? Level::Intra
                                                : Level::Mid;
    std::tie(lad.member[i], lad.enabled[i]) = ladder_role(h, l, me, root);
  }
  lad.flat2 = lad.de == 2 && lad.level[0] == Level::Intra &&
              lad.level[1] == Level::Inter;
  return lad;
}

/// The leader-stripe count k of a ladder call on rank `me`: a schedule's
/// leaders, clamped to my node-local width; 1 without a schedule or a
/// pipeline.
int stripe_count(const Front& f, int me) {
  const std::vector<int>& keep = f.h->live_levels();
  if (!f.has_spec || keep.size() < 2) return 1;
  const int width = f.h->comm(keep.front(), me)->size();
  return std::max(1, std::min(f.spec.leaders, width));
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
};

/// Resolve the front's schedule for one rank. sched = "" (and any
/// reduce, which has no spec grammar) runs the kind's canonical chain on
/// the ladder cfg selects. A SynthSpec id runs its own stage list: a spec
/// without mid roles pins the paper's flat ladder, a mid-carrying one the
/// derived ladder (on a flat machine its mid stages drop out), and k > 1
/// leaders give stripe j the ladder rooted at rank j — stripe j's intra
/// stages root at local rank j, and j's own families carry its upper
/// stages.
Pipeline resolve_pipeline(const Front& f, const RankView& v) {
  const Hierarchy& h = *f.h;
  const HanConfig& cfg = *f.cfg;
  Pipeline p;
  p.lads.push_back(make_ladder(h, v.me, v.root));
  const Ladder& lad = p.lads.front();
  if (lad.de < 2) return p;  // the builders emit the unsegmented op themselves

  p.sf = f.has_spec ? std::max(cfg.sf, f.spec.sf) : cfg.sf;
  const int k = stripe_count(f, v.me);
  for (int j = 1; j < k; ++j) p.lads.push_back(make_ladder(h, v.me, j));
  const Ladder& first = p.lads.front();
  // Non-members of the root's inter family keep the seed's dedicated
  // lag-0 follower shape on the flat ladder; deeper ladders share one
  // stage list whose per-rank enables encode every role.
  if (f.kind == CollKind::Bcast && first.flat2 && !first.member[1]) {
    p.stages = bcast_follower_shape();
  } else if (f.has_spec) {
    p.stages = ladder_stages(f.spec.stages, first.levels());
  } else {
    p.stages = ladder_stages(synth::canonical_chain(f.kind, first.levels()),
                             first.levels());
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
void emit_pipeline(GraphShape& g, core::HanModule& m, const Pipeline& p,
                   const HanConfig& cfg, const CollConfig& ibcfg,
                   BufRef send, BufRef recv, Datatype dtype, ReduceOp op) {
  mpi::SimWorld& w = m.world_ref();
  const int de = p.lads.front().de;
  const int k = static_cast<int>(p.lads.size());
  const CollConfig ircfg{cfg.iralg, cfg.irs};
  const CollConfig mcfg{cfg.malg, cfg.ms};
  const Segmenter segs(send.bytes, cfg.fs, dtype);
  const int u = segs.count();

  // Per-level partials: level l reduces into part[l], which the next level
  // up forwards (han3's leaf_part/node_part, generalized). Only ranks that
  // participate at level l+1 in some stripe hold real data in part[l].
  std::vector<BufRef> part(static_cast<std::size_t>(de - 1));
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
    const int stripe = i % k;
    const Ladder& lad = p.lads[static_cast<std::size_t>(stripe)];
    const int l = s.tier;
    if (!lad.enabled[l]) return;
    const bool inter = lad.level[l] == Level::Inter;
    ShapeNode n = task(s.op, s.level, t,
                       ladder_module(m, lad, l, cfg, send.bytes), l, stripe,
                       {}, {}, dtype);
    int dep = -1;
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
                   : BufRef::timing_only(segs.length(i), dtype);
      n.rop = op;
      for (int j = l - 1; j >= 0 && dep < 0; --j) dep = red[j][i];
      if (inter) n.sf = effective_sf(p.sf, w.profile(), n.send.bytes, dtype);
      red[l][i] = g.add(n, {dep});
    } else {
      n.cfg = inter ? ibcfg : l == 0 ? CollConfig{} : mcfg;
      n.recv = seg_of(recv, segs, i);
      if (l == de - 1) {
        dep = red[l][i];
      } else {
        for (int j = l + 1; j < de && dep < 0; ++j) dep = bc[j][i];
      }
      if (inter) n.sf = effective_sf(p.sf, w.profile(), n.recv.bytes, dtype);
      bc[l][i] = g.add(n, {dep});
    }
  });
}

// ---------------------------------------------------------------------------
// Bcast (paper Fig. 1, generalized): the top level runs ib(t); each lower
// level re-broadcasts one segment behind the level above; level 0 delivers
// with sb. On the canonical flat ladder this is exactly the seed's leader
// ib(0), sbib(1..u-1), sb(u-1) / follower sb(0..u-1) pair.
//
// Reduce: the mirror ladder — each level reduces into a per-level partial
// one segment ahead of the level above (the rooted prefix of Fig. 5).
//
// Allreduce (paper Fig. 5, generalized): the reduce ladder ascends to the
// top, then the bcast ladder descends — 2d stages over d live levels. On
// the flat ladder this is exactly the paper's 4-stage sr → ir → ib → sb
// pipeline; at depth 3 it is the retired allreduce3 bit for bit. A
// schedule with k > 1 leaders stripes the segments over k node-local
// leaders, each driving its own up communicator (the multi-leader
// extension, paper §II-A).
// ---------------------------------------------------------------------------

/// Bcast, reduce and allreduce: the unsegmented single-level op when the
/// ladder collapses, else the resolved pipeline.
GraphShape shape_ladder(core::HanModule& m, const Front& f, const RankView& v,
                        const Call& c) {
  GraphShape g;
  const HanConfig& cfg = *f.cfg;
  const Pipeline p = resolve_pipeline(f, v);
  const Ladder& lad = p.lads.front();
  const bool bcast = f.kind == CollKind::Bcast;
  const BufRef send = BufRef::of(Arena::Send, c.send);
  const BufRef recv = BufRef::of(Arena::Recv, c.recv);
  if (lad.de < 2) {
    // Ladder collapsed to one intra level: a single unsegmented operation
    // (the seed's single-node path); a single rank moves nothing, but a
    // reduce or allreduce still delivers its own contribution.
    if (lad.de == 1 && lad.enabled[0]) {
      const Op op = bcast                         ? Op::Bcast
                    : f.kind == CollKind::Reduce ? Op::Reduce
                                                  : Op::Allreduce;
      // The allreduce's single-level call takes no root.
      const int stripe = f.kind == CollKind::Allreduce ? kRootless : 0;
      g.add(task(op, lad.level[0], 0,
                 ladder_module(m, lad, 0, cfg, c.send.bytes), 0, stripe,
                 bcast ? BufRef{} : send, recv, c.dtype,
                 bcast ? ReduceOp::Sum : c.op));
    } else if (!bcast) {
      g.copy = m.world_ref().data_mode();
    }
    return g;
  }
  // Bcast: no reduce stages, so the op argument is never used. Reduce: no
  // bcast stages, so the inter bcast config is never used. Allreduce
  // (paper §III-B): the inter reduce and bcast share algorithm and root
  // to maximize the opposite-direction overlap on the full-duplex network.
  const CollConfig ibcfg = bcast ? CollConfig{cfg.ibalg, cfg.ibs}
                           : f.kind == CollKind::Reduce
                               ? CollConfig{}
                               : CollConfig{cfg.iralg, cfg.ibs};
  emit_pipeline(g, m, p, cfg, ibcfg, send, recv, c.dtype,
                bcast ? ReduceOp::Sum : c.op);
  return g;
}

// ---------------------------------------------------------------------------
// Reduce-scatter (equal blocks): sr pipeline → inter ring-or-tree → ss.
// The ring path is dependency-driven (all nodes at step 0): slice k's
// strided inter-node ring overlaps slice k+1's intra reduces, exactly the
// seed's issue-without-await structure, which step barriers cannot express.
// ---------------------------------------------------------------------------

GraphShape shape_reduce_scatter(core::HanModule& m, const Front& f,
                                const RankView& v, const Call& c) {
  GraphShape g;
  mpi::SimWorld& w = m.world_ref();
  const Hierarchy& hc = *f.h;
  const HanConfig& cfg = *f.cfg;
  const Datatype dtype = c.dtype;
  const ReduceOp op = c.op;
  const BufRef send = BufRef::of(Arena::Send, c.send);
  const BufRef recv = BufRef::of(Arena::Recv, c.recv);
  const int low_size = hc.low(v.me).size();
  const bool has_intra = low_size > 1;
  const bool has_inter = hc.up(v.me) != nullptr;
  const bool leader = hc.low_rank(v.me) == 0;
  const std::size_t total = send.bytes;
  CollModule* smod = m.intra_module(cfg);
  CollModule* libnbc = &m.modules().libnbc();

  if (!has_inter) {
    if (has_intra) {
      // Single node: reduce to the leader, then scatter the blocks back.
      const BufRef full = g.temp(w.data_mode() && leader, total, dtype);
      const int red = g.add(task(Op::Reduce, Level::Intra, 0, smod, kLow,
                                 kRootless, send, full, dtype, op));
      g.add(task(Op::Scatter, Level::Intra, 1, libnbc, kLow, kRootless, full,
                 recv),
            {red});
    } else {
      g.copy = w.data_mode();
    }
    return g;
  }

  CollModule* imod = m.inter_module(cfg);
  const std::size_t region = recv.bytes * low_size;  // this node's slice
  const Segmenter segs(total, cfg.fs, dtype);
  const int u = segs.count();
  const bool ring = cfg.imod == "ring";

  if (leader) {
    const BufRef partial = g.temp(w.data_mode() && has_intra, total, dtype);
    // Without an intra level the node's region is the caller's block.
    const BufRef region_buf =
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
                // Slice k's reduces start once ring(k-1) is *issued*
                // (i.e. ring(k-2) completed) — they overlap ring(k-1),
                // which is the point of the two-level pipeline.
                sr_last = g.add(
                    task(Op::Reduce, Level::Intra, 0, smod, kLow, kRootless,
                         send.slice(off, s_len), partial.slice(off, s_len),
                         dtype, op),
                    {sr_last, j == 0 ? ring_prev2 : -1});
              }
              ring_prev2 = ring_prev;
              ShapeNode rs = task(Op::ReduceScatter, Level::Inter, 0,
                                  &m.modules().ring(), kUp, kRootless,
                                  partial.slice(s_off, total - s_off),
                                  region_buf.slice(s_off, s_len), dtype, op,
                                  ircfg);
              rs.stride = region;
              ring_prev = g.add(rs, {sr_last, ring_prev});
            });
        inter_last = ring_prev;
      } else {
        // No intra level: one bandwidth-optimal ring reduce-scatter of
        // the whole vector — chunk j of the up comm is exactly node j's
        // region (node-contiguous placement).
        inter_last = g.add(task(Op::ReduceScatter, Level::Inter, 0, imod,
                                kUp, kRootless, send, region_buf, dtype, op,
                                ircfg));
      }
    } else {
      // Tree path: sr ⊕ ir pipeline reducing the whole vector to up-root
      // 0, then one inter scatter of the node regions.
      const CollConfig ircfg{cfg.iralg, cfg.irs};
      const BufRef full_red =
          g.temp(w.data_mode() && hc.up_rank(v.me) == 0, total, dtype);
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
          sr_node[i] = g.add(task(Op::Reduce, Level::Intra, t, smod, kLow,
                                  kRootless, seg_of(send, segs, i),
                                  seg_of(partial, segs, i), dtype, op));
        } else {  // ir(i)
          ir_last = g.add(
              task(Op::Reduce, Level::Inter, t, imod, kUp, kRootless,
                   seg_of(has_intra ? partial : send, segs, i),
                   seg_of(full_red, segs, i), dtype, op, ircfg),
              {has_intra ? sr_node[i] : -1});
        }
      });
      inter_last = g.add(task(Op::Scatter, Level::Inter,
                              shape_steps(chain, u), imod, kUp, kRootless,
                              full_red, region_buf),
                         {ir_last});
    }

    // ss: scatter the node's reduced region into per-rank blocks.
    if (has_intra) {
      g.add(task(Op::Scatter, Level::Intra, g.nodes[inter_last].step + 1,
                 libnbc, kLow, kRootless, region_buf, recv),
            {inter_last});
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
              sr_last = g.add(
                  task(Op::Reduce, Level::Intra, 0, smod, kLow, kRootless,
                       send.slice(j * region + s_off, s_len),
                       BufRef::timing_only(s_len, dtype), dtype, op),
                  {sr_last});
            }
          });
    } else {
      for (int i = 0; i < u; ++i) {
        sr_last = g.add(task(Op::Reduce, Level::Intra, i, smod, kLow,
                             kRootless, seg_of(send, segs, i),
                             BufRef::timing_only(segs.length(i), dtype),
                             dtype, op));
      }
    }
    g.add(task(Op::Scatter, Level::Intra,
               sr_last >= 0 ? g.nodes[sr_last].step + 1 : 0, libnbc, kLow,
               kRootless, BufRef::timing_only(region), recv),
          {sr_last});
  }
  return g;
}

// ---------------------------------------------------------------------------
// Gather / Scatter / Allgather / Barrier (paper §III: "similar designs can
// be extended to other collective operations")
// ---------------------------------------------------------------------------

GraphShape shape_gather(core::HanModule& m, const Front& f, const RankView& v,
                        const Call& c) {
  GraphShape g;
  mpi::SimWorld& w = m.world_ref();
  const Hierarchy& hc = *f.h;
  const BufRef send = BufRef::of(Arena::Send, c.send);
  const BufRef recv = BufRef::of(Arena::Recv, c.recv);
  CollModule* libnbc = &m.modules().libnbc();

  if (hc.up(v.me) == nullptr) {
    g.add(task(Op::Gather, Level::Intra, 0, libnbc, kLow, 0, send, recv));
    return g;
  }

  // sg: node-local gather to this operation's leaders. P2P gather over the
  // shm pipe — Open MPI similarly falls back to a P2P module here.
  const std::size_t node_bytes = send.bytes * hc.low(v.me).size();
  const bool leader = hc.low_rank(v.me) == hc.low_rank(v.root);
  const BufRef node_block =
      leader ? g.temp(w.data_mode(), node_bytes, Datatype::Byte)
             : BufRef::timing_only(node_bytes);
  const int sg = g.add(
      task(Op::Gather, Level::Intra, 0, libnbc, kLow, 0, send, node_block));
  // ig: inter-node gather of node blocks to the root.
  if (leader) {
    g.add(task(Op::Gather, Level::Inter, 1, m.inter_module(*f.cfg), kUp, 0,
               node_block,
               v.me == v.root ? recv : BufRef::timing_only(recv.bytes)),
          {sg});
  }
  return g;
}

GraphShape shape_scatter(core::HanModule& m, const Front& f,
                         const RankView& v, const Call& c) {
  GraphShape g;
  mpi::SimWorld& w = m.world_ref();
  const Hierarchy& hc = *f.h;
  const BufRef send = BufRef::of(Arena::Send, c.send);
  const BufRef recv = BufRef::of(Arena::Recv, c.recv);
  CollModule* libnbc = &m.modules().libnbc();

  if (hc.up(v.me) == nullptr) {
    g.add(task(Op::Scatter, Level::Intra, 0, libnbc, kLow, 0, send, recv));
    return g;
  }

  const std::size_t node_bytes = recv.bytes * hc.low(v.me).size();
  const bool leader = hc.low_rank(v.me) == hc.low_rank(v.root);
  const BufRef node_block =
      leader ? g.temp(w.data_mode(), node_bytes, Datatype::Byte)
             : BufRef::timing_only(node_bytes);
  int is = -1;
  if (leader) {
    is = g.add(task(Op::Scatter, Level::Inter, 0, m.inter_module(*f.cfg), kUp,
                    0, v.me == v.root ? send : BufRef::timing_only(send.bytes),
                    node_block));
  }
  g.add(task(Op::Scatter, Level::Intra, leader ? 1 : 0, libnbc, kLow, 0,
             node_block, recv),
        {is});
  return g;
}

GraphShape shape_allgather(core::HanModule& m, const Front& f,
                           const RankView& v, const Call& c) {
  GraphShape g;
  mpi::SimWorld& w = m.world_ref();
  const Hierarchy& hc = *f.h;
  const BufRef send = BufRef::of(Arena::Send, c.send);
  const BufRef recv = BufRef::of(Arena::Recv, c.recv);
  CollModule* libnbc = &m.modules().libnbc();

  if (hc.up(v.me) == nullptr) {
    g.add(task(Op::Allgather, Level::Intra, 0, libnbc, kLow, kRootless, send,
               recv));
    return g;
  }

  const bool leader = hc.low_rank(v.me) == 0;
  const std::size_t node_bytes = send.bytes * hc.low(v.me).size();
  const BufRef node_block =
      leader ? g.temp(w.data_mode(), node_bytes, Datatype::Byte)
             : BufRef::timing_only(node_bytes);

  // sg: gather node block to the leader.
  const int sg = g.add(task(Op::Gather, Level::Intra, 0, libnbc, kLow,
                            kRootless, send, node_block));
  // iag: inter-node allgather of node blocks (leaders only) straight into
  // the final layout (node-contiguous placement).
  int sb_dep = sg;
  if (leader) {
    sb_dep = g.add(task(Op::Allgather, Level::Inter, 1,
                        m.inter_module(*f.cfg), kUp, kRootless, node_block,
                        recv),
                   {sg});
  }
  // sb: broadcast the assembled buffer within the node.
  g.add(task(Op::Bcast, Level::Intra, leader ? 2 : 1,
             m.intra_module(*f.cfg), kLow, kRootless, {}, recv),
        {sb_dep});
  return g;
}

GraphShape shape_barrier(core::HanModule& m, const Front& f,
                         const RankView& v) {
  GraphShape g;
  const Hierarchy& hc = *f.h;
  const bool has_intra = hc.low(v.me).size() > 1;
  const bool has_inter = hc.up(v.me) != nullptr;
  CollModule* sm = &m.modules().sm();

  // Fan-in: node barrier; leaders: inter barrier; fan-out: node signal.
  int prev = -1;
  if (has_intra) {
    prev = g.add(task(Op::Barrier, Level::Intra, 0, sm, kLow, kRootless, {},
                      {}));
  }
  if (has_inter && hc.low_rank(v.me) == 0) {
    prev = g.add(task(Op::Barrier, Level::Inter, prev >= 0 ? 1 : 0,
                      &m.modules().libnbc(), kUp, kRootless, {}, {}),
                 {prev});
  }
  if (has_intra) {
    g.add(task(Op::Bcast, Level::Intra,
               prev >= 0 ? g.nodes[prev].step + 1 : 0, sm, kLow, kRootless,
               {}, BufRef::timing_only(0)),
          {prev});
  }
  return g;
}

/// resolve_front, resolve_rank, build_shape and bind: one rank's graph.
TaskGraph build(core::HanModule& m, const Call& c, const HanConfig& cfg) {
  const Front f = resolve_front(m, *c.comm, c.kind, cfg);
  std::vector<std::uint8_t> role;
  const RankView v = resolve_rank(f, c.me, c.root, role);
  return bind(build_shape(m, f, v, c), v, c.send, c.recv);
}

}  // namespace

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

Front resolve_front(core::HanModule& m, const mpi::Comm& comm, CollKind kind,
                    const HanConfig& cfg) {
  Front f;
  f.kind = kind;
  f.cfg = &cfg;
  if (!ladder_kind(kind)) {
    // The non-recursive collectives are defined on the flat 2-level ladder.
    f.h = &m.flat_hierarchy(comm);
    return f;
  }
  // A config naming a schedule is synthesizer output or a cached table
  // entry, so a malformed or wrong-kind id is corruption, not a fallback.
  f.has_spec = kind != CollKind::Reduce && !cfg.sched.empty();
  if (f.has_spec) {
    HAN_ASSERT_MSG(synth::SynthSpec::parse(cfg.sched, &f.spec),
                   "cfg.sched is not a valid synthesized-schedule id");
    HAN_ASSERT_MSG(f.spec.kind == kind,
                   "cfg.sched names a schedule for a different collective");
  }
  f.h = !f.has_spec            ? &m.ladder_for(comm, cfg)
        : f.spec.three_level() ? &m.hierarchy(comm)
                               : &m.flat_hierarchy(comm);
  return f;
}

RankView resolve_rank(const Front& f, int me, int root,
                      std::vector<std::uint8_t>& role) {
  const Hierarchy& h = *f.h;
  RankView v;
  v.h = &h;
  v.me = me;
  role.clear();
  if (ladder_kind(f.kind)) {
    // No user root for allreduce: the slot-0 leader chain carries the
    // upper levels.
    v.root = f.kind == CollKind::Allreduce ? 0 : root;
    const std::vector<int>& keep = h.live_levels();
    HAN_ASSERT_MSG(keep.size() <= static_cast<std::size_t>(kMaxTiers),
                   "a ladder has at most three tiers");
    v.tiers = static_cast<int>(keep.size());
    std::copy(keep.begin(), keep.end(), v.level.begin());
    const int k = stripe_count(f, me);
    role.push_back(static_cast<std::uint8_t>(k));
    for (int j = 0; j < k; ++j) {
      for (int l : keep) {
        const auto [member, enabled] =
            ladder_role(h, l, me, j == 0 ? v.root : j);
        role.push_back(static_cast<std::uint8_t>(member | enabled << 1));
      }
    }
    return v;
  }
  v.root = root;
  v.tiers = 2;
  v.level = {0, 1};
  const int low_size = h.low(me).size();
  const bool has_inter = h.up(me) != nullptr;
  const bool rooted =
      f.kind == CollKind::Gather || f.kind == CollKind::Scatter;
  const bool leader = h.low_rank(me) == (rooted ? h.low_rank(root) : 0);
  role.push_back(static_cast<std::uint8_t>(
      (low_size > 1) | has_inter << 1 | leader << 2 |
      (f.kind == CollKind::ReduceScatter && leader && h.up_rank(me) == 0)
          << 3 |
      (rooted && me == root) << 4));
  for (int b = 0; b < 4; ++b) {
    role.push_back(static_cast<std::uint8_t>(low_size >> (8 * b)));
  }
  return v;
}

GraphShape build_shape(core::HanModule& m, const Front& f, const RankView& v,
                       const Call& call) {
  switch (f.kind) {
    case CollKind::Bcast:
    case CollKind::Reduce:
    case CollKind::Allreduce:
      return shape_ladder(m, f, v, call);
    case CollKind::ReduceScatter:
      return shape_reduce_scatter(m, f, v, call);
    case CollKind::Gather:
      return shape_gather(m, f, v, call);
    case CollKind::Scatter:
      return shape_scatter(m, f, v, call);
    case CollKind::Allgather:
      return shape_allgather(m, f, v, call);
    case CollKind::Barrier:
      return shape_barrier(m, f, v);
  }
  HAN_ASSERT_MSG(false, "no shape builder for this collective");
  return {};
}

TaskGraph build_bcast(core::HanModule& m, const mpi::Comm& comm, int me,
                      int root, mpi::BufView buf, Datatype dtype,
                      const HanConfig& cfg) {
  return build(m, {CollKind::Bcast, &comm, me, root, buf, buf, dtype}, cfg);
}

TaskGraph build_reduce(core::HanModule& m, const mpi::Comm& comm, int me,
                       int root, mpi::BufView send, mpi::BufView recv,
                       Datatype dtype, ReduceOp op, const HanConfig& cfg) {
  return build(m, {CollKind::Reduce, &comm, me, root, send, recv, dtype, op},
               cfg);
}

TaskGraph build_allreduce(core::HanModule& m, const mpi::Comm& comm, int me,
                          mpi::BufView send, mpi::BufView recv,
                          Datatype dtype, ReduceOp op, const HanConfig& cfg) {
  return build(m, {CollKind::Allreduce, &comm, me, 0, send, recv, dtype, op},
               cfg);
}

TaskGraph build_reduce_scatter(core::HanModule& m, const mpi::Comm& comm,
                               int me, mpi::BufView send, mpi::BufView recv,
                               Datatype dtype, ReduceOp op,
                               const HanConfig& cfg) {
  return build(
      m, {CollKind::ReduceScatter, &comm, me, 0, send, recv, dtype, op}, cfg);
}

TaskGraph build_gather(core::HanModule& m, const mpi::Comm& comm, int me,
                       int root, mpi::BufView send, mpi::BufView recv,
                       const HanConfig& cfg) {
  return build(m, {CollKind::Gather, &comm, me, root, send, recv}, cfg);
}

TaskGraph build_scatter(core::HanModule& m, const mpi::Comm& comm, int me,
                        int root, mpi::BufView send, mpi::BufView recv,
                        const HanConfig& cfg) {
  return build(m, {CollKind::Scatter, &comm, me, root, send, recv}, cfg);
}

TaskGraph build_allgather(core::HanModule& m, const mpi::Comm& comm, int me,
                          mpi::BufView send, mpi::BufView recv,
                          const HanConfig& cfg) {
  return build(m, {CollKind::Allgather, &comm, me, 0, send, recv}, cfg);
}

TaskGraph build_barrier(core::HanModule& m, const mpi::Comm& comm, int me) {
  return build(m, {CollKind::Barrier, &comm, me}, HanConfig{});
}

}  // namespace han::task
