#include "han/task/builders.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "han/han_util.hpp"
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
using core::TempBuf;
using core::seg_of;
using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;

std::shared_ptr<TempBuf> make_temp(TaskGraph& g, bool data_mode,
                                   std::size_t bytes, Datatype t) {
  auto buf = std::make_shared<TempBuf>(data_mode, bytes, t);
  g.keepalive.push_back(buf);
  return buf;
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

/// Does any family at level l have more than one member (i.e. can data
/// move across this level anywhere in the world)?
bool level_live(const Hierarchy& h, int l) {
  for (int pr = 0; pr < h.parent().size(); ++pr) {
    const mpi::Comm* c = h.comm(l, pr);
    if (c != nullptr && c->size() > 1) return true;
  }
  return false;
}

Ladder make_ladder(const Hierarchy& h, int me, int root) {
  const int d = h.depth();
  // Dead outermost levels collapse away first — exactly HanComm's
  // single-node up-nulling, applied from the top down.
  int top = d - 1;
  while (top > 0 && !level_live(h, top)) --top;
  std::vector<int> keep;
  if (top > 0 || level_live(h, 0)) {
    for (int l = 0; l <= top; ++l) keep.push_back(l);
  }
  // Below the top, a dead level is spliced out while the ladder is deeper
  // than the canonical 2: a deep descriptor on a machine without the
  // matching domains collapses to the flat pipeline instead of pushing
  // lag-chain bubbles (or null-comm tasks) through the schedule. At depth
  // 2 the dead level keeps its disabled lag slot, preserving the seed's
  // exact 2-level shapes.
  while (static_cast<int>(keep.size()) > 2) {
    bool spliced = false;
    for (std::size_t i = 0; i + 1 < keep.size(); ++i) {
      if (!level_live(h, keep[i])) {
        keep.erase(keep.begin() + static_cast<std::ptrdiff_t>(i));
        spliced = true;
        break;
      }
    }
    if (!spliced) break;
  }

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

/// Map a spec's stages onto the ladder's tiers: s* runs on tier 0, m* on
/// the mid tier, i* on the inter tier. A role whose tier the ladder lacks
/// drops out (its dependents fall through to the nearest emitted stage).
std::vector<StageSpec> spec_stages(const synth::SynthSpec& spec,
                                   const Ladder& lad) {
  std::vector<StageSpec> out;
  for (const synth::StageSlot& slot : spec.stages) {
    // kChain ascends s→m→i with the reduces, then descends i→m→s with
    // the bcasts: the position names the op and the rung.
    const int p = synth::chain_pos(slot.role);
    const bool reduce = p < 3;
    const int rung = reduce ? p : 5 - p;  // 0 = s*, 1 = m*, 2 = i*
    int tier = -1;
    if (rung == 0) {
      tier = 0;
    } else {
      const Level want = rung == 1 ? Level::Mid : Level::Inter;
      for (int l = 1; l < lad.de() && tier < 0; ++l) {
        if (lad.level[l] == want) tier = l;
      }
    }
    if (tier < 0) continue;
    out.push_back({synth::kChain[p].data(), reduce ? Op::Reduce : Op::Bcast,
                   lad.level[tier], slot.lag, true, tier});
  }
  return out;
}

/// Resolve cfg's schedule for one rooted ladder operation. sched = ""
/// (and any reduce, which has no spec grammar) runs the hand-written
/// ladder shapes on the ladder cfg selects. A SynthSpec id runs its own
/// stage list: a spec without mid roles pins the paper's flat ladder, a
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
  // shape whose per-rank enables encode every role.
  if (kind == CollKind::Bcast && lad.flat2 && !lad.member[1]) {
    p.stages = bcast_follower_shape();
  } else if (has_spec) {
    p.stages = spec_stages(spec, lad);
  } else {
    const std::vector<bool> all(static_cast<std::size_t>(de), true);
    p.stages = kind == CollKind::Bcast ? bcast_ladder_shape(lad.level, all)
               : kind == CollKind::Reduce
                   ? reduce_ladder_shape(lad.level, all)
                   : allreduce_ladder_shape(lad.level, all);
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
  sim::Engine* eng = &w.engine();
  const int de = p.lads.front().de();
  const CollConfig ircfg{cfg.iralg, cfg.irs};
  const CollConfig mcfg{cfg.malg, cfg.ms};
  const Segmenter segs(send.bytes, cfg.fs, dtype);
  const int u = segs.count();

  // Per-level partials: level l reduces into part[l], which the next level
  // up forwards (han3's leaf_part/node_part, generalized). Only ranks that
  // participate at level l+1 in some stripe hold real data in part[l].
  std::vector<std::shared_ptr<TempBuf>> part(
      static_cast<std::size_t>(de - 1));
  if (std::any_of(p.stages.begin(), p.stages.end(),
                  [](const StageSpec& s) { return s.op == Op::Reduce; })) {
    for (int l = 0; l + 1 < de; ++l) {
      const bool holds =
          std::any_of(p.lads.begin(), p.lads.end(),
                      [l](const Ladder& lad) { return lad.member[l + 1]; });
      part[static_cast<std::size_t>(l)] =
          make_temp(g, w.data_mode() && holds, send.bytes, dtype);
    }
  }
  auto part_seg = [&](int l, int i) {
    return part[static_cast<std::size_t>(l)]->view(segs.offset(i),
                                                    segs.length(i));
  };

  std::vector<std::vector<int>> red(de, std::vector<int>(u, -1));
  std::vector<std::vector<int>> bc(de, std::vector<int>(u, -1));
  for_each_task(p.stages, u, [&](int t, const StageSpec& s, int i) {
    const Ladder& lad = p.lad(i);
    const int l = s.tier;
    if (!lad.enabled[l]) return;
    const mpi::Comm* c = lad.comm[l];
    const int me_l = lad.rank[l], root_l = lad.root[l];
    CollModule* mod = ladder_module(m, lad, l, cfg, send.bytes);
    const bool inter = lad.level[l] == Level::Inter;
    std::vector<int> deps;
    if (s.op == Op::Reduce) {
      const CollConfig lcfg = inter ? ircfg : l == 0 ? CollConfig{} : mcfg;
      BufView src = seg_of(send, segs, i);
      for (int j = l - 1; j >= 0; --j) {
        if (lad.enabled[j]) {
          src = part_seg(j, i);
          break;
        }
      }
      const BufView dst = l == de - 1        ? seg_of(recv, segs, i)
                          : lad.member[l + 1] ? part_seg(l, i)
                              : BufView::timing_only(segs.length(i), dtype);
      for (int j = l - 1; j >= 0 && deps.empty(); --j) {
        if (red[j][i] >= 0) deps.push_back(red[j][i]);
      }
      const int lsf =
          inter ? effective_sf(p.sf, w.profile(), src.bytes, dtype) : 1;
      red[l][i] = g.add({s.op, s.level, c, t, i, src.bytes, std::move(deps),
                         [eng, mod, c, me_l, root_l, src, dst, dtype, op,
                          lcfg, lsf] {
                           return striped_ireduce(*eng, mod, *c, me_l,
                                                  root_l, src, dst, dtype,
                                                  op, lcfg, lsf);
                         }});
    } else {
      const CollConfig lcfg = inter ? ibcfg : l == 0 ? CollConfig{} : mcfg;
      const BufView seg = seg_of(recv, segs, i);
      if (l == de - 1) {
        if (red[l][i] >= 0) deps.push_back(red[l][i]);
      } else {
        for (int j = l + 1; j < de && deps.empty(); ++j) {
          if (bc[j][i] >= 0) deps.push_back(bc[j][i]);
        }
      }
      const int lsf =
          inter ? effective_sf(p.sf, w.profile(), seg.bytes, dtype) : 1;
      bc[l][i] = g.add({s.op, s.level, c, t, i, seg.bytes, std::move(deps),
                        [eng, mod, c, me_l, root_l, seg, dtype, lcfg, lsf] {
                          return striped_ibcast(*eng, mod, *c, me_l, root_l,
                                                seg, dtype, lcfg, lsf);
                        }});
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
      CollModule* mod = ladder_module(m, lad, 0, cfg, buf.bytes);
      const mpi::Comm* low = lad.comm[0];
      const int me_l = lad.rank[0], root_l = lad.root[0];
      g.add({Op::Bcast, lad.level[0], low, 0, -1, buf.bytes, {},
             [mod, low, me_l, root_l, buf, dtype] {
               return mod->ibcast(*low, me_l, root_l, buf, dtype,
                                  CollConfig{});
             }});
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
      CollModule* mod = ladder_module(m, lad, 0, cfg, send.bytes);
      const mpi::Comm* low = lad.comm[0];
      const int me_l = lad.rank[0], root_l = lad.root[0];
      g.add({Op::Reduce, lad.level[0], low, 0, -1, send.bytes, {},
             [mod, low, me_l, root_l, send, recv, dtype, op] {
               return mod->ireduce(*low, me_l, root_l, send, recv, dtype, op,
                                   CollConfig{});
             }});
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
      CollModule* mod = ladder_module(m, lad, 0, cfg, send.bytes);
      const mpi::Comm* low = lad.comm[0];
      const int me_l = lad.rank[0];
      g.add({Op::Reduce, lad.level[0], low, 0, -1, send.bytes, {},
             [mod, low, me_l, send, recv, dtype, op] {
               return mod->iallreduce(*low, me_l, send, recv, dtype, op,
                                      CollConfig{});
             }});
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
      auto full = make_temp(g, w.data_mode() && me_low == 0, total, dtype);
      const BufView fullv = full->view(0, total);
      const int red =
          g.add({Op::Reduce, Level::Intra, low, 0, -1, total, {},
                 [smod, low, me_low, send, fullv, dtype, op] {
                   return smod->ireduce(*low, me_low, /*root=*/0, send,
                                        fullv, dtype, op, CollConfig{});
                 }});
      g.add({Op::Scatter, Level::Intra, low, 1, -1, total, {red},
             [libnbc, low, me_low, fullv, recv] {
               return libnbc->iscatter(*low, me_low, /*root=*/0, fullv, recv,
                                       CollConfig{});
             }});
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
    auto partial = make_temp(g, w.data_mode() && has_intra, total, dtype);
    auto node_region =
        make_temp(g, w.data_mode() && has_intra, region, dtype);
    // Without an intra level the node's region is the caller's block.
    const BufView region_buf =
        has_intra ? node_region->view(0, region) : recv;
    int inter_last = -1;  // node delivering this node's region

    if (ring) {
      const CollConfig ircfg{coll::Algorithm::Ring, cfg.irs};
      if (has_intra) {
        coll::RingModule* rmod = &m.modules().ring();
        const int nodes = hc.node_count();
        int sr_last = -1, ring_prev = -1, ring_prev2 = -1;
        for_each_ring_slice(
            region, cfg.fs, dtype,
            [&](int k, std::size_t s_off, std::size_t s_len) {
              for (int j = 0; j < nodes; ++j) {
                const std::size_t off = j * region + s_off;
                const BufView src = send.slice(off, s_len);
                const BufView dst = partial->view(off, s_len);
                std::vector<int> deps;
                if (sr_last >= 0) deps.push_back(sr_last);
                // Slice k's reduces start once ring(k-1) is *issued*
                // (i.e. ring(k-2) completed) — they overlap ring(k-1),
                // which is the point of the two-level pipeline.
                if (j == 0 && ring_prev2 >= 0) deps.push_back(ring_prev2);
                sr_last = g.add(
                    {Op::Reduce, Level::Intra, low, 0, k, s_len,
                     std::move(deps),
                     [smod, low, me_low, src, dst, dtype, op] {
                       return smod->ireduce(*low, me_low, /*root=*/0, src,
                                            dst, dtype, op, CollConfig{});
                     }});
              }
              const BufView src = partial->view(s_off, total - s_off);
              const BufView dst = node_region->view(s_off, s_len);
              std::vector<int> deps{sr_last};
              if (ring_prev >= 0) deps.push_back(ring_prev);
              ring_prev2 = ring_prev;
              ring_prev = g.add(
                  {Op::ReduceScatter, Level::Inter, up, 0, k, src.bytes,
                   std::move(deps),
                   [rmod, up, me_up, src, dst, region, dtype, op, ircfg] {
                     return rmod->ireduce_scatter_strided(
                         *up, me_up, src, dst, region, dtype, op, ircfg);
                   }});
            });
        inter_last = ring_prev;
      } else {
        // No intra level: one bandwidth-optimal ring reduce-scatter of
        // the whole vector — chunk j of the up comm is exactly node j's
        // region (node-contiguous placement).
        inter_last =
            g.add({Op::ReduceScatter, Level::Inter, up, 0, -1, total, {},
                   [imod, up, me_up, send, region_buf, dtype, op, ircfg] {
                     return imod->ireduce_scatter(*up, me_up, send,
                                                  region_buf, dtype, op,
                                                  ircfg);
                   }});
      }
    } else {
      // Tree path: sr ⊕ ir pipeline reducing the whole vector to up-root
      // 0, then one inter scatter of the node regions.
      const CollConfig ircfg{cfg.iralg, cfg.irs};
      auto full_red = make_temp(g, w.data_mode() && me_up == 0, total, dtype);
      std::vector<int> sr_node(u, -1);
      int ir_last = -1;
      for_each_task(
          reduce_scatter_tree_shape(has_intra), u,
          [&](int t, const StageSpec& s, int i) {
            if (std::string_view(s.role) == "sr") {
              const BufView src = seg_of(send, segs, i);
              const BufView dst =
                  partial->view(segs.offset(i), segs.length(i));
              sr_node[i] =
                  g.add({s.op, s.level, low, t, i, src.bytes, {},
                         [smod, low, me_low, src, dst, dtype, op] {
                           return smod->ireduce(*low, me_low, /*root=*/0,
                                                src, dst, dtype, op,
                                                CollConfig{});
                         }});
            } else {  // ir(i)
              const BufView contrib =
                  has_intra ? partial->view(segs.offset(i), segs.length(i))
                            : seg_of(send, segs, i);
              const BufView dst =
                  full_red->view(segs.offset(i), segs.length(i));
              std::vector<int> deps;
              if (has_intra) deps.push_back(sr_node[i]);
              ir_last = g.add(
                  {s.op, s.level, up, t, i, contrib.bytes, std::move(deps),
                   [imod, up, me_up, contrib, dst, dtype, op, ircfg] {
                     return imod->ireduce(*up, me_up, /*root=*/0, contrib,
                                          dst, dtype, op, ircfg);
                   }});
            }
          });
      const BufView fullv = full_red->view(0, total);
      const int tail = shape_steps(reduce_scatter_tree_shape(has_intra), u);
      inter_last =
          g.add({Op::Scatter, Level::Inter, up, tail, -1, total, {ir_last},
                 [imod, up, me_up, fullv, region_buf] {
                   return imod->iscatter(*up, me_up, /*root=*/0, fullv,
                                         region_buf, CollConfig{});
                 }});
    }

    // ss: scatter the node's reduced region into per-rank blocks.
    if (has_intra) {
      const BufView regionv = node_region->view(0, region);
      const int tail = g.nodes[inter_last].step + 1;
      g.add({Op::Scatter, Level::Intra, low, tail, -1, region, {inter_last},
             [libnbc, low, me_low, regionv, recv] {
               return libnbc->iscatter(*low, me_low, /*root=*/0, regionv,
                                       recv, CollConfig{});
             }});
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
          [&](int k, std::size_t s_off, std::size_t s_len) {
            for (int j = 0; j < nodes; ++j) {
              const std::size_t off = j * region + s_off;
              const BufView src = send.slice(off, s_len);
              const BufView dst = BufView::timing_only(s_len, dtype);
              std::vector<int> deps;
              if (sr_last >= 0) deps.push_back(sr_last);
              sr_last = g.add(
                  {Op::Reduce, Level::Intra, low, 0, k, s_len,
                   std::move(deps),
                   [smod, low, me_low, src, dst, dtype, op] {
                     return smod->ireduce(*low, me_low, /*root=*/0, src, dst,
                                          dtype, op, CollConfig{});
                   }});
            }
          });
    } else {
      for (int i = 0; i < u; ++i) {
        const BufView src = seg_of(send, segs, i);
        const BufView dst = BufView::timing_only(segs.length(i), dtype);
        sr_last = g.add({Op::Reduce, Level::Intra, low, i, i, src.bytes, {},
                         [smod, low, me_low, src, dst, dtype, op] {
                           return smod->ireduce(*low, me_low, /*root=*/0,
                                                src, dst, dtype, op,
                                                CollConfig{});
                         }});
      }
    }
    const BufView regionv = BufView::timing_only(region);
    const int tail = sr_last >= 0 ? g.nodes[sr_last].step + 1 : 0;
    std::vector<int> deps;
    if (sr_last >= 0) deps.push_back(sr_last);
    g.add({Op::Scatter, Level::Intra, low, tail, -1, region,
           std::move(deps), [libnbc, low, me_low, regionv, recv] {
             return libnbc->iscatter(*low, me_low, /*root=*/0, regionv, recv,
                                     CollConfig{});
           }});
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
  const std::size_t block = send.bytes;
  CollModule* libnbc = &m.modules().libnbc();

  if (!has_inter) {
    g.add({Op::Gather, Level::Intra, low, 0, -1, block, {},
           [libnbc, low, me_low, root_low, send, recv] {
             return libnbc->igather(*low, me_low, root_low, send, recv,
                                    CollConfig{});
           }});
    return g;
  }

  CollModule* imod = m.inter_module(cfg);
  // sg: node-local gather to this operation's leaders. P2P gather over the
  // shm pipe — Open MPI similarly falls back to a P2P module here.
  const std::size_t node_bytes = block * low->size();
  auto node_block =
      make_temp(g, w.data_mode(), node_bytes, mpi::Datatype::Byte);
  const bool leader = me_low == root_low;
  const BufView node_dst = leader ? node_block->view(0, node_bytes)
                                  : BufView::timing_only(node_bytes);
  const int sg = g.add({Op::Gather, Level::Intra, low, 0, -1, block, {},
                        [libnbc, low, me_low, root_low, send, node_dst] {
                          return libnbc->igather(*low, me_low, root_low,
                                                 send, node_dst,
                                                 CollConfig{});
                        }});
  // ig: inter-node gather of node blocks to the root.
  if (leader) {
    const mpi::Comm* up = hc.up(me);
    const int me_up = hc.up_rank(me);
    const int root_up = hc.up_rank(root);
    const BufView node_src = node_block->view(0, node_bytes);
    const BufView dst =
        me == root ? recv : BufView::timing_only(recv.bytes);
    g.add({Op::Gather, Level::Inter, up, 1, -1, node_bytes, {sg},
           [imod, up, me_up, root_up, node_src, dst] {
             return imod->igather(*up, me_up, root_up, node_src, dst,
                                  CollConfig{});
           }});
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
  const std::size_t block = recv.bytes;
  CollModule* libnbc = &m.modules().libnbc();

  if (!has_inter) {
    g.add({Op::Scatter, Level::Intra, low, 0, -1, block, {},
           [libnbc, low, me_low, root_low, send, recv] {
             return libnbc->iscatter(*low, me_low, root_low, send, recv,
                                     CollConfig{});
           }});
    return g;
  }

  CollModule* imod = m.inter_module(cfg);
  const std::size_t node_bytes = block * low->size();
  auto node_block =
      make_temp(g, w.data_mode(), node_bytes, mpi::Datatype::Byte);
  const bool leader = me_low == root_low;
  std::vector<int> ss_deps;
  if (leader) {
    const mpi::Comm* up = hc.up(me);
    const int me_up = hc.up_rank(me);
    const int root_up = hc.up_rank(root);
    const BufView src =
        me == root ? send : BufView::timing_only(send.bytes);
    const BufView node_dst = node_block->view(0, node_bytes);
    ss_deps.push_back(
        g.add({Op::Scatter, Level::Inter, up, 0, -1, node_bytes, {},
               [imod, up, me_up, root_up, src, node_dst] {
                 return imod->iscatter(*up, me_up, root_up, src, node_dst,
                                       CollConfig{});
               }}));
  }
  const BufView node_src = leader ? node_block->view(0, node_bytes)
                                  : BufView::timing_only(node_bytes);
  g.add({Op::Scatter, Level::Intra, low, leader ? 1 : 0, -1, block,
         std::move(ss_deps), [libnbc, low, me_low, root_low, node_src, recv] {
           return libnbc->iscatter(*low, me_low, root_low, node_src, recv,
                                   CollConfig{});
         }});
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
  const std::size_t block = send.bytes;
  CollModule* libnbc = &m.modules().libnbc();

  if (!has_inter) {
    g.add({Op::Allgather, Level::Intra, low, 0, -1, block, {},
           [libnbc, low, me_low, send, recv] {
             return libnbc->iallgather(*low, me_low, send, recv,
                                       CollConfig{});
           }});
    return g;
  }

  CollModule* imod = m.inter_module(cfg);
  CollModule* smod = m.intra_module(cfg);
  const bool leader = me_low == 0;
  const std::size_t node_bytes = block * low->size();
  auto node_block =
      make_temp(g, w.data_mode(), node_bytes, mpi::Datatype::Byte);

  // sg: gather node block to the leader.
  const BufView node_dst = leader ? node_block->view(0, node_bytes)
                                  : BufView::timing_only(node_bytes);
  const int sg = g.add({Op::Gather, Level::Intra, low, 0, -1, block, {},
                        [libnbc, low, me_low, send, node_dst] {
                          return libnbc->igather(*low, me_low, /*root=*/0,
                                                 send, node_dst,
                                                 CollConfig{});
                        }});
  // iag: inter-node allgather of node blocks (leaders only) straight into
  // the final layout (node-contiguous placement).
  int sb_dep = sg;
  if (leader) {
    const mpi::Comm* up = hc.up(me);
    const int me_up = hc.up_rank(me);
    const BufView node_src = node_block->view(0, node_bytes);
    sb_dep = g.add({Op::Allgather, Level::Inter, up, 1, -1, node_bytes, {sg},
                    [imod, up, me_up, node_src, recv] {
                      return imod->iallgather(*up, me_up, node_src, recv,
                                              CollConfig{});
                    }});
  }
  // sb: broadcast the assembled buffer within the node.
  g.add({Op::Bcast, Level::Intra, low, leader ? 2 : 1, -1, recv.bytes,
         {sb_dep}, [smod, low, me_low, recv] {
           return smod->ibcast(*low, me_low, /*root=*/0, recv,
                               mpi::Datatype::Byte, CollConfig{});
         }});
  return g;
}

TaskGraph build_barrier(core::HanModule& m, const mpi::Comm& comm, int me) {
  TaskGraph g;
  Hierarchy& hc = m.flat_hierarchy(comm);
  const mpi::Comm* low = &hc.low(me);
  const int me_low = hc.low_rank(me);
  const bool has_intra = low->size() > 1;
  const bool has_inter = hc.up(me) != nullptr;
  coll::SmModule* sm = &m.modules().sm();
  CollModule* libnbc = &m.modules().libnbc();

  // Fan-in: node barrier; leaders: inter barrier; fan-out: node signal.
  int prev = -1;
  if (has_intra) {
    prev = g.add({Op::Barrier, Level::Intra, low, 0, -1, 0, {},
                  [sm, low, me_low] { return sm->ibarrier(*low, me_low); }});
  }
  if (has_inter && me_low == 0) {
    const mpi::Comm* up = hc.up(me);
    const int me_up = hc.up_rank(me);
    std::vector<int> deps;
    if (prev >= 0) deps.push_back(prev);
    prev = g.add({Op::Barrier, Level::Inter, up, prev >= 0 ? 1 : 0, -1, 0,
                  std::move(deps),
                  [libnbc, up, me_up] { return libnbc->ibarrier(*up, me_up); }});
  }
  if (has_intra) {
    const int step = prev >= 0 ? g.nodes[prev].step + 1 : 0;
    std::vector<int> deps;
    if (prev >= 0) deps.push_back(prev);
    g.add({Op::Bcast, Level::Intra, low, step, -1, 0, std::move(deps),
           [sm, low, me_low] {
             return sm->ibcast(*low, me_low, /*root=*/0,
                               BufView::timing_only(0), mpi::Datatype::Byte,
                               CollConfig{});
           }});
  }
  return g;
}

}  // namespace han::task
