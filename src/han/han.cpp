#include "han/han.hpp"

#include <algorithm>

#include "han/synth/spec.hpp"
#include "han/task/builders.hpp"

namespace han::core {

namespace {

using coll::CollConfig;
using coll::CollKind;
using mpi::BufView;
using mpi::Request;

}  // namespace

HanModule::HanModule(mpi::SimWorld& world, coll::CollRuntime& rt,
                     coll::ModuleSet& mods)
    : coll::CollModule(world, rt), mods_(&mods), sched_(rt) {
  // When a communicator dies, its cached ladders must die with it — the
  // context id is recycled, and a later comm reusing it would otherwise
  // inherit this comm's level splits. Freeing the splits re-enters
  // free_comm, which evicts the runtime's per-context state for them too.
  destroy_observer_ = world.add_comm_destroy_observer([this](int context) {
    auto it = comms_.find(context);
    if (it == comms_.end()) return;
    std::vector<std::unique_ptr<Hierarchy>> ladders = std::move(it->second);
    comms_.erase(it);
    for (const std::unique_ptr<Hierarchy>& h : ladders) {
      for (mpi::Comm* sub : h->sub_comms()) this->world().free_comm(sub);
    }
  });
}

HanModule::~HanModule() {
  world().remove_comm_destroy_observer(destroy_observer_);
}

HanConfig HanModule::default_config(CollKind kind, int /*nodes*/, int ppn,
                                    std::size_t bytes) {
  // Static heuristic in the spirit of the paper's §III-C discussion: small
  // operations want low-setup submodules (Libnbc + SM); large ones want
  // pipelining depth, ADAPT's segmentation, and SOLO's single-copy/AVX
  // path. The autotuner replaces this wholesale.
  HanConfig c;
  if (bytes <= (64u << 10)) {
    c.fs = std::max<std::size_t>(bytes, 1);
    c.imod = "libnbc";
    c.smod = "sm";
    c.ibalg = coll::Algorithm::Binomial;
    c.iralg = coll::Algorithm::Binomial;
    return c;
  }
  c.fs = bytes >= (32u << 20) ? (2u << 20) : (512u << 10);
  c.imod = "adapt";
  // Chain keeps the root's injection bandwidth at full rate; with enough
  // segments its fill time amortizes. Binary halves root bandwidth but
  // fills in log(n) — better when the pipeline is short.
  const bool deep_pipeline = bytes / c.fs >= 8;
  c.ibalg = deep_pipeline ? coll::Algorithm::Chain : coll::Algorithm::Binary;
  c.iralg = c.ibalg;
  c.ibs = 64 << 10;
  c.irs = 64 << 10;
  const bool reduces = kind == CollKind::Allreduce ||
                       kind == CollKind::Reduce ||
                       kind == CollKind::ReduceScatter;
  c.smod = (c.fs >= (512u << 10) && (reduces || ppn >= 8)) ? "solo" : "sm";
  if (kind == CollKind::ReduceScatter && bytes >= (64u << 10)) {
    // Large reduce-scatter: the bandwidth-optimal inter-node ring (each
    // leader moves ~m bytes total vs ~2m for reduce-to-root + scatter).
    // Measured crossover vs the trees is ~1-2KB on aries-class machines;
    // 64KB keeps a latency-safety margin for flatter topologies.
    c.imod = "ring";
    c.ibalg = coll::Algorithm::Ring;
    c.iralg = coll::Algorithm::Ring;
    c.ibs = 0;
    c.irs = 0;
  }
  return c;
}

HanConfig HanModule::decide(CollKind kind, const mpi::Comm& comm,
                            std::size_t bytes) {
  Hierarchy& hc = hierarchy(comm);
  HanConfig cfg =
      decider_ ? decider_(kind, hc.node_count(), hc.max_ppn(), bytes)
               : default_config(kind, hc.node_count(), hc.max_ppn(), bytes);
  obs::MetricsRegistry& m = world().metrics();
  obs::Counter*& per_kind = decide_kind_[static_cast<int>(kind)];
  if (per_kind == nullptr) {
    per_kind =
        &m.counter(std::string("han.decide.") + coll::coll_kind_name(kind));
  }
  per_kind->add(1.0);
  if (decide_bytes_ == nullptr) decide_bytes_ = &m.counter("han.decide.bytes");
  decide_bytes_->add(static_cast<double>(bytes));
  named_counter(cfg_imod_, "han.cfg.imod.", cfg.imod).add(1.0);
  named_counter(cfg_smod_, "han.cfg.smod.", cfg.smod).add(1.0);
  return cfg;
}

obs::Counter& HanModule::named_counter(NamedCounters& cache,
                                       std::string_view prefix,
                                       const std::string& name) {
  auto it = cache.find(name);
  if (it == cache.end()) {
    obs::Counter& c = world().metrics().counter(std::string(prefix) + name);
    it = cache.emplace(name, &c).first;
  }
  return *it->second;
}

Hierarchy& HanModule::hierarchy(const mpi::Comm& comm,
                                const TopologyDescriptor& topo) {
  std::vector<std::unique_ptr<Hierarchy>>& ladders = comms_[comm.context()];
  for (const std::unique_ptr<Hierarchy>& h : ladders) {
    if (h->topo() == topo) return *h;
  }
  ladders.push_back(std::make_unique<Hierarchy>(world(), comm, topo));
  Hierarchy& h = *ladders.back();
  // Label the new sub-communicators so runtime accounting separates the
  // hierarchy levels (coll.level.intra.* / coll.level.mid.* /
  // coll.level.inter.*).
  const int top = h.depth() - 1;
  for (int l = 0; l <= top; ++l) {
    const char* label = l == 0 ? "intra" : l == top ? "inter" : "mid";
    for (int pr = 0; pr < comm.size(); ++pr) {
      if (h.comm(l, pr) != nullptr) {
        rt().set_level_label(h.comm(l, pr)->context(), label);
      }
    }
  }
  return h;
}

Hierarchy& HanModule::hierarchy(const mpi::Comm& comm) {
  return hierarchy(comm, TopologyDescriptor::from_profile(world().profile()));
}

Hierarchy& HanModule::flat_hierarchy(const mpi::Comm& comm) {
  return hierarchy(comm, TopologyDescriptor::flat());
}

Hierarchy& HanModule::ladder_for(const mpi::Comm& comm,
                                 const HanConfig& cfg) {
  return cfg.lvl == 2 ? flat_hierarchy(comm) : hierarchy(comm);
}

coll::CollModule* HanModule::inter_module(const HanConfig& cfg) {
  coll::CollModule* m = mods_->find(cfg.imod);
  HAN_ASSERT_MSG(m != nullptr && m->nonblocking_capable(),
                 "imod must be a nonblocking-capable module");
  return m;
}

coll::CollModule* HanModule::intra_module(const HanConfig& cfg) {
  coll::CollModule* m = mods_->find(cfg.smod);
  HAN_ASSERT_MSG(m != nullptr && m->intra_node_only(),
                 "smod must be an intra-node module");
  return m;
}

namespace {

/// HAN's two-level data layout requires node-contiguous rank placement on
/// the parent communicator (true for the world communicator; Open MPI HAN
/// likewise disables itself otherwise).
bool node_contiguous(const Hierarchy& hc) {
  const mpi::Comm& parent = hc.parent();
  for (int pr = 1; pr < parent.size(); ++pr) {
    // Parent ranks on the same node must be consecutive.
    const bool same_low =
        &hc.low(pr) == &hc.low(pr - 1);
    if (same_low && hc.low_rank(pr) != hc.low_rank(pr - 1) + 1) return false;
    if (!same_low && hc.low_rank(pr) != 0) return false;
  }
  return true;
}

}  // namespace

// Every collective below builds its per-rank TaskGraph declaratively
// (task/builders.cpp) and hands it to the TaskScheduler; cfg.window = 1
// reproduces the paper's lock-step wait-all pipelines.

mpi::Request HanModule::ibcast_cfg(const mpi::Comm& comm, int me, int root,
                                   BufView buf, mpi::Datatype dtype,
                                   const HanConfig& cfg) {
  return sched_.run(task::build_bcast(*this, comm, me, root, buf, dtype, cfg),
                    cfg.window, comm.world_rank(me));
}

mpi::Request HanModule::ibcast(const mpi::Comm& comm, int me, int root,
                               BufView buf, mpi::Datatype dtype,
                               const CollConfig& /*cfg*/) {
  return ibcast_cfg(comm, me, root, buf, dtype,
                    decide(CollKind::Bcast, comm, buf.bytes));
}

mpi::Request HanModule::ireduce_cfg(const mpi::Comm& comm, int me, int root,
                                    BufView send, BufView recv,
                                    mpi::Datatype dtype, mpi::ReduceOp op,
                                    const HanConfig& cfg) {
  return sched_.run(
      task::build_reduce(*this, comm, me, root, send, recv, dtype, op, cfg),
      cfg.window, comm.world_rank(me));
}

mpi::Request HanModule::ireduce(const mpi::Comm& comm, int me, int root,
                                BufView send, BufView recv,
                                mpi::Datatype dtype, mpi::ReduceOp op,
                                const CollConfig& /*cfg*/) {
  return ireduce_cfg(comm, me, root, send, recv, dtype, op,
                     decide(CollKind::Reduce, comm, send.bytes));
}

mpi::Request HanModule::iallreduce_cfg(const mpi::Comm& comm, int me,
                                       BufView send, BufView recv,
                                       mpi::Datatype dtype, mpi::ReduceOp op,
                                       const HanConfig& cfg) {
  return sched_.run(
      task::build_allreduce(*this, comm, me, send, recv, dtype, op, cfg),
      cfg.window, comm.world_rank(me));
}

mpi::Request HanModule::iallreduce(const mpi::Comm& comm, int me,
                                   BufView send, BufView recv,
                                   mpi::Datatype dtype, mpi::ReduceOp op,
                                   const CollConfig& /*cfg*/) {
  return iallreduce_cfg(comm, me, send, recv, dtype, op,
                        decide(CollKind::Allreduce, comm, send.bytes));
}

mpi::Request HanModule::iallreduce_multileader(const mpi::Comm& comm, int me,
                                               BufView send, BufView recv,
                                               mpi::Datatype dtype,
                                               mpi::ReduceOp op,
                                               const HanConfig& cfg,
                                               int leaders) {
  Hierarchy& hc = flat_hierarchy(comm);
  const int k = std::min({leaders, hc.low(me).size(),
                          synth::SynthSpec::kMaxLeaders});
  if (hc.up(me) == nullptr || k <= 1) {
    // Degenerate shapes reuse the single-leader pipeline.
    return iallreduce_cfg(comm, me, send, recv, dtype, op, cfg);
  }
  // The multi-leader pipeline is the paper's schedule striped over k
  // leaders: the canonical spec with k > 1.
  synth::SynthSpec spec = synth::SynthSpec::canonical(CollKind::Allreduce);
  spec.leaders = k;
  HanConfig striped = cfg;
  striped.sched = spec.id();
  return iallreduce_cfg(comm, me, send, recv, dtype, op, striped);
}

mpi::Request HanModule::igather(const mpi::Comm& comm, int me, int root,
                                BufView send, BufView recv,
                                const CollConfig& /*cfg*/) {
  HAN_ASSERT_MSG(node_contiguous(flat_hierarchy(comm)),
                 "HAN gather requires node-contiguous rank placement");
  const HanConfig cfg = decide(CollKind::Gather, comm, send.bytes);
  return sched_.run(
      task::build_gather(*this, comm, me, root, send, recv, cfg), cfg.window,
      comm.world_rank(me));
}

mpi::Request HanModule::iscatter(const mpi::Comm& comm, int me, int root,
                                 BufView send, BufView recv,
                                 const CollConfig& /*cfg*/) {
  HAN_ASSERT_MSG(node_contiguous(flat_hierarchy(comm)),
                 "HAN scatter requires node-contiguous rank placement");
  const HanConfig cfg = decide(CollKind::Scatter, comm, recv.bytes);
  return sched_.run(
      task::build_scatter(*this, comm, me, root, send, recv, cfg), cfg.window,
      comm.world_rank(me));
}

mpi::Request HanModule::iallgather(const mpi::Comm& comm, int me,
                                   BufView send, BufView recv,
                                   const CollConfig& /*cfg*/) {
  HAN_ASSERT_MSG(node_contiguous(flat_hierarchy(comm)),
                 "HAN allgather requires node-contiguous rank placement");
  const HanConfig cfg = decide(CollKind::Allgather, comm, send.bytes);
  return sched_.run(task::build_allgather(*this, comm, me, send, recv, cfg),
                    cfg.window, comm.world_rank(me));
}

mpi::Request HanModule::ireduce_scatter_cfg(const mpi::Comm& comm, int me,
                                            BufView send, BufView recv,
                                            mpi::Datatype dtype,
                                            mpi::ReduceOp op,
                                            const HanConfig& cfg) {
  Hierarchy& hc = flat_hierarchy(comm);
  HAN_ASSERT_MSG(node_contiguous(hc),
                 "HAN reduce_scatter requires node-contiguous rank placement");
  HAN_ASSERT_MSG(
      send.bytes == recv.bytes * static_cast<std::size_t>(comm.size()),
      "reduce_scatter: send must be comm_size equal blocks of recv.bytes");
  HAN_ASSERT_MSG(hc.node_count() * hc.max_ppn() == comm.size(),
                 "HAN reduce_scatter requires a uniform ppn");
  return sched_.run(
      task::build_reduce_scatter(*this, comm, me, send, recv, dtype, op, cfg),
      cfg.window, comm.world_rank(me));
}

mpi::Request HanModule::ireduce_scatter(const mpi::Comm& comm, int me,
                                        BufView send, BufView recv,
                                        mpi::Datatype dtype, mpi::ReduceOp op,
                                        const CollConfig& /*cfg*/) {
  return ireduce_scatter_cfg(comm, me, send, recv, dtype, op,
                             decide(CollKind::ReduceScatter, comm,
                                    send.bytes));
}

mpi::Request HanModule::ibarrier(const mpi::Comm& comm, int me) {
  return sched_.run(task::build_barrier(*this, comm, me), /*window=*/1,
                    comm.world_rank(me));
}

}  // namespace han::core
