#include "han/han.hpp"

#include <algorithm>
#include <compare>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "han/synth/spec.hpp"
#include "han/task/builders.hpp"

namespace han::core {

namespace {

using coll::CollConfig;
using coll::CollKind;
using mpi::BufView;
using mpi::Request;

/// The barrier's config: it is never decided, and runs at window 1.
const HanConfig kBarrierConfig{};

/// The kinds defined on the flat 2-level ladder only.
bool flat_only(CollKind kind) {
  return kind == CollKind::Gather || kind == CollKind::Scatter ||
         kind == CollKind::Allgather;
}

/// The message size decide() keys a call on: the scattered block for
/// scatter, the send buffer otherwise.
std::size_t decide_bytes(const task::Call& c) {
  return c.kind == CollKind::Scatter ? c.recv.bytes : c.send.bytes;
}

struct DecideKey {
  int context;
  CollKind kind;
  std::size_t bytes;
  friend auto operator<=>(const DecideKey&, const DecideKey&) = default;
};

/// Everything a call's shapes depend on besides its config and the rank's
/// role.
struct CallKey {
  int context;
  CollKind kind;
  std::size_t send_bytes, recv_bytes;
  mpi::Datatype send_type, recv_type, dtype;
  mpi::ReduceOp op;
  friend auto operator<=>(const CallKey&, const CallKey&) = default;
};

/// A shape set's key. `cfg` is a decided config, which outlives every set
/// built under it (the barrier's is static; a decider change or a comm's
/// destruction drops decisions and sets together), or `own`, a copy of an
/// explicit config. A lookup copies none of the config's strings, and a
/// decided call's hit meets its own config and compares no fields.
struct ShapeKey {
  CallKey call;
  const HanConfig* cfg;
  std::unique_ptr<const HanConfig> own;
  friend bool operator<(const ShapeKey& a, const ShapeKey& b) {
    if (const auto c = a.call <=> b.call; c != 0) return c < 0;
    return a.cfg != b.cfg && *a.cfg < *b.cfg;
  }
};

}  // namespace

struct HanModule::Decided {
  HanConfig cfg;
  obs::Counter* imod = nullptr;
  obs::Counter* smod = nullptr;
};

struct HanModule::Persistent {
  /// One key's front and its shapes, one per rank role seen this busy
  /// period (a handful: leaders, followers, the root's family).
  struct ShapeSet {
    task::Front front;
    std::vector<std::pair<std::vector<std::uint8_t>,
                          std::shared_ptr<const task::GraphShape>>>
        shapes;
  };

  std::map<DecideKey, Decided> decided;
  // Node-based: a set's front points at its key's config.
  std::map<ShapeKey, ShapeSet> sets;
  std::vector<std::uint8_t> role;  // resolve_rank's output, reused
  std::uint64_t built = 0;

  /// Forget everything keyed on `context` (a destroyed comm's id is
  /// recycled; its sets point into its ladders).
  void drop_context(int context) {
    std::erase_if(sets, [&](const auto& e) {
      return e.first.call.context == context;
    });
    std::erase_if(decided, [&](const auto& e) {
      return e.first.context == context;
    });
  }
};

HanModule::HanModule(mpi::SimWorld& world, coll::CollRuntime& rt,
                     coll::ModuleSet& mods)
    : coll::CollModule(world, rt),
      mods_(&mods),
      sched_(rt),
      topo_(TopologyDescriptor::from_profile(world.profile())),
      persistent_(std::make_unique<Persistent>()) {
  // When a communicator dies, its cached ladders must die with it — the
  // context id is recycled, and a later comm reusing it would otherwise
  // inherit this comm's level splits (and its decisions and shapes).
  // Freeing the splits re-enters free_comm, which evicts the runtime's
  // per-context state for them too.
  destroy_observer_ = world.add_comm_destroy_observer([this](int context) {
    persistent_->drop_context(context);
    auto it = comms_.find(context);
    if (it == comms_.end()) return;
    std::vector<std::unique_ptr<Hierarchy>> ladders = std::move(it->second);
    comms_.erase(it);
    for (const std::unique_ptr<Hierarchy>& h : ladders) {
      for (mpi::Comm* sub : h->sub_comms()) this->world().free_comm(sub);
    }
  });
  // Shapes follow one busy period, like the runtime's plan templates.
  quiescence_observer_ =
      rt.add_quiescence_observer([this] { persistent_->sets.clear(); });
}

HanModule::~HanModule() {
  rt().remove_quiescence_observer(quiescence_observer_);
  world().remove_comm_destroy_observer(destroy_observer_);
}

void HanModule::set_decider(Decider decider) {
  decider_ = std::move(decider);
  persistent_->sets.clear();
  persistent_->decided.clear();
}

std::size_t HanModule::live_shapes() const {
  std::size_t n = 0;
  for (const auto& [key, set] : persistent_->sets) n += set.shapes.size();
  return n;
}

std::uint64_t HanModule::shapes_built() const { return persistent_->built; }

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
  return decided(kind, comm, bytes);
}

const HanConfig& HanModule::decided(CollKind kind, const mpi::Comm& comm,
                                    std::size_t bytes) {
  auto [it, first] =
      persistent_->decided.try_emplace(DecideKey{comm.context(), kind, bytes});
  Decided& d = it->second;
  if (first) {
    // The flat-only kinds make their ladder before the derived one, so
    // communicator context ids follow the order of first calls alone.
    if (flat_only(kind)) flat_hierarchy(comm);
    Hierarchy& hc = hierarchy(comm);
    d.cfg = decider_
                ? decider_(kind, hc.node_count(), hc.max_ppn(), bytes)
                : default_config(kind, hc.node_count(), hc.max_ppn(), bytes);
    obs::MetricsRegistry& m = world().metrics();
    obs::Counter*& per_kind = decide_kind_[static_cast<int>(kind)];
    if (per_kind == nullptr) {
      per_kind =
          &m.counter(std::string("han.decide.") + coll::coll_kind_name(kind));
    }
    if (decide_bytes_ == nullptr) {
      decide_bytes_ = &m.counter("han.decide.bytes");
    }
    d.imod = &named_counter(cfg_imod_, "han.cfg.imod.", d.cfg.imod);
    d.smod = &named_counter(cfg_smod_, "han.cfg.smod.", d.cfg.smod);
  }
  decide_kind_[static_cast<int>(kind)]->add(1.0);
  decide_bytes_->add(static_cast<double>(bytes));
  d.imod->add(1.0);
  d.smod->add(1.0);
  return d.cfg;
}

const HanConfig& HanModule::decided(const task::Call& c) {
  return c.kind == CollKind::Barrier
             ? kBarrierConfig
             : decided(c.kind, *c.comm, decide_bytes(c));
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
  return hierarchy(comm, topo_);
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

/// The placement and size preconditions of a call, checked on every call.
/// HAN's two-level data layout of the non-recursive collectives needs
/// node-contiguous rank placement (Open MPI HAN likewise disables itself
/// otherwise).
void check_call(const task::Front& f, const task::Call& c) {
  if (!flat_only(c.kind) && c.kind != CollKind::ReduceScatter) return;
  HAN_ASSERT_MSG(f.h->node_contiguous(),
                 "HAN gather/scatter/allgather/reduce_scatter require "
                 "node-contiguous rank placement");
  if (c.kind != CollKind::ReduceScatter) return;
  HAN_ASSERT_MSG(
      c.send.bytes == c.recv.bytes * static_cast<std::size_t>(c.comm->size()),
      "reduce_scatter: send must be comm_size equal blocks of recv.bytes");
  HAN_ASSERT_MSG(f.h->node_count() * f.h->max_ppn() == c.comm->size(),
                 "HAN reduce_scatter requires a uniform ppn");
}

}  // namespace

// Every collective below runs its rank's TaskGraph shape (task/builders.cpp)
// on the TaskScheduler; cfg.window = 1 reproduces the paper's lock-step
// wait-all pipelines.

HanModule::Binding HanModule::shape_for(const task::Call& c,
                                        const HanConfig& cfg, bool decision) {
  Persistent& p = *persistent_;
  const CallKey call{c.comm->context(), c.kind,      c.send.bytes,
                     c.recv.bytes,      c.send.dtype, c.recv.dtype,
                     c.dtype,           c.op};
  ShapeKey key{call, &cfg, nullptr};
  auto it = p.sets.find(key);
  if (it == p.sets.end()) {
    if (!decision) {
      key.own = std::make_unique<const HanConfig>(cfg);
      key.cfg = key.own.get();
    }
    it = p.sets.emplace(std::move(key), Persistent::ShapeSet{}).first;
    it->second.front =
        task::resolve_front(*this, *c.comm, c.kind, *it->first.cfg);
  }
  Persistent::ShapeSet& set = it->second;
  check_call(set.front, c);
  Binding b;
  b.view = task::resolve_rank(set.front, c.me, c.root, p.role);
  for (const auto& [role, shape] : set.shapes) {
    if (role == p.role) {
      b.shape = shape;
      return b;
    }
  }
  b.shape = task::TaskScheduler::compile(
      task::build_shape(*this, set.front, b.view, c), b.view);
  set.shapes.emplace_back(p.role, b.shape);
  ++p.built;
  return b;
}

mpi::Request HanModule::run(const task::Call& c, const HanConfig& cfg,
                            bool decision) {
  Binding b = shape_for(c, cfg, decision);
  return sched_.run(std::move(b.shape), b.view, c.send, c.recv, cfg.window,
                    c.comm->world_rank(c.me));
}

task::TaskGraph HanModule::persistent_graph(const task::Call& call,
                                            const HanConfig& cfg) {
  const Binding b = shape_for(call, cfg, /*decision=*/false);
  return task::bind(*b.shape, b.view, call.send, call.recv);
}

task::TaskGraph HanModule::persistent_graph(const task::Call& call) {
  const Binding b = shape_for(call, decided(call), /*decision=*/true);
  return task::bind(*b.shape, b.view, call.send, call.recv);
}

mpi::Request HanModule::ibcast_cfg(const mpi::Comm& comm, int me, int root,
                                   BufView buf, mpi::Datatype dtype,
                                   const HanConfig& cfg) {
  const task::Call c{CollKind::Bcast, &comm, me, root, buf, buf, dtype};
  return run(c, cfg, /*decision=*/false);
}

mpi::Request HanModule::ibcast(const mpi::Comm& comm, int me, int root,
                               BufView buf, mpi::Datatype dtype,
                               const CollConfig& /*cfg*/) {
  const task::Call c{CollKind::Bcast, &comm, me, root, buf, buf, dtype};
  return run(c, decided(c), /*decision=*/true);
}

mpi::Request HanModule::ireduce_cfg(const mpi::Comm& comm, int me, int root,
                                    BufView send, BufView recv,
                                    mpi::Datatype dtype, mpi::ReduceOp op,
                                    const HanConfig& cfg) {
  const task::Call c{CollKind::Reduce, &comm, me, root, send, recv, dtype, op};
  return run(c, cfg, /*decision=*/false);
}

mpi::Request HanModule::ireduce(const mpi::Comm& comm, int me, int root,
                                BufView send, BufView recv,
                                mpi::Datatype dtype, mpi::ReduceOp op,
                                const CollConfig& /*cfg*/) {
  const task::Call c{CollKind::Reduce, &comm, me, root, send, recv, dtype, op};
  return run(c, decided(c), /*decision=*/true);
}

mpi::Request HanModule::iallreduce_cfg(const mpi::Comm& comm, int me,
                                       BufView send, BufView recv,
                                       mpi::Datatype dtype, mpi::ReduceOp op,
                                       const HanConfig& cfg) {
  const task::Call c{CollKind::Allreduce, &comm, me, 0, send, recv, dtype, op};
  return run(c, cfg, /*decision=*/false);
}

mpi::Request HanModule::iallreduce(const mpi::Comm& comm, int me,
                                   BufView send, BufView recv,
                                   mpi::Datatype dtype, mpi::ReduceOp op,
                                   const CollConfig& /*cfg*/) {
  const task::Call c{CollKind::Allreduce, &comm, me, 0, send, recv, dtype, op};
  return run(c, decided(c), /*decision=*/true);
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
  const task::Call c{CollKind::Gather, &comm, me, root, send, recv};
  return run(c, decided(c), /*decision=*/true);
}

mpi::Request HanModule::iscatter(const mpi::Comm& comm, int me, int root,
                                 BufView send, BufView recv,
                                 const CollConfig& /*cfg*/) {
  const task::Call c{CollKind::Scatter, &comm, me, root, send, recv};
  return run(c, decided(c), /*decision=*/true);
}

mpi::Request HanModule::iallgather(const mpi::Comm& comm, int me,
                                   BufView send, BufView recv,
                                   const CollConfig& /*cfg*/) {
  const task::Call c{CollKind::Allgather, &comm, me, 0, send, recv};
  return run(c, decided(c), /*decision=*/true);
}

mpi::Request HanModule::ireduce_scatter_cfg(const mpi::Comm& comm, int me,
                                            BufView send, BufView recv,
                                            mpi::Datatype dtype,
                                            mpi::ReduceOp op,
                                            const HanConfig& cfg) {
  const task::Call c{CollKind::ReduceScatter, &comm, me, 0, send, recv, dtype,
                     op};
  return run(c, cfg, /*decision=*/false);
}

mpi::Request HanModule::ireduce_scatter(const mpi::Comm& comm, int me,
                                        BufView send, BufView recv,
                                        mpi::Datatype dtype, mpi::ReduceOp op,
                                        const CollConfig& /*cfg*/) {
  const task::Call c{CollKind::ReduceScatter, &comm, me, 0, send, recv, dtype,
                     op};
  return run(c, decided(c), /*decision=*/true);
}

mpi::Request HanModule::ibarrier(const mpi::Comm& comm, int me) {
  const task::Call c{CollKind::Barrier, &comm, me};
  return run(c, decided(c), /*decision=*/true);
}

}  // namespace han::core
