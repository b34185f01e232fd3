#include "coll/runtime.hpp"

#include <cstring>

#include "coll/validate.hpp"

namespace han::coll {

namespace {
// Per-plan action tags live below this; the instance sequence number is
// shifted above it. User P2P tags on the same communicator should stay
// below 2^20 to avoid colliding with collective traffic.
constexpr int kTagBits = 20;

constexpr const char* kKindNames[] = {"send",    "recv", "copy",
                                      "reduce",  "compute", "noop",
                                      "cross_copy", "cross_reduce"};
constexpr int kNumKinds = 8;
}  // namespace

CollRuntime::CollRuntime(mpi::SimWorld& world) : world_(&world) {
  obs::MetricsRegistry& m = world_->metrics();
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string kind = kKindNames[k];
    kinds_[k].actions = &m.counter("coll.actions." + kind);
    kinds_[k].bytes = &m.counter("coll.bytes." + kind);
    kinds_[k].busy = &m.counter("coll.busy_seconds." + kind);
  }
  inflight_ = &m.gauge("coll.inflight");
  action_seconds_ = &m.histogram(
      "coll.action_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
  destroy_observer_ = world_->add_comm_destroy_observer(
      [this](int context) { evict_context(context); });
}

CollRuntime::~CollRuntime() {
  world_->remove_comm_destroy_observer(destroy_observer_);
}

void CollRuntime::evict_context(int context) {
  HAN_ASSERT_MSG(
      instances_.lower_bound(std::make_pair(context, std::uint64_t{0})) ==
              instances_.end() ||
          instances_.lower_bound(std::make_pair(context, std::uint64_t{0}))
                  ->first.first != context,
      "communicator freed with live collective instances");
  call_seq_.erase(context);
  level_of_.erase(context);
}

CollRuntime::LevelStats& CollRuntime::make_level(const std::string& label) {
  auto it = levels_.find(label);
  if (it == levels_.end()) {
    obs::MetricsRegistry& m = world_->metrics();
    const std::string base = "coll.level." + label;
    LevelStats ls;
    ls.actions = &m.counter(base + ".actions");
    ls.bytes = &m.counter(base + ".bytes");
    ls.busy = &m.counter(base + ".busy_seconds");
    ls.inflight = &m.gauge(base + ".inflight");
    it = levels_.emplace(label, ls).first;
  }
  return it->second;
}

CollRuntime::LevelStats* CollRuntime::level_stats(int context) {
  auto it = level_of_.find(context);
  if (it != level_of_.end()) return it->second;
  LevelStats* flat = &make_level("flat");
  level_of_.emplace(context, flat);
  return flat;
}

void CollRuntime::set_level_label(int context, const std::string& label) {
  level_of_[context] = &make_level(label);
}

mpi::Request CollRuntime::start(const mpi::Comm& comm, int comm_rank,
                                PlanBuilder builder, const BuildSpec& spec,
                                std::vector<mpi::BufView> user_bufs) {
  auto& seqs = call_seq_[comm.context()];
  if (seqs.empty()) seqs.resize(comm.size(), 0);
  const std::uint64_t seq = seqs.at(comm_rank)++;

  InstancePtr inst = get_or_create(comm, seq, builder, spec);
  mpi::Request req = mpi::make_request(world_->engine());
  arrive(inst, comm_rank, std::move(user_bufs), req);
  return req;
}

CollRuntime::TemplatePtr CollRuntime::build_template(
    PlanBuilder builder, int n, const BuildSpec& spec) const {
  auto t = std::make_shared<Template>();
  t->plan = build_plan(builder, n, spec);
  const std::string defect = validate_plan(t->plan, n);
  HAN_ASSERT_MSG(defect.empty(), defect.c_str());
  if (plan_checker_) {
    const std::string verdict = plan_checker_(t->plan, n);
    HAN_ASSERT_MSG(verdict.empty(), verdict.c_str());
  }

  // Wire dependency counters and reverse edges (indices are in range:
  // validate_plan checked them).
  t->base.assign(n + 1, 0);
  for (int r = 0; r < n; ++r) {
    t->base[r + 1] =
        t->base[r] + static_cast<int>(t->plan.ranks[r].actions.size());
  }
  t->deps_left.assign(t->base[n], 0);
  t->dependents.resize(t->base[n]);
  for (int r = 0; r < n; ++r) {
    const auto& actions = t->plan.ranks[r].actions;
    for (int a = 0; a < static_cast<int>(actions.size()); ++a) {
      for (const DepRef& d : actions[a].deps) {
        const int dr = d.rank == DepRef::kSameRank ? r : d.rank;
        t->dependents[t->node(dr, d.action)].push_back(
            DepRef{r, a, d.latency});
        ++t->deps_left[t->node(r, a)];
      }
    }
  }
  return t;
}

CollRuntime::TemplatePtr CollRuntime::plan_template(PlanBuilder builder,
                                                    int n,
                                                    const BuildSpec& spec) {
  // A checker must see every instance's plan: build fresh, cache nothing.
  if (plan_checker_) return build_template(builder, n, spec);
  TemplateKey key{builder, n, spec};
  auto it = templates_.lower_bound(key);
  if (it != templates_.end() && it->first == key) return it->second;
  TemplatePtr t = build_template(builder, n, spec);
  templates_.emplace_hint(it, std::move(key), t);
  return t;
}

CollRuntime::InstancePtr CollRuntime::get_or_create(const mpi::Comm& comm,
                                                    std::uint64_t seq,
                                                    PlanBuilder builder,
                                                    const BuildSpec& spec) {
  const auto key = std::make_pair(comm.context(), seq);
  auto it = instances_.lower_bound(key);
  if (it != instances_.end() && it->first == key) return it->second;

  const int n = comm.size();
  auto inst = std::make_shared<Instance>();
  inst->comm = &comm;
  inst->seq = seq;
  inst->tmpl = plan_template(builder, n, spec);
  const Template& t = *inst->tmpl;
  inst->ranks.resize(n);
  for (int r = 0; r < n; ++r) {
    inst->ranks[r].actions_left = t.base[r + 1] - t.base[r];
  }
  inst->deps_left = t.deps_left;
  inst->launched.assign(t.deps_left.size(), 0);
  inst->total_actions_left = t.base[n];
  inst->ranks_not_arrived = n;
  instances_.emplace_hint(it, key, inst);
  return inst;
}

void CollRuntime::arrive(const InstancePtr& inst, int rank,
                         std::vector<mpi::BufView> user_bufs,
                         mpi::Request req) {
  RankState& rs = inst->ranks.at(rank);
  HAN_ASSERT_MSG(!rs.arrived, "rank started the same collective twice");
  rs.arrived = true;
  --inst->ranks_not_arrived;
  HAN_ASSERT_MSG(static_cast<int>(user_bufs.size()) >=
                     inst->plan().num_user_slots,
                 "missing user buffers for plan slots");
  rs.user_bufs = std::move(user_bufs);
  rs.req = std::move(req);

  // Allocate temp slot storage in data mode.
  const auto& temp_sizes = inst->plan().ranks[rank].temp_slots;
  if (world_->data_mode()) {
    rs.temps.resize(temp_sizes.size());
    for (std::size_t i = 0; i < temp_sizes.size(); ++i) {
      rs.temps[i].resize(temp_sizes[i]);
    }
  }

  if (rs.actions_left == 0) {
    rs.req->complete();
    maybe_retire(inst);
    return;
  }
  const int count = inst->tmpl->base[rank + 1] - inst->tmpl->base[rank];
  for (int a = 0; a < count; ++a) try_launch(inst, rank, a);
}

void CollRuntime::try_launch(const InstancePtr& inst, int rank, int action) {
  const int node = inst->tmpl->node(rank, action);
  if (!inst->ranks[rank].arrived || inst->launched[node] != 0 ||
      inst->deps_left[node] != 0) {
    return;
  }
  inst->launched[node] = 1;
  const Action& a = inst->plan().ranks[rank].actions[action];
  if (a.pre_delay > 0.0) {
    world_->engine().schedule_after(
        a.pre_delay, [this, inst, rank, action] { execute(inst, rank, action); });
  } else {
    execute(inst, rank, action);
  }
}

mpi::BufView CollRuntime::slot_view(Instance& inst, int rank, SlotRef ref,
                                    std::size_t bytes) const {
  RankState& rs = inst.ranks[rank];
  HAN_ASSERT_MSG(rs.arrived,
                 "slot access before rank arrival (missing cross-rank dep?)");
  if (ref.slot < inst.plan().num_user_slots) {
    const mpi::BufView& user = rs.user_bufs[ref.slot];
    if (user.has_data()) {
      HAN_ASSERT_MSG(ref.offset + bytes <= user.bytes,
                     "plan slot access out of user buffer bounds");
    }
    return user.slice(ref.offset, bytes);
  }
  const std::size_t t = static_cast<std::size_t>(ref.slot) -
                        static_cast<std::size_t>(inst.plan().num_user_slots);
  HAN_ASSERT(t < inst.plan().ranks[rank].temp_slots.size());
  if (!world_->data_mode()) {
    mpi::BufView v = mpi::BufView::timing_only(bytes);
    return v;
  }
  auto& storage = rs.temps[t];
  HAN_ASSERT(ref.offset + bytes <= storage.size());
  return mpi::BufView{storage.data() + ref.offset, bytes, mpi::Datatype::Byte};
}

void CollRuntime::execute(const InstancePtr& inst, int rank, int action) {
  const Action& a = inst->plan().ranks[rank].actions[action];
  const mpi::Comm& comm = *inst->comm;
  const mpi::Tag tag =
      static_cast<mpi::Tag>((inst->seq << kTagBits) |
                            static_cast<std::uint64_t>(a.tag));
  HAN_ASSERT_MSG(a.tag >= 0 && a.tag < (1 << kTagBits),
                 "plan action tag out of range");
  const int kind = static_cast<int>(a.kind);
  const sim::Time t0 = world_->now();
  const double abytes = static_cast<double>(a.bytes);
  LevelStats* level = level_stats(comm.context());
  kinds_[kind].actions->add(1.0);
  kinds_[kind].bytes->add(abytes);
  level->actions->add(1.0);
  level->bytes->add(abytes);
  inflight_->add(t0, 1.0);
  level->inflight->add(t0, 1.0);
  std::function<void()> done = [this, inst, rank, action, kind, t0,
                                level] {
    const sim::Time now = world_->now();
    const sim::Time dt = now - t0;
    kinds_[kind].busy->add(dt);
    level->busy->add(dt);
    inflight_->add(now, -1.0);
    level->inflight->add(now, -1.0);
    action_seconds_->observe(dt);
    if (tracer_ != nullptr) {
      const int wr = inst->comm->world_rank(rank);
      const std::string name =
          std::string(kKindNames[kind]) + " " +
          sim::format_bytes(
              inst->plan().ranks[rank].actions[action].bytes);
      tracer_->span(wr, "coll", name, t0, now, world_->rank(wr).node);
    }
    complete_action(inst, rank, action);
  };

  switch (a.kind) {
    case Action::Kind::Send: {
      mpi::BufView src = slot_view(*inst, rank, a.src, a.bytes);
      mpi::Request r = world_->isend_ctx(comm, comm.context(), rank, a.peer,
                                         tag, src, inst->plan().rail);
      r->on_complete(done);
      break;
    }
    case Action::Kind::Recv: {
      mpi::BufView dst = slot_view(*inst, rank, a.dst, a.bytes);
      mpi::Request r = world_->irecv_ctx(comm, comm.context(), rank, a.peer,
                                         tag, dst);
      r->on_complete(done);
      break;
    }
    case Action::Kind::Copy: {
      const int wr = comm.world_rank(rank);
      // bus_factor scales bytes and cap together: duration stays
      // bytes/cap while the memory bus is charged the discounted traffic
      // (L3-served shared-memory reads).
      const double cap = (a.copy_cap > 0.0
                              ? a.copy_cap
                              : world_->profile().core_copy_bandwidth) *
                         a.bus_factor;
      mpi::Request r = world_->copy_flow(
          wr, static_cast<std::size_t>(
                  static_cast<double>(a.bytes) * a.bus_factor),
          cap);
      r->on_complete([this, inst, rank, action, done] {
        const Action& act = inst->plan().ranks[rank].actions[action];
        if (world_->data_mode()) {
          mpi::BufView src = slot_view(*inst, rank, act.src, act.bytes);
          mpi::BufView dst = slot_view(*inst, rank, act.dst, act.bytes);
          if (src.has_data() && dst.has_data() &&
              dst.data != src.data) {  // in-place copies are no-ops
            std::memcpy(dst.data, src.data, act.bytes);
          }
        }
        done();
      });
      break;
    }
    case Action::Kind::Reduce: {
      const int wr = comm.world_rank(rank);
      mpi::Request r = world_->reduce_compute(wr, a.bytes, a.avx);
      r->on_complete([this, inst, rank, action, done] {
        const Action& act = inst->plan().ranks[rank].actions[action];
        if (world_->data_mode()) {
          mpi::BufView src = slot_view(*inst, rank, act.src, act.bytes);
          mpi::BufView dst = slot_view(*inst, rank, act.dst, act.bytes);
          if (src.has_data() && dst.has_data()) {
            // Byte counts are element-aligned by the builder's contract.
            const std::size_t count = act.bytes / type_size(act.dtype);
            mpi::apply_reduce(act.op, act.dtype, dst.data, src.data, count);
          }
        }
        done();
      });
      break;
    }
    case Action::Kind::Compute: {
      const int wr = comm.world_rank(rank);
      mpi::Request r = world_->compute(wr, a.seconds);
      r->on_complete(done);
      break;
    }
    case Action::Kind::CrossCopy: {
      const int wr = comm.world_rank(rank);
      const int peer_wr = comm.world_rank(a.peer);
      HAN_ASSERT_MSG(world_->rank(wr).node == world_->rank(peer_wr).node,
                     "CrossCopy peers must share a node");
      // Reading the peer's window crosses the inter-socket link when the
      // two ranks sit in different NUMA domains (cache discount does not
      // apply there: remote reads always touch the link).
      const bool cross_numa =
          world_->rank(wr).numa != world_->rank(peer_wr).numa;
      const double factor = cross_numa ? 1.0 : a.bus_factor;
      const double cap = (a.copy_cap > 0.0
                              ? a.copy_cap
                              : world_->profile().core_copy_bandwidth) *
                         factor;
      mpi::Request r = world_->copy_flow_pair(
          wr, peer_wr,
          static_cast<std::size_t>(static_cast<double>(a.bytes) * factor),
          cap);
      r->on_complete([this, inst, rank, action, done] {
        const Action& act = inst->plan().ranks[rank].actions[action];
        if (world_->data_mode()) {
          mpi::BufView src = slot_view(*inst, act.peer, act.src, act.bytes);
          mpi::BufView dst = slot_view(*inst, rank, act.dst, act.bytes);
          if (src.has_data() && dst.has_data() &&
              dst.data != src.data) {  // in-place copies are no-ops
            std::memcpy(dst.data, src.data, act.bytes);
          }
        }
        done();
      });
      break;
    }
    case Action::Kind::CrossReduce: {
      const int wr = comm.world_rank(rank);
      HAN_ASSERT_MSG(world_->rank(wr).node ==
                         world_->rank(comm.world_rank(a.peer)).node,
                     "CrossReduce peers must share a node");
      mpi::Request r = world_->reduce_compute(wr, a.bytes, a.avx);
      r->on_complete([this, inst, rank, action, done] {
        const Action& act = inst->plan().ranks[rank].actions[action];
        if (world_->data_mode()) {
          mpi::BufView src = slot_view(*inst, act.peer, act.src, act.bytes);
          mpi::BufView dst = slot_view(*inst, rank, act.dst, act.bytes);
          if (src.has_data() && dst.has_data()) {
            const std::size_t count = act.bytes / type_size(act.dtype);
            mpi::apply_reduce(act.op, act.dtype, dst.data, src.data, count);
          }
        }
        done();
      });
      break;
    }
    case Action::Kind::Noop: {
      world_->engine().schedule_after(0.0, done);
      break;
    }
  }
}

void CollRuntime::complete_action(const InstancePtr& inst, int rank,
                                  int action) {
  RankState& rs = inst->ranks[rank];
  --rs.actions_left;
  --inst->total_actions_left;
  const Template& t = *inst->tmpl;
  for (const DepRef& d : t.dependents[t.node(rank, action)]) {
    // d.rank/d.action name the *dependent* here (reverse edge).
    auto unblock = [this, inst, r = d.rank, a = d.action] {
      if (--inst->deps_left[inst->tmpl->node(r, a)] == 0) {
        try_launch(inst, r, a);
      }
    };
    if (d.latency > 0.0) {
      world_->engine().schedule_after(d.latency, unblock);
    } else {
      unblock();
    }
  }
  if (rs.actions_left == 0) {
    rs.req->complete();
    maybe_retire(inst);
  }
}

void CollRuntime::maybe_retire(const InstancePtr& inst) {
  if (inst->total_actions_left == 0 && inst->ranks_not_arrived == 0) {
    instances_.erase(std::make_pair(inst->comm->context(), inst->seq));
    // Quiescent: nothing can replay a template until the next start().
    if (instances_.empty()) templates_.clear();
  }
}

}  // namespace han::coll
