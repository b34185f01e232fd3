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
// deps_left of a launched node: nonzero, so it never launches twice, and
// never decremented again (all its dependencies have completed).
constexpr int kLaunched = -1;
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
  const std::uint64_t seq = next_seq(comm, comm_rank);
  Instance* inst = find_instance(comm, seq);
  if (inst == nullptr) {
    inst = &create_instance(comm, seq,
                            plan_template(builder, comm.size(), spec));
  }
  return arrive(*inst, comm_rank, std::move(user_bufs));
}

mpi::Request CollRuntime::start_plan(const mpi::Comm& comm, int comm_rank,
                                     const Plan& plan,
                                     std::vector<mpi::BufView> user_bufs) {
  const std::uint64_t seq = next_seq(comm, comm_rank);
  Instance* inst = find_instance(comm, seq);
  if (inst == nullptr) {
    inst = &create_instance(comm, seq, wire_template(plan, comm.size()));
  }
  return arrive(*inst, comm_rank, std::move(user_bufs));
}

std::uint64_t CollRuntime::next_seq(const mpi::Comm& comm, int comm_rank) {
  auto& seqs = call_seq_[comm.context()];
  if (seqs.empty()) seqs.resize(comm.size(), 0);
  return seqs.at(comm_rank)++;
}

CollRuntime::TemplatePtr CollRuntime::wire_template(Plan plan, int n) const {
  auto t = std::make_shared<Template>();
  t->plan = std::move(plan);
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
  // Two passes over the edges: count each node's dependents, then fill
  // the flat array in edge order (the order dependents are unblocked in).
  const int total = t->base[n];
  t->deps_left.assign(total, 0);
  t->dependents_begin.assign(total + 1, 0);
  std::vector<int> fill;  // pass 1: next free dependents slot per node
  for (int pass = 0; pass < 2; ++pass) {
    for (int r = 0; r < n; ++r) {
      const auto& actions = t->plan.ranks[r].actions;
      for (int a = 0; a < static_cast<int>(actions.size()); ++a) {
        for (const DepRef& d : actions[a].deps) {
          const int from =
              t->node(d.rank == DepRef::kSameRank ? r : d.rank, d.action);
          if (pass == 0) {
            ++t->dependents_begin[from + 1];
            ++t->deps_left[t->node(r, a)];
          } else {
            t->dependents[fill[from]++] = DepRef{r, a, d.latency};
          }
        }
      }
    }
    if (pass == 0) {
      for (int i = 0; i < total; ++i) {
        t->dependents_begin[i + 1] += t->dependents_begin[i];
      }
      t->dependents.resize(t->dependents_begin[total]);
      fill.assign(t->dependents_begin.begin(), t->dependents_begin.end() - 1);
    }
  }
  return t;
}

CollRuntime::TemplatePtr CollRuntime::plan_template(PlanBuilder builder,
                                                    int n,
                                                    const BuildSpec& spec) {
  // A checker must see every instance's plan: build fresh, cache nothing.
  if (plan_checker_) return wire_template(build_plan(builder, n, spec), n);
  TemplateKey key{builder, n, spec};
  auto it = templates_.lower_bound(key);
  if (it != templates_.end() && it->first == key) return it->second;
  TemplatePtr t = wire_template(build_plan(builder, n, spec), n);
  templates_.emplace_hint(it, std::move(key), t);
  return t;
}

CollRuntime::Instance* CollRuntime::find_instance(const mpi::Comm& comm,
                                                  std::uint64_t seq) {
  auto it = instances_.find(std::make_pair(comm.context(), seq));
  return it == instances_.end() ? nullptr : &instance_pool_[it->second];
}

CollRuntime::Instance& CollRuntime::create_instance(const mpi::Comm& comm,
                                                    std::uint64_t seq,
                                                    TemplatePtr tmpl) {
  const std::uint32_t slot = instance_pool_.acquire();
  Instance& inst = instance_pool_[slot];
  const int n = comm.size();
  inst.comm = &comm;
  inst.seq = seq;
  inst.tmpl = std::move(tmpl);
  inst.level = nullptr;
  const Template& t = *inst.tmpl;
  inst.ranks.resize(n);
  for (int r = 0; r < n; ++r) {
    inst.ranks[r].arrived = false;
    inst.ranks[r].actions_left = t.base[r + 1] - t.base[r];
  }
  inst.deps_left.assign(t.deps_left.begin(), t.deps_left.end());
  inst.total_actions_left = t.base[n];
  inst.ranks_not_arrived = n;
  instances_.emplace(std::make_pair(comm.context(), seq), slot);
  return inst;
}

mpi::Request CollRuntime::arrive(Instance& inst, int rank,
                                 std::vector<mpi::BufView> user_bufs) {
  RankState& rs = inst.ranks.at(rank);
  HAN_ASSERT_MSG(!rs.arrived, "rank started the same collective twice");
  rs.arrived = true;
  --inst.ranks_not_arrived;
  HAN_ASSERT_MSG(static_cast<int>(user_bufs.size()) >=
                     inst.plan().num_user_slots,
                 "missing user buffers for plan slots");
  rs.user_bufs = std::move(user_bufs);
  rs.req = mpi::make_request(world_->engine());
  mpi::Request req = rs.req;

  // Allocate temp slot storage in data mode.
  const auto& temp_sizes = inst.plan().ranks[rank].temp_slots;
  if (world_->data_mode()) {
    rs.temps.resize(temp_sizes.size());
    for (std::size_t i = 0; i < temp_sizes.size(); ++i) {
      rs.temps[i].resize(temp_sizes[i]);
    }
  }

  if (rs.actions_left == 0) {
    rs.req->complete();
    maybe_retire(inst);
    return req;
  }
  const int count = inst.tmpl->base[rank + 1] - inst.tmpl->base[rank];
  for (int a = 0; a < count; ++a) try_launch(inst, rank, a);
  return req;
}

void CollRuntime::try_launch(Instance& inst, int rank, int action) {
  const int node = inst.tmpl->node(rank, action);
  if (!inst.ranks[rank].arrived || inst.deps_left[node] != 0) return;
  inst.deps_left[node] = kLaunched;
  const Action& a = inst.plan().ranks[rank].actions[action];
  if (a.pre_delay > 0.0) {
    world_->engine().schedule_after(
        a.pre_delay,
        [this, in = &inst, rank, action] { execute(*in, rank, action); });
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

void CollRuntime::execute(Instance& inst, int rank, int action) {
  const Action& a = inst.plan().ranks[rank].actions[action];
  const mpi::Comm& comm = *inst.comm;
  const mpi::Tag tag =
      static_cast<mpi::Tag>((inst.seq << kTagBits) |
                            static_cast<std::uint64_t>(a.tag));
  HAN_ASSERT_MSG(a.tag >= 0 && a.tag < (1 << kTagBits),
                 "plan action tag out of range");
  const int kind = static_cast<int>(a.kind);
  const sim::Time t0 = world_->now();
  const double abytes = static_cast<double>(a.bytes);
  if (inst.level == nullptr) inst.level = level_stats(comm.context());
  LevelStats* level = inst.level;
  kinds_[kind].actions->add(1.0);
  kinds_[kind].bytes->add(abytes);
  level->actions->add(1.0);
  level->bytes->add(abytes);
  inflight_->add(t0, 1.0);
  level->inflight->add(t0, 1.0);
  auto done = [this, in = &inst, rank, action, t0] {
    finish_action(*in, rank, action, t0);
  };

  mpi::Request r;
  switch (a.kind) {
    case Action::Kind::Send:
      r = world_->isend_ctx(comm, comm.context(), rank, a.peer, tag,
                            slot_view(inst, rank, a.src, a.bytes),
                            inst.plan().rail);
      break;
    case Action::Kind::Recv:
      r = world_->irecv_ctx(comm, comm.context(), rank, a.peer, tag,
                            slot_view(inst, rank, a.dst, a.bytes));
      break;
    case Action::Kind::Copy: {
      // bus_factor scales bytes and cap together: duration stays
      // bytes/cap while the memory bus is charged the discounted traffic
      // (L3-served shared-memory reads).
      const double cap = (a.copy_cap > 0.0
                              ? a.copy_cap
                              : world_->profile().core_copy_bandwidth) *
                         a.bus_factor;
      r = world_->copy_flow(
          comm.world_rank(rank),
          static_cast<std::size_t>(static_cast<double>(a.bytes) *
                                   a.bus_factor),
          cap);
      break;
    }
    case Action::Kind::Reduce:
      r = world_->reduce_compute(comm.world_rank(rank), a.bytes, a.avx);
      break;
    case Action::Kind::Compute:
      r = world_->compute(comm.world_rank(rank), a.seconds);
      break;
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
      r = world_->copy_flow_pair(
          wr, peer_wr,
          static_cast<std::size_t>(static_cast<double>(a.bytes) * factor),
          cap);
      break;
    }
    case Action::Kind::CrossReduce: {
      const int wr = comm.world_rank(rank);
      HAN_ASSERT_MSG(world_->rank(wr).node ==
                         world_->rank(comm.world_rank(a.peer)).node,
                     "CrossReduce peers must share a node");
      r = world_->reduce_compute(wr, a.bytes, a.avx);
      break;
    }
    case Action::Kind::Noop:
      world_->engine().schedule_after(0.0, done);
      return;
  }
  r->on_complete(done);
}

void CollRuntime::finish_action(Instance& inst, int rank, int action,
                                sim::Time t0) {
  const Action& a = inst.plan().ranks[rank].actions[action];
  using Kind = Action::Kind;
  const bool copy = a.kind == Kind::Copy || a.kind == Kind::CrossCopy;
  const bool reduce = a.kind == Kind::Reduce || a.kind == Kind::CrossReduce;
  if (world_->data_mode() && (copy || reduce)) {
    // Cross* actions read the peer's slot.
    const bool cross = a.kind == Kind::CrossCopy || a.kind == Kind::CrossReduce;
    const mpi::BufView src =
        slot_view(inst, cross ? a.peer : rank, a.src, a.bytes);
    const mpi::BufView dst = slot_view(inst, rank, a.dst, a.bytes);
    if (src.has_data() && dst.has_data()) {
      if (reduce) {
        // Byte counts are element-aligned by the builder's contract.
        const std::size_t count = a.bytes / type_size(a.dtype);
        mpi::apply_reduce(a.op, a.dtype, dst.data, src.data, count);
      } else if (dst.data != src.data) {  // in-place copies are no-ops
        std::memcpy(dst.data, src.data, a.bytes);
      }
    }
  }

  const int kind = static_cast<int>(a.kind);
  LevelStats* level = inst.level;
  const sim::Time now = world_->now();
  const sim::Time dt = now - t0;
  kinds_[kind].busy->add(dt);
  level->busy->add(dt);
  inflight_->add(now, -1.0);
  level->inflight->add(now, -1.0);
  action_seconds_->observe(dt);
  if (tracer_ != nullptr) {
    const int wr = inst.comm->world_rank(rank);
    const std::string name =
        std::string(kKindNames[kind]) + " " + sim::format_bytes(a.bytes);
    tracer_->span(wr, "coll", name, t0, now, world_->rank(wr).node);
  }
  complete_action(inst, rank, action);
}

void CollRuntime::complete_action(Instance& inst, int rank, int action) {
  RankState& rs = inst.ranks[rank];
  --rs.actions_left;
  --inst.total_actions_left;
  const Template& t = *inst.tmpl;
  const int node = t.node(rank, action);
  for (int i = t.dependents_begin[node]; i < t.dependents_begin[node + 1];
       ++i) {
    // d.rank/d.action name the *dependent* here (reverse edge).
    const DepRef& d = t.dependents[i];
    auto unblock = [this, in = &inst, r = d.rank, a = d.action] {
      if (--in->deps_left[in->tmpl->node(r, a)] == 0) {
        try_launch(*in, r, a);
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

void CollRuntime::maybe_retire(Instance& inst) {
  if (inst.total_actions_left != 0 || inst.ranks_not_arrived != 0) return;
  auto it = instances_.find(std::make_pair(inst.comm->context(), inst.seq));
  HAN_ASSERT(it != instances_.end());
  // Nothing refers to the instance any more: every action has completed.
  // Keep its arrays for the next collective, drop what it holds (data-mode
  // temp storage included: it is sized per plan, not per instance).
  inst.tmpl.reset();
  for (RankState& rs : inst.ranks) {
    rs.user_bufs.clear();
    rs.temps.clear();
    rs.req.reset();
  }
  instance_pool_.release(it->second);
  instances_.erase(it);
  // Quiescent: nothing can replay a template or reuse an instance until
  // the next start(), so memory follows one busy period.
  if (instances_.empty()) {
    templates_.clear();
    instance_pool_.trim();
    for (const auto& [token, fn] : quiescence_observers_) fn();
  }
}

int CollRuntime::add_quiescence_observer(std::function<void()> fn) {
  const int token = next_observer_token_++;
  quiescence_observers_.emplace_back(token, std::move(fn));
  return token;
}

void CollRuntime::remove_quiescence_observer(int token) {
  std::erase_if(quiescence_observers_,
                [token](const auto& entry) { return entry.first == token; });
}

}  // namespace han::coll
