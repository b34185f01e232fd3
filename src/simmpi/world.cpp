#include "simmpi/world.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace han::mpi {

namespace {
// Fraction of a shared-memory copy's duration charged to the progression
// CPU (fragment management interleaved with protocol work).
constexpr double kCopyCpuShare = 0.25;
}  // namespace

Request SyncDomain::arrive() {
  if (!round_) round_ = make_request(*engine_);
  Request r = round_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    round_.reset();
    r->complete();
  }
  return r;
}

std::vector<double> time_rounds(
    SimWorld& world, int rounds,
    const std::function<Request(int rank, int round)>& issue) {
  // run() returns only once every program has, so the programs may hold
  // plain references to these locals.
  SyncDomain sync(world.engine(), world.world_size());
  std::vector<double> worst(static_cast<std::size_t>(rounds), 0.0);
  world.run([&](Rank& rank) -> sim::CoTask {
    return [](SimWorld& w, SyncDomain& sync2, std::vector<double>& worst2,
              const std::function<Request(int, int)>& issue2,
              int me) -> sim::CoTask {
      for (std::size_t r = 0; r < worst2.size(); ++r) {
        co_await *sync2.arrive();
        const double t0 = w.now();
        Request req = issue2(me, static_cast<int>(r));
        co_await *req;
        worst2[r] = std::max(worst2[r], w.now() - t0);
      }
    }(world, sync, worst, issue, rank.world_rank);
  });
  return worst;
}

SimWorld::SimWorld(machine::MachineProfile profile, Options options)
    : profile_(std::move(profile)),
      options_(options),
      p2p_(options.p2p_override != nullptr ? *options.p2p_override
                                           : profile_.ompi_p2p),
      flownet_(engine_),
      fabric_(flownet_, profile_) {
  const int total = profile_.total_procs();
  ranks_.resize(total);
  matching_.resize(total);
  const int per_numa =
      profile_.procs_per_node / std::max(1, profile_.numa_per_node);
  for (int r = 0; r < total; ++r) {
    ranks_[r].world_rank = r;
    ranks_[r].node = r / profile_.procs_per_node;
    ranks_[r].local_rank = r % profile_.procs_per_node;
    ranks_[r].numa = ranks_[r].local_rank / std::max(1, per_numa);
  }
  std::vector<int> all(total);
  for (int r = 0; r < total; ++r) all[r] = r;
  comms_.push_back(std::make_unique<Comm>(next_context_++, std::move(all)));
  world_comm_ = comms_.back().get();
  world_sync_ = std::make_unique<SyncDomain>(engine_, total);
  jitter_rng_.reseed(options.jitter_seed);
  net_tx_lane_.resize(static_cast<std::size_t>(total) *
                      profile_.nics_per_node);
  copy_lane_.resize(total);
  rail_rr_.resize(total, 0);
  flownet_.set_metrics(&metrics_);
  fabric_.register_observability(flownet_, profile_, metrics_);
  msg_counter_ = &metrics_.counter("mpi.messages");
  msg_bytes_counter_ = &metrics_.counter("mpi.p2p_bytes");
}

std::vector<Comm*> SimWorld::comm_split(const Comm& parent,
                                        std::span<const int> color,
                                        std::span<const int> key) {
  HAN_ASSERT(static_cast<int>(color.size()) == parent.size());
  HAN_ASSERT(static_cast<int>(key.size()) == parent.size());

  // Group parent ranks by color; order members by (key, parent rank) as
  // MPI_Comm_split specifies. std::map keeps color iteration deterministic.
  std::map<int, std::vector<int>> groups;  // color -> parent ranks
  for (int pr = 0; pr < parent.size(); ++pr) {
    if (color[pr] >= 0) groups[color[pr]].push_back(pr);
  }

  std::vector<Comm*> result(parent.size(), nullptr);
  for (auto& [c, members] : groups) {
    std::stable_sort(members.begin(), members.end(),
                     [&](int a, int b) { return key[a] < key[b]; });
    std::vector<int> world_ranks;
    world_ranks.reserve(members.size());
    for (int pr : members) world_ranks.push_back(parent.world_rank(pr));
    comms_.push_back(
        std::make_unique<Comm>(next_context(), std::move(world_ranks)));
    for (int pr : members) result[pr] = comms_.back().get();
  }
  return result;
}

void SimWorld::free_comm(Comm* comm) {
  HAN_ASSERT_MSG(comm != nullptr && comm != world_comm_,
                 "cannot free the world communicator");
  auto it = std::find_if(comms_.begin(), comms_.end(),
                         [&](const std::unique_ptr<Comm>& c) {
                           return c.get() == comm;
                         });
  HAN_ASSERT_MSG(it != comms_.end(),
                 "free_comm of an unknown (or already freed) communicator");
  const int ctx = comm->context();
  // Notify while the id still names the dying comm; observers may free
  // derived communicators re-entrantly (e.g. HanComm's low/up splits).
  for (const auto& [token, fn] : destroy_observers_) fn(ctx);
  it = std::find_if(comms_.begin(), comms_.end(),
                    [&](const std::unique_ptr<Comm>& c) {
                      return c.get() == comm;
                    });
  HAN_ASSERT(it != comms_.end());
  comms_.erase(it);
  free_contexts_.push_back(ctx);
}

int SimWorld::add_comm_destroy_observer(std::function<void(int)> fn) {
  const int token = next_observer_token_++;
  destroy_observers_.emplace_back(token, std::move(fn));
  return token;
}

void SimWorld::remove_comm_destroy_observer(int token) {
  for (auto it = destroy_observers_.begin(); it != destroy_observers_.end();
       ++it) {
    if (it->first == token) {
      destroy_observers_.erase(it);
      return;
    }
  }
}

std::vector<Comm*> SimWorld::comm_split_shared(const Comm& parent) {
  std::vector<int> color(parent.size());
  std::vector<int> key(parent.size());
  for (int pr = 0; pr < parent.size(); ++pr) {
    color[pr] = ranks_[parent.world_rank(pr)].node;
    key[pr] = pr;
  }
  return comm_split(parent, color, key);
}

sim::Time SimWorld::path_latency(int src_world, int dst_world) const {
  if (src_world == dst_world) return 0.0;
  if (!same_node(src_world, dst_world)) return profile_.net_latency;
  sim::Time lat = profile_.shm_latency;
  if (ranks_[src_world].numa != ranks_[dst_world].numa) {
    lat += profile_.inter_numa_latency;
  }
  return lat;
}

int SimWorld::resolve_rail(int src_world, int dst_world, int rail) {
  const int rails = profile_.nics_per_node;
  if (rails == 1 || src_world == dst_world || same_node(src_world, dst_world)) {
    return 0;
  }
  if (rail >= 0) return rail % rails;
  if (profile_.rail_policy == machine::RailPolicy::RoundRobin) {
    return static_cast<int>(rail_rr_[src_world]++ % rails);
  }
  return ranks_[src_world].local_rank % rails;  // LeaderAffine
}

void SimWorld::release_msg(std::uint32_t m) {
  Msg& msg = msgs_[m];
  msg.payload = {};  // data mode: free it, a record may next carry 8 bytes
  msg.send_req.reset();
  msg.recv_req.reset();
  msg.recv_buf = BufView{};
  msgs_.release(m);
}

void SimWorld::start_data_flow(std::uint32_t m) {
  Msg& msg = msgs_[m];
  const int src_world = msg.src_world;
  const int dst_world = msg.dst_world;
  msg.flow_bytes = static_cast<double>(msg.bytes);

  if (src_world == dst_world) {
    msg.route = fabric_.intra_path(ranks_[src_world].node,
                                   ranks_[src_world].numa);
    msg.cap = profile_.core_copy_bandwidth;
    msg.lane = &copy_lane_[src_world];
  } else if (same_node(src_world, dst_world)) {
    // Shared-memory pipe: copy-in + copy-out through a hot (mostly
    // L3-resident) staging buffer. Pair bandwidth tops out at about half
    // the core copy rate; DRAM traffic is the fraction that misses cache.
    // Cross-NUMA pipes additionally cross the inter-socket link (and are
    // never cache-resident: full bus charge).
    msg.route = fabric_.pair_path(ranks_[src_world].node,
                                  ranks_[src_world].numa,
                                  ranks_[dst_world].numa);
    const bool cross = ranks_[src_world].numa != ranks_[dst_world].numa;
    msg.flow_bytes *= cross ? 2.0 : 1.2;
    msg.cap = (cross ? 0.5 : 0.6) * profile_.core_copy_bandwidth;
    msg.lane = &copy_lane_[src_world];
  } else {
    msg.route = fabric_.inter_path(ranks_[src_world].node,
                                   ranks_[dst_world].node, msg.rail);
    // Streams of queued messages run at the peak protocol efficiency; the
    // size-dependent dip of Fig. 11 is charged as a per-message stall in
    // the rendezvous handshake (see start_rendezvous), where back-to-back
    // segments can overlap it.
    msg.cap = profile_.nic_bandwidth *
              p2p_.net_efficiency.at(std::max<std::size_t>(msg.bytes,
                                                           64u << 20));
    msg.lane = &net_tx_lane_[static_cast<std::size_t>(src_world) *
                                 profile_.nics_per_node +
                             msg.rail];
  }

  // Wire latency runs concurrently; the transfer itself is FIFO-serialized
  // per sender (NIC injection order / the one memcpy core).
  engine_.schedule_after(path_latency(src_world, dst_world),
                         [this, m] { submit_flow(m); });
}

void SimWorld::submit_flow(std::uint32_t m) {
  msgs_[m].lane->submit([this, m](SerialLane::Release release) {
    const Msg& msg = msgs_[m];
    flownet_.start_flow(msg.route, msg.flow_bytes, msg.cap,
                        [this, m, release = std::move(release)]() mutable {
                          land(m);
                          release();
                        });
  });
}

void SimWorld::land(std::uint32_t m) {
  Msg& msg = msgs_[m];
  switch (msg.landing) {
    case Landing::Eager: {
      Request sreq = std::move(msg.send_req);
      deliver(m);
      sreq->complete();
      break;
    }
    case Landing::Rendezvous: {
      if (!msg.payload.empty() && msg.recv_buf.has_data()) {
        HAN_ASSERT_MSG(msg.recv_buf.bytes >= msg.bytes,
                       "rendezvous truncation");
        std::memcpy(msg.recv_buf.data, msg.payload.data(), msg.bytes);
      }
      msg.send_req->complete();
      ranks_[msg.dst_world].cpu.exec(
          engine_, p2p_.recv_overhead,
          [req = std::move(msg.recv_req)] { req->complete(); });
      release_msg(m);
      break;
    }
    case Landing::Copy:
      if (--msg.parts_left == 0) {
        msg.send_req->complete();
        release_msg(m);
      }
      break;
  }
}

Request SimWorld::isend(const Comm& comm, int src, int dst, Tag tag,
                        BufView buf) {
  return isend_ctx(comm, comm.context(), src, dst, tag, buf);
}

Request SimWorld::isend_ctx(const Comm& comm, int ctx, int src, int dst,
                            Tag tag, BufView buf, int rail) {
  const int s = comm.world_rank(src);
  const int d = comm.world_rank(dst);
  Request sreq = make_request(engine_);
  ++messages_sent_;
  msg_counter_->add(1.0);
  msg_bytes_counter_->add(static_cast<double>(buf.bytes));

  const std::uint32_t m = msgs_.acquire();
  Msg& msg = msgs_[m];
  msg.ctx = ctx;
  msg.src_world = s;
  msg.dst_world = d;
  msg.tag = tag;
  msg.bytes = buf.bytes;
  msg.rail = resolve_rail(s, d, rail);
  if (options_.data_mode && buf.has_data()) {
    msg.payload.assign(buf.data, buf.data + buf.bytes);
  }
  msg.landing = buf.bytes > p2p_.eager_limit ? Landing::Rendezvous
                                              : Landing::Eager;
  msg.send_req = sreq;

  ranks_[s].cpu.exec(engine_, jittered(p2p_.send_overhead), [this, m] {
    const Msg& sent = msgs_[m];
    if (sent.landing == Landing::Eager) {
      start_data_flow(m);
    } else {
      // Rendezvous: only the RTS envelope travels now; the data flow starts
      // once the receiver matches and the CTS returns.
      engine_.schedule_after(path_latency(sent.src_world, sent.dst_world),
                             [this, m] { deliver(m); });
    }
  });
  return sreq;
}

Request SimWorld::irecv(const Comm& comm, int dst, int src, Tag tag,
                        BufView buf) {
  return irecv_ctx(comm, comm.context(), dst, src, tag, buf);
}

Request SimWorld::irecv_ctx(const Comm& comm, int ctx, int dst, int src,
                            Tag tag, BufView buf) {
  const int s = comm.world_rank(src);
  const int d = comm.world_rank(dst);
  Request rreq = make_request(engine_);
  PostedRecv pr{ctx, s, tag, buf, rreq};

  auto& mq = matching_[d];
  for (auto it = mq.unexpected.begin(); it != mq.unexpected.end(); ++it) {
    const Msg& msg = msgs_[*it];
    if (msg.ctx == ctx && msg.src_world == s && msg.tag == tag) {
      const std::uint32_t m = *it;
      mq.unexpected.erase(it);
      if (msg.landing == Landing::Rendezvous) {
        start_rendezvous(m, pr);
      } else {
        match_eager(m, pr);
      }
      return rreq;
    }
  }
  mq.posted.push_back(std::move(pr));
  return rreq;
}

void SimWorld::deliver(std::uint32_t m) {
  const Msg& msg = msgs_[m];
  auto& mq = matching_[msg.dst_world];
  for (auto it = mq.posted.begin(); it != mq.posted.end(); ++it) {
    if (it->ctx == msg.ctx && it->src_world == msg.src_world &&
        it->tag == msg.tag) {
      PostedRecv pr = std::move(*it);
      mq.posted.erase(it);
      if (msg.landing == Landing::Rendezvous) {
        start_rendezvous(m, pr);
      } else {
        match_eager(m, pr);
      }
      return;
    }
  }
  mq.unexpected.push_back(m);
}

void SimWorld::match_eager(std::uint32_t m, PostedRecv& pr) {
  const Msg& msg = msgs_[m];
  // Unpacking an eager message is a CPU-side copy on the receiver.
  const sim::Time unpack =
      static_cast<double>(msg.bytes) / profile_.core_copy_bandwidth;
  if (!msg.payload.empty() && pr.buf.has_data()) {
    HAN_ASSERT_MSG(pr.buf.bytes >= msg.bytes, "eager receive truncation");
    std::memcpy(pr.buf.data, msg.payload.data(), msg.bytes);
  }
  ranks_[msg.dst_world].cpu.exec(engine_,
                                 jittered(p2p_.recv_overhead + unpack),
                                 [req = std::move(pr.req)] { req->complete(); });
  release_msg(m);
}

void SimWorld::start_rendezvous(std::uint32_t m, PostedRecv& pr) {
  Msg& msg = msgs_[m];
  const int s = msg.src_world;
  const int d = msg.dst_world;
  const bool inter = !same_node(s, d);
  // Per-message protocol stall: registration + shallow rendezvous
  // pipelining cost that makes the achieved single-message bandwidth
  // follow the Fig. 11 efficiency curve. It is a *delay*, not NIC
  // occupancy, so back-to-back segment streams overlap it and run at peak
  // rate — matching how pipelined collectives beat ping-pong bandwidth.
  sim::Time stall = 0.0;
  if (inter) {
    const double eff = p2p_.net_efficiency.at(msg.bytes);
    stall = static_cast<double>(msg.bytes) / profile_.nic_bandwidth *
            (1.0 / eff - 1.0);
  }
  const sim::Time handshake =
      path_latency(s, d) + (inter ? p2p_.rndv_rtt_extra + stall : 0.2e-6);
  msg.recv_buf = pr.buf;
  msg.recv_req = std::move(pr.req);

  ranks_[d].cpu.exec(engine_, p2p_.match_overhead, [this, m, handshake] {
    engine_.schedule_after(handshake, [this, m] { start_data_flow(m); });
  });
}

Request SimWorld::copy_flow(int world_rank, std::size_t bytes, double cap) {
  return copy_flow_pair(world_rank, world_rank, bytes, cap);
}

Request SimWorld::copy_flow_pair(int world_rank, int peer_world,
                                 std::size_t bytes, double cap) {
  Request req = make_request(engine_);
  HAN_ASSERT(same_node(world_rank, peer_world));
  const std::uint32_t m = msgs_.acquire();
  Msg& msg = msgs_[m];
  msg.landing = Landing::Copy;
  msg.send_req = req;
  msg.route = fabric_.pair_path(ranks_[world_rank].node,
                                ranks_[world_rank].numa,
                                ranks_[peer_world].numa);
  msg.flow_bytes = static_cast<double>(bytes);
  msg.cap = cap > 0.0 ? cap : profile_.core_copy_bandwidth;
  msg.lane = &copy_lane_[world_rank];
  // A shared-memory copy charges the memory bus (FIFO per rank — one
  // memcpy engine) AND occupies a slice of the single-threaded progression
  // CPU: real progress engines interleave protocol work between copy
  // fragments, so the CPU is partially, not fully, held. Both effects
  // together produce the imperfect ib/sb overlap of paper Fig. 2.
  msg.parts_left = 2;
  submit_flow(m);
  const sim::Time cpu_slice =
      static_cast<double>(bytes) /
      (profile_.core_copy_bandwidth / kCopyCpuShare);
  ranks_[world_rank].cpu.exec(engine_, cpu_slice, [this, m] { land(m); });
  return req;
}

Request SimWorld::compute(int world_rank, sim::Time seconds) {
  Request req = make_request(engine_);
  ranks_[world_rank].cpu.exec(engine_, jittered(seconds),
                              [req] { req->complete(); });
  return req;
}

Request SimWorld::reduce_compute(int world_rank, std::size_t bytes,
                                 bool avx) {
  const double bw = avx ? profile_.reduce_bandwidth_avx
                        : profile_.reduce_bandwidth_scalar;
  return compute(world_rank, static_cast<double>(bytes) / bw);
}

void SimWorld::run(const Program& program) {
  auto live = std::make_shared<int>(world_size());
  for (int r = 0; r < world_size(); ++r) {
    sim::CoTask task = program(ranks_[r]);
    task.start([live] { --*live; });
  }
  engine_.run();
  HAN_ASSERT_MSG(*live == 0,
                 "deadlock: rank programs still blocked after event queue "
                 "drained");
  // Quiescent: hand idle pools back, so memory follows a run's peak.
  engine_.cells().trim();
  msgs_.trim();
}

}  // namespace han::mpi
