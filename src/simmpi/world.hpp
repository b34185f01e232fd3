// SimWorld: one simulated cluster run.
//
// Owns the event engine, the fluid-flow network, the machine fabric, the
// per-process state (CPU lane, node placement), communicator management,
// and the tag-matched P2P layer (eager + rendezvous protocols). Rank
// programs are C++20 coroutines spawned one per world rank; `run()` drives
// the engine until every program returns.
//
// Hot-path note: every in-flight message and shared-memory copy keeps its
// state — envelope, payload, requests, route, rate cap, lane, part count —
// in one record of a sim::SlotPool, addressed by index, and its requests
// are cells of the engine's CellPool. Both recycle freed slots, so they
// grow to the peak number of live messages of a run, and run() hands them
// back once the world is quiescent. Every protocol closure captures only
// the world and the record's index, so a message's steps from send
// overhead to the last byte landing fit the engine's inline callback
// storage and touch no allocator.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "flownet/flownet.hpp"
#include "machine/fabric.hpp"
#include "machine/machine.hpp"
#include "obs/metrics.hpp"
#include "simbase/cotask.hpp"
#include "simbase/engine.hpp"
#include "simbase/serial_lane.hpp"
#include "simbase/slot_pool.hpp"
#include "simmpi/buffer.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/cpulane.hpp"
#include "simbase/rng.hpp"
#include "simmpi/request.hpp"

namespace han::mpi {

using Tag = std::int64_t;

/// Per-process simulated state.
struct Rank {
  int world_rank = 0;
  int node = 0;
  int local_rank = 0;  // rank within the node
  int numa = 0;        // NUMA domain within the node
  CpuLane cpu;
};

// NIC injection and shm-pipe transfers are FIFO-serialized per sender via
// sim::SerialLane: message i's last byte leaves before message i+1 starts.
// Without this, the fluid model would let N concurrent segments fair-share
// and all complete simultaneously, destroying the pipelining every
// segmented algorithm depends on.
using sim::SerialLane;

/// Zero-cost rendezvous among a fixed set of parties; used by benchmark
/// harnesses to align rank start times (IMB inserts a barrier between
/// iterations). Not an MPI barrier — it consumes no simulated resources.
class SyncDomain {
 public:
  SyncDomain(sim::Engine& engine, int parties)
      : engine_(&engine), parties_(parties) {
    HAN_ASSERT(parties > 0);
  }

  /// Each party calls once per round; the returned request completes when
  /// all `parties` have arrived.
  Request arrive();

 private:
  sim::Engine* engine_;
  int parties_;
  int arrived_ = 0;
  Request round_;
};

class SimWorld;

/// IMB's timing loop (paper §IV-A), the one every synchronized collective
/// measurement runs: `rounds` rounds on every world rank, each opened by
/// one SyncDomain of world_size() parties built for this call. Per rank
/// and round: arrive, take t0, call `issue(rank, round)`, await the
/// returned request. Returns each round's cost — the largest now - t0
/// over the ranks. A rank with nothing to do returns a complete request.
std::vector<double> time_rounds(
    SimWorld& world, int rounds,
    const std::function<Request(int rank, int round)>& issue);

class SimWorld {
 public:
  struct Options {
    bool data_mode = false;  // carry real payloads (tests) or timing-only
    /// Override the profile's Open MPI P2P parameters (vendor stacks).
    const machine::P2pParams* p2p_override = nullptr;
    /// Seed of the deterministic jitter stream (profile.jitter > 0).
    std::uint64_t jitter_seed = 0x5EEDull;
  };

  SimWorld(machine::MachineProfile profile, Options options);
  explicit SimWorld(machine::MachineProfile profile)
      : SimWorld(std::move(profile), Options()) {}

  sim::Engine& engine() { return engine_; }
  net::FlowNet& flownet() { return flownet_; }
  /// Resource handles (failure injection, diagnostics).
  machine::ClusterFabric& fabric() { return fabric_; }
  const machine::MachineProfile& profile() const { return profile_; }
  const machine::P2pParams& p2p() const { return p2p_; }
  const Options& options() const { return options_; }
  bool data_mode() const { return options_.data_mode; }

  int world_size() const { return profile_.total_procs(); }
  Rank& rank(int world_rank) { return ranks_.at(world_rank); }
  sim::Time now() const { return engine_.now(); }

  // --- Communicators -----------------------------------------------------

  Comm& world_comm() { return *world_comm_; }

  /// MPI_Comm_split: `color`/`key` indexed by parent comm rank. Returns the
  /// new communicator of each parent rank (ranks sharing a color share the
  /// pointer). Color -1 (MPI_UNDEFINED) yields nullptr.
  std::vector<Comm*> comm_split(const Comm& parent, std::span<const int> color,
                                std::span<const int> key);

  /// MPI_Comm_split_type(SHARED): groups parent ranks by physical node.
  std::vector<Comm*> comm_split_shared(const Comm& parent);

  /// MPI_Comm_free. Notifies the destroy observers (so caches keyed by
  /// the context id evict), then recycles the context for a later split —
  /// which is exactly why those caches must evict: a fresh communicator
  /// may legally reuse the dying one's id. The world comm cannot be freed,
  /// and outstanding traffic on the comm must have drained.
  void free_comm(Comm* comm);

  /// Observe communicator destruction; `fn` receives the dying comm's
  /// context id before it is recycled. Returns a token for
  /// remove_comm_destroy_observer (call it before the observer's owner
  /// outlives its captured state).
  int add_comm_destroy_observer(std::function<void(int)> fn);
  void remove_comm_destroy_observer(int token);

  /// Allocate a matching context (used by collective executors to isolate
  /// their traffic from application P2P on the same comm). Freed comm
  /// contexts are recycled first, like MPI cid allocation.
  int next_context() {
    if (!free_contexts_.empty()) {
      const int c = free_contexts_.back();
      free_contexts_.pop_back();
      return c;
    }
    return next_context_++;
  }

  // --- P2P ----------------------------------------------------------------

  /// Nonblocking send from comm rank `src` to comm rank `dst`. The request
  /// completes when the payload has left the sender (eager) or when the
  /// rendezvous transfer finishes.
  Request isend(const Comm& comm, int src, int dst, Tag tag, BufView buf);

  /// Same, but with an explicit matching context (collective traffic).
  /// `rail` pins an inter-node message to a fabric rail (striped plans);
  /// -1 (default) lets the profile's RailPolicy pick. Ignored for
  /// intra-node traffic and on single-rail machines.
  Request isend_ctx(const Comm& comm, int ctx, int src, int dst, Tag tag,
                    BufView buf, int rail = -1);

  Request irecv(const Comm& comm, int dst, int src, Tag tag, BufView buf);
  Request irecv_ctx(const Comm& comm, int ctx, int dst, int src, Tag tag,
                    BufView buf);

  // --- Local primitives used by collective modules ------------------------

  /// One memory-bus copy of `bytes` on `world_rank`'s node (shared-memory
  /// collective data movement). Completes the returned request when done.
  /// `cap` bounds the copy rate; pass 0 for the single-core copy bandwidth.
  Request copy_flow(int world_rank, std::size_t bytes, double cap = 0.0);

  /// Copy that reads another rank's memory (shared-memory window access).
  /// Charges the reader's bus — plus the peer's bus and the inter-socket
  /// link when the two ranks sit in different NUMA domains.
  Request copy_flow_pair(int world_rank, int peer_world, std::size_t bytes,
                         double cap = 0.0);

  /// Occupy the rank's CPU for `seconds`.
  Request compute(int world_rank, sim::Time seconds);

  /// Reduction arithmetic on `bytes` of input (CPU-bound; AVX or scalar
  /// per the machine profile). Data application is the caller's job.
  Request reduce_compute(int world_rank, std::size_t bytes, bool avx);

  // --- Programs -----------------------------------------------------------

  using Program = std::function<sim::CoTask(Rank&)>;

  /// Spawn `program` on every world rank and run the engine until all
  /// programs return. May be called repeatedly (simulated time accumulates).
  void run(const Program& program);

  /// World-wide zero-cost sync (see SyncDomain).
  Request sync() { return world_sync_->arrive(); }

  /// Total messages sent so far (diagnostics).
  std::uint64_t messages_sent() const { return messages_sent_; }

  // --- Observability -------------------------------------------------------

  /// The world's metrics registry. Wired into the flow network and fabric
  /// at construction; collective runtimes and apps add their own series.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Mirror every gauge change into `tracer` as a Perfetto counter track
  /// ("C" events). Pass nullptr to stop.
  void set_tracer(sim::Tracer* tracer) { metrics_.set_tracer(tracer); }

 private:
  struct PostedRecv {
    int ctx;
    int src_world;
    Tag tag;
    BufView buf;
    Request req;
  };

  /// A record's protocol, which fixes what happens when its bulk data
  /// has landed.
  enum class Landing : std::uint8_t {
    Eager,       // deliver the envelope; the send request completes
    Rendezvous,  // the receive buffer is filled; both requests complete
    Copy,        // one of a shared-memory copy's two parts is done
  };

  /// One in-flight message or shared-memory copy (pooled; see the header).
  struct Msg {
    // Envelope: matched by (ctx, src_world, tag) at dst_world.
    int ctx = 0;
    int src_world = 0;
    int dst_world = 0;
    Tag tag = 0;
    std::size_t bytes = 0;
    int rail = 0;                    // fabric rail of the bulk data
    std::vector<std::byte> payload;  // data mode only
    // Eager: completes when the payload has left the sender. Rendezvous:
    // when the data flow finishes. Copy: when both parts are done.
    Request send_req;
    BufView recv_buf;  // rendezvous, once matched
    Request recv_req;
    int parts_left = 0;  // copy: the memory-bus flow and the CPU slice
    Landing landing = Landing::Eager;
    // The bulk data movement.
    net::Route route;
    double flow_bytes = 0.0;
    double cap = 0.0;
    SerialLane* lane = nullptr;
  };

  // Match queues are contiguous vectors, not deques: they are searched
  // linearly on every send/recv (usually hitting near the front and
  // staying short), so cache-dense storage beats a chunked deque; ordered
  // erase preserves the MPI first-match semantics.
  struct RankMatch {
    std::vector<PostedRecv> posted;
    std::vector<std::uint32_t> unexpected;  // Msg indices
  };

  sim::Time path_latency(int src_world, int dst_world) const;

  /// Scale a CPU occupancy by the profile's jitter (identity when 0).
  sim::Time jittered(sim::Time t) {
    if (profile_.jitter <= 0.0) return t;
    return t * (1.0 + profile_.jitter * (2.0 * jitter_rng_.next_double() - 1.0));
  }
  bool same_node(int a, int b) const {
    return ranks_[a].node == ranks_[b].node;
  }

  /// Drop a finished record's payload and requests and free its slot.
  void release_msg(std::uint32_t m);

  /// Start message `m`'s bulk-data movement (its `bytes` from src_world to
  /// dst_world over `rail`); land(m) runs when the last byte lands.
  /// Chooses shm vs network path and applies the efficiency curve.
  void start_data_flow(std::uint32_t m);
  /// Queue `m`'s flow on its lane (FIFO per sender) and start it there.
  void submit_flow(std::uint32_t m);
  void land(std::uint32_t m);

  /// Resolve a message's fabric rail: explicit requests are clamped into
  /// range (striped configs degrade cleanly on machines with fewer
  /// rails); unpinned inter-node traffic follows the profile's
  /// RailPolicy. Always 0 on single-rail machines.
  int resolve_rail(int src_world, int dst_world, int rail);

  void deliver(std::uint32_t m);
  void match_eager(std::uint32_t m, PostedRecv& pr);
  void start_rendezvous(std::uint32_t m, PostedRecv& pr);

  machine::MachineProfile profile_;
  Options options_;
  machine::P2pParams p2p_;
  sim::Engine engine_;
  obs::MetricsRegistry metrics_;
  net::FlowNet flownet_;
  machine::ClusterFabric fabric_;
  obs::Counter* msg_counter_ = nullptr;
  obs::Counter* msg_bytes_counter_ = nullptr;
  std::vector<Rank> ranks_;
  std::deque<std::unique_ptr<Comm>> comms_;
  Comm* world_comm_ = nullptr;
  int next_context_ = 0;
  std::vector<int> free_contexts_;  // recycled by next_context()
  std::vector<std::pair<int, std::function<void(int)>>> destroy_observers_;
  int next_observer_token_ = 0;
  std::vector<RankMatch> matching_;
  sim::SlotPool<Msg> msgs_;  // pooled message records
  std::uint64_t messages_sent_ = 0;
  std::unique_ptr<SyncDomain> world_sync_;
  sim::Rng jitter_rng_;
  // Per-rank FIFO engines: NIC injection order and the single memcpy core.
  // The NIC lanes are per (rank, rail) — rank-major, rail-minor — so a
  // striped message stream injects concurrently on every rail instead of
  // serializing behind one NIC.
  std::vector<SerialLane> net_tx_lane_;
  std::vector<SerialLane> copy_lane_;
  std::vector<std::uint32_t> rail_rr_;  // per-rank round-robin cursors
};

}  // namespace han::mpi
