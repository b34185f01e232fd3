// Max-min fair fluid-flow network.
//
// Every bulk data movement in the simulated cluster — an inter-node
// rendezvous transfer, a shared-memory copy, a NIC DMA writing into host
// memory — is a *flow* over a set of *resources* (NIC tx/rx lanes, the
// inter-node fabric, per-node memory buses). Concurrent flows share each
// resource max-min fairly; rates are recomputed incrementally whenever a
// flow starts or finishes, scoped to the affected connected component.
//
// This is the mechanism that reproduces the effects the HAN paper's cost
// model is built around: congestion at a hot process, level-dependent
// bandwidth, and the imperfect overlap of inter-node and intra-node
// collectives caused by the shared memory bus.
//
// Hot-path design (see docs/PERFORMANCE.md): flow records live in a
// generation-tagged slot map over a sim::SlotPool — a FlowId packs
// {generation, slot}, lookup is an index plus a tag compare, and slots
// recycle so steady-state churn never touches the allocator. The flow's
// route is stored inline (Route, sized to the longest path the machine
// fabric emits) and completion callbacks use the engine's SBO callback
// type. A flow keeps the EventId of its pending completion and that
// event's time. A rebalance that moves the finish time cancels the event
// before scheduling its replacement, so a superseded completion never
// fires; one that leaves the finish time bitwise unchanged keeps the event
// and only renews its sequence number (Engine::resequence), so it fires
// exactly where a re-queued one would. Rate recomputation iterates
// component flows in creation order, which keeps results bit-identical to
// the original map-based implementation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simbase/engine.hpp"
#include "simbase/slot_pool.hpp"
#include "simbase/small_vec.hpp"
#include "simbase/units.hpp"

namespace han::net {

using ResourceId = std::uint32_t;
/// Packed {generation << 32 | slot}. A stale id (finished/aborted flow,
/// even after its slot was recycled) is recognized by its generation tag.
using FlowId = std::uint64_t;

inline constexpr FlowId kInvalidFlow = 0;

/// The resources one flow crosses, stored inline: routes are built and
/// copied once per message, so they must never touch the allocator. The
/// capacity is the longest route machine::ClusterFabric emits, an
/// inter-node transfer (NIC tx, fabric rail, NIC rx, and the memory bus on
/// each end); a longer route is a programming error and asserts.
class Route {
 public:
  static constexpr std::size_t kCapacity = 5;

  Route() = default;
  Route(std::initializer_list<ResourceId> ids) {
    assign(ids.begin(), ids.end());
  }

  ResourceId* data() { return ids_; }
  const ResourceId* data() const { return ids_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ResourceId* begin() { return ids_; }
  ResourceId* end() { return ids_ + size_; }
  const ResourceId* begin() const { return ids_; }
  const ResourceId* end() const { return ids_ + size_; }
  ResourceId& operator[](std::size_t i) {
    HAN_ASSERT(i < size_);
    return ids_[i];
  }
  ResourceId operator[](std::size_t i) const {
    HAN_ASSERT(i < size_);
    return ids_[i];
  }

  void clear() { size_ = 0; }
  void push_back(ResourceId id) {
    HAN_ASSERT_MSG(size_ < kCapacity, "route longer than Route::kCapacity");
    ids_[size_++] = id;
  }
  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }
  /// Sort and drop duplicates (a flow charges each resource once).
  void normalize() {
    std::sort(begin(), end());
    size_ = static_cast<std::uint32_t>(std::unique(begin(), end()) - begin());
  }

 private:
  ResourceId ids_[kCapacity] = {};
  std::uint32_t size_ = 0;
};

class FlowNet {
 public:
  using Callback = sim::Engine::Callback;

  explicit FlowNet(sim::Engine& engine) : engine_(&engine) {}
  FlowNet(const FlowNet&) = delete;
  FlowNet& operator=(const FlowNet&) = delete;

  /// Register a shared resource with capacity in bytes/second.
  ResourceId add_resource(std::string name, double capacity_bps);

  /// Change a resource's capacity (used by failure-injection tests);
  /// triggers a rate recomputation for flows using it.
  void set_capacity(ResourceId id, double capacity_bps);

  double capacity(ResourceId id) const;

  /// Start a flow of `bytes` across `resources`. `rate_cap` bounds the
  /// flow's rate regardless of resource headroom (models per-message
  /// protocol efficiency); pass no_cap() for unbounded. `on_complete`
  /// fires once, at the simulated time the last byte arrives. Zero-byte
  /// flows complete via a 0-delay event and return kInvalidFlow.
  FlowId start_flow(std::span<const ResourceId> resources, double bytes,
                    double rate_cap, Callback on_complete);

  static constexpr double no_cap() {
    return std::numeric_limits<double>::infinity();
  }

  /// Cancel a flow in flight (no completion callback fires). No-op if the
  /// flow already completed (stale ids stay inert across slot reuse).
  void abort_flow(FlowId id);

  std::size_t active_flows() const { return slots_.live(); }

  /// Current rate of an active flow (bytes/sec); 0 if unknown/finished.
  double flow_rate(FlowId id) const;

  /// Sum of active flow rates through a resource (for tests/invariants).
  double resource_usage(ResourceId id) const;

  std::size_t resource_count() const { return resources_.size(); }

  /// Slot-map diagnostics: slots allocated so far (tests assert the pool
  /// recycles instead of growing under churn).
  std::size_t flow_pool_capacity() const { return slots_.capacity(); }

  /// Attach a metrics registry: every resource gets a utilization gauge
  /// (`net.res.<name>.util`, fraction of capacity), an active-flow gauge
  /// (`net.res.<name>.queue`), and a bytes-moved counter
  /// (`net.res.<name>.bytes`), plus global flow lifecycle counters. Covers
  /// resources added before and after the call. Pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Additionally record `id`'s active-flow count as a time-weighted
  /// histogram under `metric_name` (congestion queue depth distribution).
  /// Requires an attached registry.
  void enable_queue_histogram(ResourceId id, const std::string& metric_name);

 private:
  struct Resource {
    std::string name;
    double capacity = 0.0;
    // Active flows through this resource. Queue depths stay single-digit
    // on the machine shapes we model; the spill path covers hot spots.
    sim::SmallVec<FlowId, 8> flows;
  };

  struct Flow {
    double remaining = 0.0;  // bytes left at `last_update`
    double rate = 0.0;       // bytes/sec under the current allocation
    double rate_cap = 0.0;
    sim::Time last_update = 0.0;
    std::uint64_t order = 0;  // creation order: deterministic iteration
    sim::EventId completion;  // pending completion
    sim::Time due = 0.0;      // the time it is queued for
    Route resources;
    Callback on_complete;
  };

  struct FlowSlot {
    Flow flow;
    std::uint32_t generation = 0;  // bumped on allocation; 0 = never used
    bool live = false;
  };

  static std::uint32_t slot_of(FlowId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t gen_of(FlowId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static FlowId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<FlowId>(gen) << 32) | slot;
  }

  Flow* lookup(FlowId id) {
    const std::uint32_t s = slot_of(id);
    if (s >= slots_.capacity()) return nullptr;
    FlowSlot& fs = slots_[s];
    if (!fs.live || fs.generation != gen_of(id)) return nullptr;
    return &fs.flow;
  }
  const Flow* lookup(FlowId id) const {
    return const_cast<FlowNet*>(this)->lookup(id);
  }
  Flow& flow_ref(FlowId id) {
    Flow* f = lookup(id);
    HAN_ASSERT(f != nullptr);
    return *f;
  }

  FlowId acquire_flow();
  void release_flow(FlowId id);

  // Mark resources dirty and schedule one batched rebalance at the current
  // timestamp (after all same-time events). Batching keeps synchronized
  // arrivals/completions of F flows at O(F·R) total instead of O(F²·R).
  void mark_dirty(std::span<const ResourceId> seeds);

  // Recompute max-min rates for the connected component containing the
  // dirty set and schedule each flow's completion at its finish time;
  // resources refresh their rate sums only where a rate or the flow list
  // changed.
  void rebalance();

  void collect_component(std::span<const ResourceId> seeds,
                         std::vector<ResourceId>& comp_resources,
                         std::vector<FlowId>& comp_flows);

  // Account progress since last_update (callers hoist `now` out of loops).
  void settle_at(Flow& flow, sim::Time now);
  // Schedule the completion at now + remaining / rate. A pending completion
  // already at that time is kept (resequenced); one at another time is
  // cancelled and re-queued, and counted in net.completions.retimed.
  void schedule_completion(FlowId id, Flow& flow);
  void finish_flow(FlowId id, Flow& flow);
  void detach_flow(FlowId id, const Flow& flow);

  // Per-resource observability accounting. `rate_sum` mirrors the rate
  // allocation in effect since `last_change`; account() integrates it (and
  // the active-flow count) up to `now` BEFORE any mutation of the
  // resource's flow list or rates.
  struct ResourceObs {
    double rate_sum = 0.0;
    sim::Time last_change = 0.0;
    obs::Gauge* util = nullptr;
    obs::Gauge* queue = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* queue_hist = nullptr;
  };
  void account(ResourceId id);
  void refresh_gauges(ResourceId id);
  void register_resource_metrics(ResourceId id);

  sim::Engine* engine_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* flows_started_ = nullptr;
  obs::Counter* flows_completed_ = nullptr;
  obs::Counter* flows_aborted_ = nullptr;
  obs::Counter* completions_retimed_ = nullptr;
  std::vector<ResourceObs> robs_;
  std::vector<Resource> resources_;
  sim::SlotPool<FlowSlot> slots_;  // flow slot map
  std::uint64_t next_order_ = 1;
  bool rebalance_pending_ = false;
  std::vector<ResourceId> dirty_;
  // Scratch buffers reused across rebalance() calls (indexed by ResourceId
  // or flow slot, reset via the component list).
  std::vector<char> resource_mark_;
  std::vector<char> flow_mark_;
  std::vector<double> avail_;
  std::vector<int> pending_count_;
  std::vector<ResourceId> scratch_resources_;
  std::vector<FlowId> scratch_flows_;
  std::vector<Flow*> comp_ptrs_;  // resolved once per rebalance
  std::vector<double> old_rates_;  // comp_ptrs_' rates before filling
  std::vector<std::uint32_t> unfixed_;        // indices into comp_ptrs_
  std::vector<std::uint32_t> still_unfixed_;
  std::vector<ResourceId> seeds_;  // rebalance takes dirty_ through here
  std::vector<ResourceId> stack_;  // collect_component DFS stack
  std::vector<std::uint64_t> comp_keys_;  // packed {order, position} keys
  std::vector<FlowId> order_scratch_;     // pre-sort snapshot of comp_flows
};

}  // namespace han::net
