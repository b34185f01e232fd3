#include "flownet/flownet.hpp"

#include <algorithm>
#include <cmath>

#include "simbase/assert.hpp"

namespace han::net {

namespace {
// A flow with fewer remaining bytes than this is considered done; absorbs
// floating-point residue from rate rebalancing.
constexpr double kByteEpsilon = 1e-6;
// Relative tolerance when matching resource shares to the bottleneck level.
constexpr double kShareTolerance = 1e-12;
}  // namespace

ResourceId FlowNet::add_resource(std::string name, double capacity_bps) {
  HAN_ASSERT_MSG(capacity_bps > 0.0, "resource capacity must be positive");
  if (resources_.empty()) {
    // Typical fabrics register a few dozen resources back to back.
    resources_.reserve(16);
    resource_mark_.reserve(16);
    avail_.reserve(16);
    pending_count_.reserve(16);
    robs_.reserve(16);
  }
  resources_.push_back(Resource{std::move(name), capacity_bps, {}});
  resource_mark_.push_back(0);
  avail_.push_back(0.0);
  pending_count_.push_back(0);
  ResourceObs obs;
  obs.last_change = engine_->now();
  robs_.push_back(obs);
  const auto id = static_cast<ResourceId>(resources_.size() - 1);
  if (metrics_ != nullptr) register_resource_metrics(id);
  return id;
}

void FlowNet::set_capacity(ResourceId id, double capacity_bps) {
  HAN_ASSERT(id < resources_.size());
  HAN_ASSERT_MSG(capacity_bps > 0.0, "resource capacity must be positive");
  account(id);
  resources_[id].capacity = capacity_bps;
  refresh_gauges(id);
  const ResourceId seeds[] = {id};
  mark_dirty(seeds);
}

double FlowNet::capacity(ResourceId id) const {
  HAN_ASSERT(id < resources_.size());
  return resources_[id].capacity;
}

FlowId FlowNet::acquire_flow() {
  const std::uint32_t slot = slots_.acquire();
  if (slot == flow_mark_.size()) flow_mark_.push_back(0);  // a new slot
  FlowSlot& fs = slots_[slot];
  ++fs.generation;  // >= 1 from the first use, so no live id is 0
  fs.live = true;
  return make_id(fs.generation, slot);
}

void FlowNet::release_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  FlowSlot& fs = slots_[slot];
  HAN_ASSERT(fs.live && fs.generation == gen_of(id));
  fs.live = false;
  fs.flow.on_complete = nullptr;  // destroy the capture eagerly
  fs.flow.resources.clear();
  slots_.release(slot);
}

FlowId FlowNet::start_flow(std::span<const ResourceId> resources, double bytes,
                           double rate_cap, Callback on_complete) {
  HAN_ASSERT_MSG(rate_cap > 0.0, "rate cap must be positive");
  if (bytes <= kByteEpsilon) {
    engine_->schedule_after(0.0, std::move(on_complete));
    return kInvalidFlow;
  }

  const FlowId id = acquire_flow();
  Flow& flow = slots_[slot_of(id)].flow;
  flow.remaining = bytes;
  flow.rate = 0.0;  // assigned by the batched rebalance at this timestamp
  flow.rate_cap = rate_cap;
  flow.last_update = engine_->now();
  flow.order = next_order_++;
  flow.completion = sim::EventId{};
  flow.resources.assign(resources.begin(), resources.end());
  flow.resources.normalize();
  flow.on_complete = std::move(on_complete);

  if (flows_started_ != nullptr) flows_started_->add(1.0);
  for (ResourceId r : flow.resources) {
    HAN_ASSERT(r < resources_.size());
    account(r);  // close the interval at the old queue depth
    resources_[r].flows.push_back(id);
    refresh_gauges(r);
  }
  if (flow.resources.empty()) {
    // A resource-less flow is only limited by its rate cap.
    flow.rate = rate_cap;
    schedule_completion(id, flow);
  } else {
    mark_dirty(flow.resources);
  }
  return id;
}

void FlowNet::abort_flow(FlowId id) {
  Flow* flow = lookup(id);
  if (flow == nullptr) return;
  if (flows_aborted_ != nullptr) flows_aborted_->add(1.0);
  engine_->cancel(flow->completion);
  // Marking before detaching spares a copy of the path; it only records
  // dirty seeds (and schedules the one pending rebalance event).
  mark_dirty(flow->resources);
  detach_flow(id, *flow);
  release_flow(id);
}

double FlowNet::flow_rate(FlowId id) const {
  const Flow* flow = lookup(id);
  return flow == nullptr ? 0.0 : flow->rate;
}

double FlowNet::resource_usage(ResourceId id) const {
  HAN_ASSERT(id < resources_.size());
  double usage = 0.0;
  for (FlowId f : resources_[id].flows) {
    usage += lookup(f)->rate;
  }
  return usage;
}

void FlowNet::mark_dirty(std::span<const ResourceId> seeds) {
  dirty_.insert(dirty_.end(), seeds.begin(), seeds.end());
  if (!rebalance_pending_) {
    rebalance_pending_ = true;
    // Scheduled at the current time: runs after all already-queued
    // same-time events, so a burst of flow starts/finishes coalesces into
    // one rate recomputation.
    engine_->schedule_after(0.0, [this] { rebalance(); });
  }
}

void FlowNet::collect_component(std::span<const ResourceId> seeds,
                                std::vector<ResourceId>& comp_resources,
                                std::vector<FlowId>& comp_flows) {
  comp_resources.clear();
  comp_flows.clear();
  auto& stack = stack_;
  stack.clear();
  for (ResourceId r : seeds) {
    if (resource_mark_[r] == 0) {
      resource_mark_[r] = 1;
      stack.push_back(r);
    }
  }

  comp_keys_.clear();
  while (!stack.empty()) {
    const ResourceId r = stack.back();
    stack.pop_back();
    comp_resources.push_back(r);
    for (FlowId fid : resources_[r].flows) {
      const std::uint32_t fs = slot_of(fid);
      if (flow_mark_[fs] != 0) continue;
      flow_mark_[fs] = 1;
      // Ids in resource lists are live by invariant: skip the full lookup.
      const Flow& flow = slots_[fs].flow;
      comp_keys_.push_back(flow.order);
      comp_flows.push_back(fid);
      for (ResourceId other : flow.resources) {
        if (resource_mark_[other] == 0) {
          resource_mark_[other] = 1;
          stack.push_back(other);
        }
      }
    }
  }
  for (ResourceId r : comp_resources) resource_mark_[r] = 0;
  // Creation order — the iteration order of the original map-based design
  // (monotonic ids), which the water-filling and completion-scheduling
  // loops depend on for bit-identical floating-point results. Orders are
  // allotted one per flow start, so packing {order << 16 | position} into
  // one word sorts keys half the size of (order, id) pairs; components
  // beyond 2^16 flows (or 2^48 starts) take the plain pair sort.
  const std::size_t n = comp_flows.size();
  if (n < (1u << 16) && next_order_ < (std::uint64_t{1} << 48)) {
    for (std::size_t i = 0; i < n; ++i) {
      comp_keys_[i] = (comp_keys_[i] << 16) | i;
    }
    std::sort(comp_keys_.begin(), comp_keys_.end());
    order_scratch_.assign(comp_flows.begin(), comp_flows.end());
    for (std::size_t i = 0; i < n; ++i) {
      comp_flows[i] = order_scratch_[comp_keys_[i] & 0xffffu];
    }
  } else {
    std::vector<std::pair<std::uint64_t, FlowId>> pairs;
    pairs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pairs.emplace_back(comp_keys_[i], comp_flows[i]);
    }
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t i = 0; i < n; ++i) comp_flows[i] = pairs[i].second;
  }
  for (FlowId fid : comp_flows) flow_mark_[slot_of(fid)] = 0;
  std::sort(comp_resources.begin(), comp_resources.end());
}

void FlowNet::settle_at(Flow& flow, sim::Time now) {
  if (now > flow.last_update && flow.rate > 0.0) {
    flow.remaining -= flow.rate * (now - flow.last_update);
    if (flow.remaining < 0.0) flow.remaining = 0.0;
  }
  flow.last_update = now;
}

void FlowNet::schedule_completion(FlowId id, Flow& flow) {
  HAN_ASSERT_MSG(flow.rate > 0.0, "active flow starved (rate == 0)");
  const sim::Time due = engine_->now() + flow.remaining / flow.rate;
  if (engine_->pending(flow.completion)) {
    if (due == flow.due) {
      // On time: keep the event. A fresh sequence number gives it the
      // firing order a re-queued event would have.
      flow.completion = engine_->resequence(flow.completion);
      return;
    }
    // Only the latest completion may fire, so its callback needs no
    // validity check. Cancelling takes no sequence number: every live
    // event keeps its (time, seq) firing order.
    engine_->cancel(flow.completion);
    if (completions_retimed_ != nullptr) completions_retimed_->add(1.0);
  }
  flow.due = due;
  flow.completion = engine_->schedule_at(
      due, [this, id] { finish_flow(id, slots_[slot_of(id)].flow); });
}

void FlowNet::finish_flow(FlowId id, Flow& flow) {
  if (flows_completed_ != nullptr) flows_completed_->add(1.0);
  settle_at(flow, engine_->now());
  mark_dirty(flow.resources);  // before detach: spares copying the path
  Callback on_complete = std::move(flow.on_complete);
  detach_flow(id, flow);
  release_flow(id);
  if (on_complete) on_complete();
}

void FlowNet::detach_flow(FlowId id, const Flow& flow) {
  for (ResourceId r : flow.resources) {
    account(r);  // integrate the allocation the flow was part of
    auto& list = resources_[r].flows;
    auto pos = std::find(list.begin(), list.end(), id);
    HAN_ASSERT(pos != list.end());
    *pos = list.back();
    list.pop_back();
    robs_[r].rate_sum = std::max(0.0, robs_[r].rate_sum - flow.rate);
    refresh_gauges(r);
  }
}

void FlowNet::rebalance() {
  rebalance_pending_ = false;
  // Swap dirty_ out through a member buffer: both vectors keep their
  // capacity across rebalances, so steady-state churn never reallocates.
  auto& seeds = seeds_;
  seeds.clear();
  seeds.swap(dirty_);

  auto& comp_resources = scratch_resources_;
  auto& comp_flows = scratch_flows_;
  collect_component(seeds, comp_resources, comp_flows);
  if (comp_flows.empty()) return;

  // Records never move (SlotPool), so resolve each component flow once
  // and run every loop below on raw pointers. Account progress under the
  // outgoing allocation before changing rates.
  const std::size_t n = comp_flows.size();
  const sim::Time now = engine_->now();
  comp_ptrs_.clear();
  old_rates_.clear();
  for (FlowId fid : comp_flows) {
    Flow* flow = &slots_[slot_of(fid)].flow;
    comp_ptrs_.push_back(flow);
    old_rates_.push_back(flow->rate);
    settle_at(*flow, now);
  }

  // Progressive filling (water-filling): repeatedly find the lowest
  // bottleneck level (equal share on some resource, or a flow's own rate
  // cap) and fix the flows bound at it. avail_/pending_count_ are
  // pre-sized per resource and reset on exit.
  for (ResourceId r : comp_resources) {
    avail_[r] = resources_[r].capacity;
    pending_count_[r] = 0;
  }
  auto& unfixed = unfixed_;
  auto& still_unfixed = still_unfixed_;
  unfixed.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    unfixed.push_back(i);
    for (ResourceId r : comp_ptrs_[i]->resources) ++pending_count_[r];
  }

  while (!unfixed.empty()) {
    double level = std::numeric_limits<double>::infinity();
    for (ResourceId r : comp_resources) {
      if (pending_count_[r] > 0) {
        level = std::min(level, std::max(avail_[r], 0.0) /
                                    static_cast<double>(pending_count_[r]));
      }
    }
    bool cap_bound = false;
    for (std::uint32_t i : unfixed) {
      const double cap = comp_ptrs_[i]->rate_cap;
      if (cap < level) {
        level = cap;
        cap_bound = true;
      } else if (cap == level) {
        cap_bound = true;
      }
    }
    HAN_ASSERT(std::isfinite(level));

    still_unfixed.clear();
    // Loop-invariant: the bound test compares against the same scaled
    // level for every flow in this pass.
    const double thresh = level * (1.0 + kShareTolerance);
    for (std::uint32_t i : unfixed) {
      Flow& flow = *comp_ptrs_[i];
      bool bound = cap_bound && flow.rate_cap <= thresh;
      if (!bound) {
        for (ResourceId r : flow.resources) {
          const double share = std::max(avail_[r], 0.0) /
                               static_cast<double>(pending_count_[r]);
          if (share <= thresh) {
            bound = true;
            break;
          }
        }
      }
      if (bound) {
        // The 1e-3 B/s floor absorbs floating-point residue when a
        // resource is exactly saturated; it never matters physically.
        flow.rate = std::max(std::min(level, flow.rate_cap), 1e-3);
        for (ResourceId r : flow.resources) {
          avail_[r] -= flow.rate;
          --pending_count_[r];
        }
      } else {
        still_unfixed.push_back(i);
      }
    }
    HAN_ASSERT_MSG(still_unfixed.size() < unfixed.size(),
                   "max-min filling made no progress");
    unfixed.swap(still_unfixed);
  }

  // Resources whose rate sum or flow list changed: the seeds, and every
  // resource of a flow whose rate came out different.
  for (ResourceId r : seeds) resource_mark_[r] = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    Flow& flow = *comp_ptrs_[i];
    if (flow.remaining <= kByteEpsilon) {
      // Finished within floating-point residue: complete now.
      flow.remaining = 0.0;
      flow.rate = std::max(flow.rate, 1.0);
    }
    if (flow.rate != old_rates_[i]) {
      for (ResourceId r : flow.resources) resource_mark_[r] = 1;
    }
    schedule_completion(comp_flows[i], flow);
  }

  // New allocation is in force from `now`: close the old integration
  // interval everywhere (skipping it would merge intervals and move the
  // integrated bytes by an ulp), and record the fresh rate sum of every
  // resource whose rate sum or flow list changed; elsewhere the sum is
  // unchanged and the gauges already show it.
  for (ResourceId r : comp_resources) {
    account(r);
    if (resource_mark_[r] == 0) continue;
    resource_mark_[r] = 0;
    double sum = 0.0;
    for (FlowId fid : resources_[r].flows) {
      sum += slots_[slot_of(fid)].flow.rate;
    }
    robs_[r].rate_sum = sum;
    refresh_gauges(r);
  }
}

// ---- Observability --------------------------------------------------------

void FlowNet::account(ResourceId id) {
  ResourceObs& obs = robs_[id];
  const sim::Time now = engine_->now();
  const sim::Time dt = now - obs.last_change;
  // Same-timestamp mutation bursts (the common case: a batch of flow
  // starts/finishes at one simulated instant) leave without writing.
  if (dt <= 0.0) return;
  obs.last_change = now;
  const double moved = obs.rate_sum * dt;
  if (obs.bytes != nullptr && moved > 0.0) obs.bytes->add(moved);
  if (obs.queue_hist != nullptr) {
    obs.queue_hist->observe(static_cast<double>(resources_[id].flows.size()),
                            dt);
  }
}

void FlowNet::refresh_gauges(ResourceId id) {
  ResourceObs& obs = robs_[id];
  if (obs.util == nullptr) return;
  const sim::Time now = engine_->now();
  obs.util->set(now, obs.rate_sum / resources_[id].capacity);
  obs.queue->set(now, static_cast<double>(resources_[id].flows.size()));
}

void FlowNet::register_resource_metrics(ResourceId id) {
  const std::string base = "net.res." + resources_[id].name;
  ResourceObs& obs = robs_[id];
  obs.util = &metrics_->gauge(base + ".util");
  obs.queue = &metrics_->gauge(base + ".queue");
  obs.bytes = &metrics_->counter(base + ".bytes");
  refresh_gauges(id);
}

void FlowNet::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    flows_started_ = flows_completed_ = flows_aborted_ = nullptr;
    completions_retimed_ = nullptr;
    for (ResourceObs& obs : robs_) {
      obs.util = obs.queue = nullptr;
      obs.bytes = nullptr;
      obs.queue_hist = nullptr;
    }
    return;
  }
  flows_started_ = &registry->counter("net.flows.started");
  flows_completed_ = &registry->counter("net.flows.completed");
  flows_aborted_ = &registry->counter("net.flows.aborted");
  completions_retimed_ = &registry->counter("net.completions.retimed");
  for (ResourceId r = 0; r < resources_.size(); ++r) {
    register_resource_metrics(r);
  }
}

void FlowNet::enable_queue_histogram(ResourceId id,
                                     const std::string& metric_name) {
  HAN_ASSERT(id < resources_.size());
  HAN_ASSERT_MSG(metrics_ != nullptr,
                 "attach a metrics registry before enabling queue histograms");
  account(id);
  robs_[id].queue_hist = &metrics_->histogram(metric_name, {});
}

}  // namespace han::net
