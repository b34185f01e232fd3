// Instantiates the FlowNet resources of a machine profile.
//
// Per node: one memory bus per NUMA domain (plus an inter-socket link when
// the profile has more than one domain), and one NIC transmit lane plus
// one NIC receive lane *per rail* (full duplex — this is what lets HAN's
// `ir` and `ib` overlap in opposite directions, paper Fig. 6). Globally:
// one fabric resource per rail at bisection bandwidth, which produces
// congestion when many node pairs communicate at once. Rails are aligned:
// NIC r of every node attaches to fabric rail r and rails never mix, so a
// transfer's rail choice fixes its whole inter-node resource set
// (CommBench's rail-aligned pattern; docs/FABRIC.md). Single-NIC profiles
// (`nics_per_node == 1`, the paper's testbeds) degenerate to the original
// one-lane one-fabric model, with identical resource names and creation
// order.
#pragma once

#include <vector>

#include "flownet/flownet.hpp"
#include "machine/machine.hpp"

namespace han::machine {

class ClusterFabric {
 public:
  ClusterFabric(net::FlowNet& net, const MachineProfile& profile);

  net::ResourceId membus(int node, int numa = 0) const {
    return membus_.at(static_cast<std::size_t>(node) * numa_per_node_ +
                      numa);
  }
  /// Inter-socket link of a node; only valid with numa_per_node > 1.
  net::ResourceId numa_link(int node) const { return numa_link_.at(node); }
  net::ResourceId nic_tx(int node, int rail = 0) const {
    return nic_tx_.at(static_cast<std::size_t>(node) * rails_ + rail);
  }
  net::ResourceId nic_rx(int node, int rail = 0) const {
    return nic_rx_.at(static_cast<std::size_t>(node) * rails_ + rail);
  }
  net::ResourceId fabric(int rail = 0) const { return fabric_.at(rail); }
  int numa_per_node() const { return numa_per_node_; }
  int rails() const { return rails_; }

  /// Resource set of an inter-node transfer src_node → dst_node over
  /// `rail`: sender NIC tx, fabric rail, receiver NIC rx, and the
  /// NIC-attached (domain 0) memory buses (the DMA on each end consumes
  /// bus bandwidth, which is the physical cause of the imperfect ib/sb
  /// overlap the paper measures in Fig. 2). This is the fabric's longest
  /// route: it fills net::Route exactly.
  net::Route inter_path(int src_node, int dst_node, int rail = 0) const;

  /// Resource set of an intra-node copy on `node`, domain `numa`.
  net::Route intra_path(int node, int numa) const {
    return net::Route{membus(node, numa)};
  }

  /// Resource set of a transfer between two domains of one node: both
  /// buses plus the inter-socket link when the domains differ.
  net::Route pair_path(int node, int numa_a, int numa_b) const;

  /// Wire the fabric into a metrics registry already attached to `net`:
  /// records the machine shape as report metadata and tracks each fabric
  /// rail's congestion (queue-depth distribution) — under
  /// `net.fabric.queue_depth` on single-rail machines (the original
  /// metric name) and `net.fabric.rail<r>.queue_depth` per rail on
  /// multi-rail ones. Per-rail byte counters come from the registry's
  /// standard per-resource `net.res.<name>.bytes` counters, since every
  /// rail is its own named resource.
  void register_observability(net::FlowNet& net, const MachineProfile& profile,
                              obs::MetricsRegistry& registry) const;

 private:
  int numa_per_node_ = 1;
  int rails_ = 1;
  std::vector<net::ResourceId> fabric_;     // per rail
  std::vector<net::ResourceId> membus_;     // node-major, numa-minor
  std::vector<net::ResourceId> numa_link_;  // per node (empty if 1 domain)
  std::vector<net::ResourceId> nic_tx_;     // node-major, rail-minor
  std::vector<net::ResourceId> nic_rx_;     // node-major, rail-minor
};

}  // namespace han::machine
