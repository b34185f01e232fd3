#include "machine/fabric.hpp"

#include "simbase/assert.hpp"

namespace han::machine {

ClusterFabric::ClusterFabric(net::FlowNet& net,
                             const MachineProfile& profile)
    : numa_per_node_(profile.numa_per_node), rails_(profile.nics_per_node) {
  HAN_ASSERT(profile.nodes > 0 && profile.procs_per_node > 0);
  HAN_ASSERT(numa_per_node_ >= 1);
  HAN_ASSERT(rails_ >= 1);
  // Resource names and creation order at rails_ == 1 are frozen by the
  // seed goldens ("fabric", "nic_txN", "nic_rxN"); rail suffixes appear
  // only on multi-rail profiles.
  fabric_.reserve(rails_);
  for (int r = 0; r < rails_; ++r) {
    const std::string name =
        rails_ == 1 ? "fabric" : "fabric.r" + std::to_string(r);
    fabric_.push_back(net.add_resource(
        name, profile.bisection_factor * profile.nodes *
                  profile.nic_bandwidth));
  }
  membus_.reserve(static_cast<std::size_t>(profile.nodes) * numa_per_node_);
  nic_tx_.reserve(static_cast<std::size_t>(profile.nodes) * rails_);
  nic_rx_.reserve(static_cast<std::size_t>(profile.nodes) * rails_);
  for (int n = 0; n < profile.nodes; ++n) {
    const std::string suffix = std::to_string(n);
    for (int d = 0; d < numa_per_node_; ++d) {
      membus_.push_back(net.add_resource(
          "membus" + suffix + "." + std::to_string(d),
          profile.membus_bandwidth));
    }
    if (numa_per_node_ > 1) {
      HAN_ASSERT_MSG(profile.inter_numa_bandwidth > 0.0,
                     "NUMA profile needs an inter-socket link bandwidth");
      numa_link_.push_back(net.add_resource("numalink" + suffix,
                                            profile.inter_numa_bandwidth));
    }
    for (int r = 0; r < rails_; ++r) {
      const std::string rail =
          rails_ == 1 ? std::string() : ".r" + std::to_string(r);
      nic_tx_.push_back(net.add_resource("nic_tx" + suffix + rail,
                                         profile.nic_bandwidth));
      nic_rx_.push_back(net.add_resource("nic_rx" + suffix + rail,
                                         profile.nic_bandwidth));
    }
  }
}

void ClusterFabric::register_observability(net::FlowNet& net,
                                           const MachineProfile& profile,
                                           obs::MetricsRegistry& registry)
    const {
  registry.set_meta("machine.nodes", std::to_string(profile.nodes));
  registry.set_meta("machine.ppn", std::to_string(profile.procs_per_node));
  registry.set_meta("machine.numa_per_node",
                    std::to_string(profile.numa_per_node));
  if (rails_ == 1) {
    net.enable_queue_histogram(fabric_[0], "net.fabric.queue_depth");
    return;
  }
  registry.set_meta("machine.nics_per_node", std::to_string(rails_));
  for (int r = 0; r < rails_; ++r) {
    net.enable_queue_histogram(
        fabric_[r], "net.fabric.rail" + std::to_string(r) + ".queue_depth");
  }
}

net::Route ClusterFabric::inter_path(int src_node, int dst_node,
                                    int rail) const {
  HAN_ASSERT(src_node != dst_node);
  HAN_ASSERT(rail >= 0 && rail < rails_);
  return net::Route{nic_tx(src_node, rail), fabric_[rail],
                    nic_rx(dst_node, rail), membus(src_node, 0),
                    membus(dst_node, 0)};
}

net::Route ClusterFabric::pair_path(int node, int numa_a, int numa_b) const {
  if (numa_a == numa_b) return net::Route{membus(node, numa_a)};
  return net::Route{membus(node, numa_a), membus(node, numa_b),
                    numa_link_.at(node)};
}

}  // namespace han::machine
