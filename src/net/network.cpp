#include "net/network.h"

namespace ioc::net {

Network::Network(Cluster& cluster, NetworkConfig cfg)
    : cluster_(&cluster), cfg_(cfg) {}

des::SimTime Network::wire_time(std::uint64_t bytes) const {
  const double secs = static_cast<double>(bytes) / cfg_.bandwidth_bps;
  return cfg_.message_overhead + des::from_seconds(secs);
}

des::Task<void> Network::transfer(NodeId src, NodeId dst,
                                  std::uint64_t bytes) {
  Transfer x(*this, src, dst, bytes);
  while (!x.done()) co_await x;
}

}  // namespace ioc::net
