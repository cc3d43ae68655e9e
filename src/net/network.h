// Interconnect model: wire latency plus NIC-limited bandwidth with
// sender/receiver serialization. Contention therefore arises exactly where
// it does on the paper's RDMA fabrics — at the endpoints — which is what the
// DataStager pull scheduling is designed to relieve.
#pragma once

#include <coroutine>
#include <cstdint>

#include "des/process.h"
#include "des/simulator.h"
#include "des/time.h"
#include "net/cluster.h"
#include "util/stats.h"

namespace ioc::net {

struct NetworkConfig {
  des::SimTime latency = 5 * des::kMicrosecond;     // Portals-class wire time
  double bandwidth_bps = 2.0e9;                     // bytes/s per NIC
  des::SimTime message_overhead = 2 * des::kMicrosecond;  // per-message setup
  /// Topology term: extra latency per hop of node-id distance. Zero keeps
  /// the flat network of the core experiments; the placement ablation sets
  /// it to study locality-aware container placement (paper future work).
  des::SimTime per_hop_latency = 0;
};

class Network {
 public:
  Network(Cluster& cluster, NetworkConfig cfg = NetworkConfig{});

  /// Move `bytes` from src to dst; completes (resumes the awaiter) when the
  /// data has fully arrived. Occupies both NICs for the serialization time.
  /// Transfers between co-located endpoints (src == dst) cost only the
  /// message overhead.
  des::Task<void> transfer(NodeId src, NodeId dst, std::uint64_t bytes);

  /// Pure serialization time for a payload (no queueing).
  des::SimTime wire_time(std::uint64_t bytes) const;
  /// Propagation latency between two nodes (flat latency plus the optional
  /// per-hop topology term).
  des::SimTime wire_latency(NodeId src, NodeId dst) const {
    des::SimTime l = cfg_.latency;
    if (cfg_.per_hop_latency > 0) {
      const auto hops = src > dst ? src - dst : dst - src;
      l += cfg_.per_hop_latency * static_cast<des::SimTime>(hops);
    }
    return l;
  }

  const NetworkConfig& config() const { return cfg_; }
  Cluster& cluster() const { return *cluster_; }

  // --- statistics -----------------------------------------------------
  std::uint64_t transfer_count() const { return transfer_count_; }
  std::uint64_t bytes_moved() const { return bytes_moved_; }
  /// Time transfers spent waiting for a NIC, in seconds; the contention the
  /// pull scheduler is meant to suppress.
  const util::OnlineStats& contention_wait() const { return contention_; }

 private:
  friend class Transfer;

  Cluster* cluster_;
  NetworkConfig cfg_;
  std::uint64_t transfer_count_ = 0;
  std::uint64_t bytes_moved_ = 0;
  util::OnlineStats contention_;
};

/// One transfer's await sequence, stepped from the caller's own coroutine
/// frame: `Transfer x(net, src, dst, bytes); while (!x.done()) co_await x;`.
/// Network::transfer runs it in a frame of its own and Bus::post inline, so
/// a message pays for one pooled frame, not two. Each co_await is one step:
/// the sender NIC; the receiver NIC, then a contention sample if the clock
/// moved; the wire time; release ingress, then egress, and wait the
/// propagation latency. Co-located endpoints wait the message overhead alone.
class Transfer {
 public:
  Transfer(Network& net, NodeId src, NodeId dst, std::uint64_t bytes)
      : net_(&net), src_(src), dst_(dst), bytes_(bytes),
        requested_(net.cluster().sim().now()),
        step_(src == dst ? kLocal : kEgress) {
    ++net.transfer_count_;
    net.bytes_moved_ += bytes;
  }
  bool done() const { return step_ == kDone; }

  // A free NIC is taken without suspending; every delay suspends.
  bool await_ready() {
    return step_ <= kIngress && nic().acquire().await_ready();
  }
  void await_suspend(std::coroutine_handle<> h) {
    if (step_ <= kIngress) return nic().acquire().await_suspend(h);
    Cluster& c = net_->cluster();
    des::SimTime d = net_->config().message_overhead;  // kLocal
    if (step_ == kWire) {
      d = net_->wire_time(bytes_);
    } else if (step_ == kLatency) {
      c.ingress(dst_).release();
      c.egress(src_).release();
      d = net_->wire_latency(src_, dst_);
    }
    des::delay(c.sim(), d).await_suspend(h);
  }
  void await_resume() {
    // Only a contended transfer records a sample; the consumers (sum, max)
    // are unaffected and the uncontended path skips the double conversion.
    if (step_ == kIngress) {
      const des::SimTime now = net_->cluster().sim().now();
      if (now != requested_) {
        net_->contention_.add(des::to_seconds(now - requested_));
      }
    }
    step_ = step_ >= kLatency ? kDone : static_cast<Step>(step_ + 1);
  }

 private:
  enum Step { kEgress, kIngress, kWire, kLatency, kDone, kLocal };
  des::Semaphore& nic() const {
    Cluster& c = net_->cluster();
    return step_ == kEgress ? c.egress(src_) : c.ingress(dst_);
  }

  Network* net_;
  NodeId src_, dst_;
  std::uint64_t bytes_;
  des::SimTime requested_;
  Step step_;
};

}  // namespace ioc::net
