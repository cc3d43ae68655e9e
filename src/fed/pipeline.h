// A fleet-scale pipeline endpoint: the container-manager face of one
// analytics pipeline, reduced to what the federation control plane needs.
// Where core::Container models a full container (components, DataTap
// streams, metadata exchange), FedPipeline models only the Fig. 3 resize
// conversation — apply an INCREASE/DECREASE after a fixed delay, reply
// DONE — so a fleet of thousands of pipelines stays cheap enough to
// chaos-soak.
//
// Robustness:
//  * core::ReplyCache, the same bounded cache core::Container keeps: a
//    retried or duplicated round request replays the recorded answer
//    instead of resizing twice (at-most-once);
//  * an owner filter: only the shard currently owning this pipeline may
//    drive it, checked when a request arrives and again once its apply
//    delay has passed. Failover re-points the owner atomically (in sim
//    time) with the ledger reconcile, so a resize a dead shard launched
//    before it was fenced either lands before the handover (and reconcile
//    sees it) or is dropped here, even mid-apply — it can never mutate
//    width after the new owner took a ground-truth snapshot.
//
// Resize marks: the owner keeps one bit per slot of its pipeline list, and
// its policy tick visits only the set bits. The invariant is that every live
// pipeline whose target differs from its width is marked. set_owner marks
// the pipeline's slot and set_target marks it on every change of target.
// The apply path of service_loop needs no mark: a width moves only inside
// the owning shard's round for this pipeline, whose slot is marked until a
// later visit finds it at its target, because the owner filter drops every
// other sender and the reply cache replays a retried request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rounds.h"
#include "des/process.h"
#include "des/time.h"
#include "ev/bus_if.h"
#include "net/cluster.h"
#include "util/intern.h"

namespace ioc::fed {

class FedPipeline {
 public:
  FedPipeline(ev::BusIf& bus, net::NodeId node, std::string name);
  ~FedPipeline();

  const std::string& name() const { return name_; }
  /// The name, interned once at construction (its shard's trace peer).
  util::NameId name_id() const { return name_id_; }
  ev::EndpointId endpoint() const { return ep_; }
  std::size_t width() const { return nodes_.size(); }
  /// Ground truth for ResourcePool::reconcile after a failover.
  const std::vector<net::NodeId>& nodes() const { return nodes_; }
  bool fenced() const { return fenced_; }
  /// Optional observer bumped exactly once when the pipeline transitions to
  /// fenced. The fleet workload keeps its demand-cap sum incremental and
  /// uses this tick to know when a full rebuild is due — without it, every
  /// raise attempt rescans all pipelines, which dominates wall time at
  /// thousands of pipelines.
  void set_fence_tick(std::uint64_t* tick) { fence_tick_ = tick; }

  /// Only control requests from `ep` are honored. Set at placement and on
  /// every failover handover (Shard::adopt), with the owner's resize marks
  /// and this pipeline's slot in them; marks the slot.
  void set_owner(ev::EndpointId ep, std::vector<std::uint64_t>& marks,
                 std::size_t slot);

  /// Workload demand. Restamps the resize clock when it changes the gap
  /// between demand and width; the clock stops (and a latency sample is
  /// recorded) when width converges to the target. A changed target marks
  /// the pipeline's slot in its owner's resize marks.
  void set_target(std::size_t n);
  std::size_t target() const { return target_; }

  /// STONITH from the control plane: stop answering, drop all nodes. The
  /// owning shard reclaims the ledger side.
  void fence();

  /// Demand-to-convergence latencies (virtual time), one sample per
  /// converged demand change — the resize-SLA distribution the fleet bench
  /// reports as p99.
  const std::vector<des::SimTime>& resize_latencies() const {
    return resize_latencies_;
  }
  std::uint64_t resizes_applied() const { return resizes_applied_; }
  std::uint64_t stale_owner_drops() const { return stale_owner_drops_; }

 private:
  des::Process service_loop();
  void note_converged();
  void mark() {
    (*owner_marks_)[slot_ / 64] |= std::uint64_t{1} << slot_ % 64;
  }
  /// True, counted in stale_owner_drops_, when `m` is not from the owner.
  bool drop_if_stale(const ev::Message& m);

  ev::BusIf* bus_;
  std::string name_;
  util::NameId name_id_;
  ev::EndpointId ep_ = ev::kInvalidEndpoint;
  ev::EndpointId owner_ep_ = ev::kInvalidEndpoint;
  std::vector<std::uint64_t>* owner_marks_ = nullptr;  ///< null until placed
  std::size_t slot_ = 0;  ///< index into the owner's pipeline list
  std::vector<net::NodeId> nodes_;
  std::size_t target_ = 0;
  bool fenced_ = false;
  std::uint64_t* fence_tick_ = nullptr;
  des::SimTime demand_since_ = -1;  // -1: no unmet demand outstanding
  std::vector<des::SimTime> resize_latencies_;
  std::uint64_t resizes_applied_ = 0;
  std::uint64_t stale_owner_drops_ = 0;
  core::ReplyCache replay_;
  des::Process proc_;
};

}  // namespace ioc::fed
