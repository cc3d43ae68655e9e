// The thin root coordinator of a federated fleet. Deliberately minimal: it
// holds no resource ledger and drives no pipeline — its only jobs are
//
//  * liveness: shards heartbeat to it; a shard silent past the timeout is
//    fenced (STONITH: its endpoints close, it may never act again) and its
//    pipelines fail over to the consistent-hash survivors, ledgers repaired
//    via ResourcePool::reconcile across the shard boundary. A beat carries
//    the shard's slot in the root's shard list and its spare count, nothing
//    else, and lands in that slot's entry, so neither side's per-beat work
//    grows with pipelines or shards. The root, its ring and the trade wires
//    know a shard only by that slot;
//  * brokering cross-shard trades: a shard whose pool ran dry posts a
//    TRADE_REQ; the root serves the requesting shard with the smallest id
//    first, picks the donor with the most reported spares and drives a
//    D2T-style begin/vote/decide exchange against both shards. The root
//    settles every trade in-process immediately after its rounds,
//    through each member's own Shard::apply_decision (idempotently —
//    members that already applied the decision are no-ops, fenced ones
//    included), so an in-flight trade either completes or is fenced and
//    reclaimed: escrow can never leak past the trade's terminal marker.
//
// Every trade is bracketed in the root's control trace by TRADE_BEGIN and
// exactly one of TRADE_COMMIT / TRADE_ABORT / TRADE_FENCE (lint rule
// IOC106); failovers land as FAILOVER/REASSIGN markers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "core/rounds.h"
#include "des/process.h"
#include "des/time.h"
#include "ev/bus_if.h"
#include "fed/hash.h"
#include "fed/shard.h"
#include "trace/sink.h"

namespace ioc::fed {

class Root {
 public:
  struct Stats {
    std::uint64_t failovers = 0;
    std::uint64_t pipelines_reassigned = 0;
    std::uint64_t trades_committed = 0;
    std::uint64_t trades_aborted = 0;
    std::uint64_t trades_fenced = 0;
    std::uint64_t trades_denied = 0;
  };

  /// `trace`, if set, records the root's trade spans (caller-owned).
  Root(ev::BusIf& bus, net::NodeId node, trace::TraceSink* trace);
  ~Root();

  /// Register a shard (before start). Adds it to the consistent-hash ring
  /// and points it at the root's control endpoint and at its slot in the
  /// shard list; the list never shrinks, so the slot is stable.
  void add_shard(Shard* s);
  /// The live ring: its owner() is the slot that should own a pipeline.
  const HashRing& ring() const { return ring_; }

  void start();
  /// Stop loops and close endpoints (fleet shutdown; not a failure).
  void shutdown();

  ev::EndpointId ctl_endpoint() const { return ctl_ep_; }

  /// Fence `s` and fail its pipelines over to the surviving shards. Called
  /// by the heartbeat sweep; exposed for tests that drive failover
  /// directly. Synchronous — the ledger handover is atomic in sim time.
  void failover(Shard* s);

  const Stats& stats() const { return stats_; }
  /// Re-raise the exception that ended one of the root's loops, if any.
  void rethrow_if_failed() const;
  const std::vector<core::ControlTraceEvent>& control_trace() const {
    return rounds_.trace();
  }

 private:
  des::Process service_loop();
  des::Process sweep_loop();
  des::Process trade_loop();
  des::Task<void> run_trade(Shard* donor, Shard* recipient,
                            std::uint32_t count);
  /// Apply the decision of `txn` on `s`'s behalf whatever its state,
  /// through its own apply_decision: a live (or crashed-but-unswept)
  /// member settles into its own pool, a fenced one into its live heir's.
  void settle_member(Shard* s, std::uint64_t txn, bool commit, bool as_donor,
                     const std::vector<net::NodeId>& nodes);
  /// The live pool that inherits a fenced shard's repairs: follow the heir
  /// chain recorded at failover to the first unfenced shard.
  Shard* live_heir(Slot dead);

  ev::BusIf* bus_;
  net::NodeId node_;
  trace::TraceSink* trace_;
  ev::EndpointId ctl_ep_ = ev::kInvalidEndpoint;
  ev::EndpointId trade_ep_ = ev::kInvalidEndpoint;
  /// A registered shard, what its heartbeats and trade requests last told
  /// the root, and its heir once failed over. A beat or a request finds its
  /// entry by the slot it carries.
  struct ShardEntry {
    Shard* shard = nullptr;
    des::SimTime last_hb = 0;
    std::uint32_t spares = 0;   // last reported
    std::uint32_t wanted = 0;   // nodes its latest TRADE_REQ asked for
    Slot heir = kNoSlot;        // who adopted its spares at failover
  };
  std::vector<ShardEntry> shards_;
  HashRing ring_;
  std::uint64_t txn_counter_ = 0;
  bool stopped_ = false;
  Stats stats_;
  /// The root's control trace: FAILOVER/REASSIGN/TRADE_* markers and the
  /// trade ladder's TIMEOUT/RETRY markers.
  core::Coordinator rounds_;
  std::vector<des::Process> procs_;
};

}  // namespace ioc::fed
