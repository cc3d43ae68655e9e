// One GM shard of a federated fleet: owns the consistent-hash slice of
// pipelines assigned to it and a private ResourcePool carved from the job's
// staging allocation, drives the Fig. 3 resize protocol against each
// pipeline with the GM's round core (core/rounds.h: retry ladder, control
// trace, FSM check, fence record), and participates in the root's
// cross-shard D2T resource trades as donor or recipient. Its policy is its
// own on purpose: it moves each pipeline's width toward the workload's
// target, where the GM's evaluate() enforces a latency SLA.
//
// Failure roles:
//  * as a coordinator, a shard that loses its own endpoints mid-round stops
//    (crashed_) without fencing healthy pipelines — the root's heartbeat
//    sweep fences the shard and fails its pipelines over to survivors;
//  * as a trade participant, it answers the root's rounds through the D2T
//    participant step of txn/d2t_model.h (the one TxnHarness and the
//    verification models run), and escrow is explicit: the donor's prepare
//    (txn::d2t_donor_prepare) escrows min(count, spares) nodes in its pool
//    under the transaction (ResourcePool::escrow, off the ledger) and
//    votes YES iff that is nonzero, and only a decision moves them onward
//    — to the recipient's pool on commit, back to the donor's on abort.
//    Live delivery and the root's recovery pass settle through one path,
//    apply_decision, fenced members included (their side lands in the
//    live heir's pool). The fleet-level conservation invariant is
//    therefore sum(pool().total() + pool().escrowed()) == constant at
//    quiesce.
//
// Resize marks: one bit per slot of pipelines_, in slot order, meaning
// "this pipeline may need a resize". Every live pipeline whose target
// differs from its width is marked: placement and adopt mark the new slot
// (FedPipeline::set_owner), and FedPipeline::set_target marks it on every
// change of target. A width moves only inside this shard's round for that
// pipeline, while its slot is marked: the pipeline's owner filter drops
// every other sender and its reply cache replays retries, so its apply
// path needs no mark. A policy tick visits the set bits in ascending slot
// order, re-reading them after each awaited round, and clears a bit only
// when its visit finds the pipeline fenced or at its target. So a tick
// serves the pipelines a walk over every slot would: one marked mid-walk
// at a higher slot (or appended by adopt) in this tick, one at a lower
// slot in the next, and one a dry pool left short in every tick until a
// trade covers it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/resources.h"
#include "core/rounds.h"
#include "des/process.h"
#include "des/time.h"
#include "ev/bus_if.h"
#include "fed/pipeline.h"
#include "fed/wire.h"
#include "trace/sink.h"
#include "txn/d2t_model.h"

namespace ioc::fed {

/// Retry ladder of the federation's control rounds: a shard's resize rounds
/// against its pipelines and the root's trade rounds against the shards.
inline constexpr ev::RoundOptions kRoundLadder{
    10 * des::kMillisecond, 3, 5 * des::kMillisecond, 40 * des::kMillisecond};

class Shard {
 public:
  struct Options {
    des::SimTime heartbeat_interval = 25 * des::kMillisecond;
    trace::TraceSink* trace = nullptr;
  };

  struct Stats {
    std::uint64_t resizes = 0;          ///< completed resize rounds
    std::uint64_t escalations = 0;      ///< pipelines fenced by this shard
    std::uint64_t trade_requests = 0;   ///< TRADE_REQs sent to the root
    std::uint64_t nodes_donated = 0;    ///< nodes committed away in trades
    std::uint64_t nodes_received = 0;   ///< nodes gained from trades
  };

  Shard(ev::BusIf& bus, std::string id, net::NodeId node,
        const std::vector<net::NodeId>& staging, Options opt);
  ~Shard();

  /// Spawn the policy / heartbeat / trade-participant loops. Call after
  /// set_root and initial pipeline placement.
  void start();

  /// Stable identity in the fleet; consistent hashing places by it.
  const std::string& manager_id() const { return id_; }
  /// The id, interned once at construction (the root's trace peer).
  util::NameId name_id() const { return name_id_; }
  /// The shard's index in the root's shard list, given by set_root.
  Slot slot() const { return slot_; }
  core::ResourcePool& pool() { return pool_; }
  /// True once the shard crashed or was fenced by the root.
  bool failed() const { return fenced_ || crashed_; }
  /// Every control message this shard exchanged with its pipelines, in
  /// order; feed it to lint::check_trace to audit a run offline.
  const std::vector<core::ControlTraceEvent>& control_trace() const {
    return rounds_.trace();
  }

  net::NodeId node() const { return node_; }
  ev::EndpointId ctl_endpoint() const { return ctl_ep_; }
  ev::EndpointId trade_endpoint() const { return trade_ep_; }
  /// Point the shard at the root's control endpoint and give it its slot.
  void set_root(ev::EndpointId root, Slot slot) {
    root_ep_ = root;
    slot_ = slot;
  }

  /// Initial placement: take ownership of `p` (no ledger movement — the
  /// pipeline starts at width 0 and converges through the protocol).
  void add_pipeline(FedPipeline* p);
  /// Failover handover: take ownership of a pipeline whose ledger nodes the
  /// root already attached to this shard's pool. Re-reconciles against the
  /// pipeline's ground truth; synchronous (no awaits), so the owner switch
  /// and the ledger snapshot are atomic in simulation time.
  void adopt(FedPipeline* p);
  const std::vector<FedPipeline*>& pipelines() const { return pipelines_; }
  /// Failover: the root takes the dead shard's pipeline list (the shard is
  /// fenced and must never touch them again).
  std::vector<FedPipeline*> release_pipelines();

  /// Root STONITH: stop all loops, close endpoints, keep state readable
  /// (pool with its escrow, guard) for the root's ledger repair and trade
  /// recovery.
  void fence();
  bool fenced() const { return fenced_; }

  /// The root's recovery settle: apply a trade decision unless the trade is
  /// already settled here (a duplicate, or the live delivery got there
  /// first): donor commit drops the escrow (the recipient attaches it),
  /// donor abort attaches it to `into` as spares, recipient commit attaches
  /// `nodes` to `into`. `into` is this shard's own pool while it is live
  /// and the live heir's once it is fenced; the live delivery makes the
  /// same move into its own pool through the participant step.
  void apply_decision(std::uint64_t txn, bool commit, bool as_donor,
                      const std::vector<net::NodeId>& nodes,
                      core::ResourcePool& into);

  /// Re-raise the exception that ended one of the shard's loops, if any.
  void rethrow_if_failed() const;

  const Stats& stats() const { return stats_; }

 private:
  /// Take `p` into the next slot, marked (the shared half of add_pipeline
  /// and adopt).
  void take(FedPipeline* p);
  /// First marked slot at or after `from`; pipelines_.size() if none.
  std::size_t next_marked(std::size_t from) const;
  /// Unmet demand across live pipelines (nodes wanted but not yet granted),
  /// summed over the marked slots: an unmarked pipeline has none.
  std::size_t unmet_demand() const;
  des::Process policy_loop();
  des::Process heartbeat_loop();
  des::Process participant_loop();
  des::Task<void> resize(FedPipeline* p, int delta);
  void escalate_fence_pipeline(FedPipeline* p);
  /// The ledger move of a trade decision (see apply_decision), run once per
  /// trade: by the participant step's first copy of the decision, or by the
  /// root's recovery settle.
  void move_decided(std::uint64_t txn, bool commit, bool as_donor,
                    const std::vector<net::NodeId>& nodes,
                    core::ResourcePool& into);

  ev::BusIf* bus_;
  std::string id_;
  util::NameId name_id_;
  net::NodeId node_;
  core::ResourcePool pool_;
  Options opt_;
  ev::EndpointId ctl_ep_ = ev::kInvalidEndpoint;
  ev::EndpointId trade_ep_ = ev::kInvalidEndpoint;
  ev::EndpointId root_ep_ = ev::kInvalidEndpoint;
  Slot slot_ = 0;
  std::vector<FedPipeline*> pipelines_;
  /// Resize marks, bit i % 64 of word i / 64 for slot i (see the top).
  std::vector<std::uint64_t> marks_;
  /// Control trace and per-pipeline Fig. 3 state, advanced together.
  core::Coordinator rounds_;
  bool fenced_ = false;
  bool crashed_ = false;
  txn::D2tMemberGuard guard_;
  ev::Message last_vote_reply_;  // replayed on retried vote requests
  Stats stats_;
  std::vector<des::Process> procs_;
};

}  // namespace ioc::fed
