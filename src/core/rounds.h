// One Fig. 3 control round, both sides of it, for every coordinator in the
// tree — the single GM driving its containers, a federation shard driving
// its pipelines, the federation root driving a cross-shard trade.
//
// Coordinator side:
//   * Coordinator::run_round climbs the retry ladder (ev::RoundOptions; each
//     "retry or give up" is ev::ladder_step, the pure step the model
//     checker also calls): one token for the whole round (the receiver's
//     ReplyCache recognizes a resend and replays its answer), TIMEOUT/RETRY
//     markers and spans as the ladder climbs, capped exponential backoff
//     between attempts, and a terminal error the caller escalates on;
//   * Coordinator owns the bookkeeping around it: the control trace the lint
//     replayer audits, the per-peer ProtocolFsm check, robustness markers,
//     and the fence record of an escalation. open() and close() bracket a
//     round; they are plain functions, so a round costs no extra coroutine
//     frame.
//
// The driver never escalates itself: fencing a container, a pipeline, or a
// trade means different repairs (pool reclaim, failover, escrow recovery),
// so the caller keeps that rung. run_round returns:
//   * a real reply            — the round completed;
//   * ev::kErrClosed          — the caller's own endpoint died mid-round
//                               (the coordinator crashed, not the peer);
//   * ev::kErrTimeout /
//     ev::kErrUnreachable     — retries exhausted or the peer's endpoint is
//                               gone; the caller escalates/fences.
// round_end() sorts those three for the caller.
//
// CM side: ReplyCache, below.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "core/protocol_fsm.h"
#include "core/resources.h"
#include "des/process.h"
#include "des/time.h"
#include "ev/bus_if.h"
#include "trace/sink.h"

namespace ioc::core {

/// How a round ended, from the coordinator's point of view.
enum class RoundEnd {
  kReply,      ///< a real reply: record it and act on it
  kSelfDied,   ///< our own endpoint closed: stop, fence nobody
  kEscalate,   ///< peer silent past the ladder or gone: fence it
};
RoundEnd round_end(const ev::Message& reply);

/// The coordinator's record of its control rounds: control trace, per-peer
/// Fig. 3 state, and markers. Every entry is stamped with the bus clock.
class Coordinator {
 public:
  /// `owner` names the coordinator in diagnostics ("gm", "shard s3");
  /// `sink` receives the ladder's spans (may be null).
  Coordinator(ev::BusIf& bus, std::string owner, trace::TraceSink* sink)
      : bus_(&bus), owner_(std::move(owner)), sink_(sink) {}
  // The rounds it runs point back at it.
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Start checking `peer`'s conversation from state `s`. A peer already
  /// tracked keeps its state.
  void track(util::NameId peer, CmState s) {
    fsm_.emplace(peer, ProtocolFsm(s));
  }
  /// Fig. 3 state of `peer` (kIdle when untracked).
  CmState state(util::NameId peer) const;

  /// Append a protocol message to the trace and advance the peer's FSM; an
  /// illegal message fails IOC_CHECK in debug builds.
  void record(util::NameId peer, ev::MessageId type, bool to_cm, int delta);
  /// Append a robustness marker (TIMEOUT, ESCALATE, TRADE_*, ...). Markers
  /// never touch the FSM.
  void marker(util::NameId peer, ev::MessageId marker, int delta = 0);

  /// Open a round to `peer`: record `m` as sent and give it a fresh token.
  void open(util::NameId peer, ev::Message& m);
  /// Drive one control round from `from` to `to`, logging its markers and
  /// spans against `peer`. `m.token` must already be assigned (one token
  /// for the whole round, retries included).
  des::Task<ev::Message> run_round(util::NameId peer, ev::EndpointId from,
                                   ev::EndpointId to, ev::Message m,
                                   const ev::RoundOptions& opt);
  /// Record a real reply; returns the node delta its DONE carries (0 for
  /// any other reply).
  int close(util::NameId peer, const ev::Message& reply);

  /// The fence record of an escalation: reclaim everything `pool` booked to
  /// `peer`, append ESCALATE with the freed count, and leave the peer
  /// offline. Returns the number of nodes freed. The caller fences the peer
  /// itself first and does its own repair after.
  std::size_t fence(util::NameId peer, ResourcePool& pool);

  const std::vector<ControlTraceEvent>& trace() const { return trace_; }

 private:
  void append(util::NameId peer, ev::MessageId type, bool to_cm, int delta);

  ev::BusIf* bus_;
  std::string owner_;
  trace::TraceSink* sink_;
  std::vector<ControlTraceEvent> trace_;
  /// The tracked peers' Fig. 3 state. A map, not a vector indexed by the
  /// process-wide id, which would need an "untracked" state.
  std::map<util::NameId, ProtocolFsm> fsm_;
};

/// A container manager's bounded reply cache. Replies to mutating requests
/// (INCREASE, DECREASE, OFFLINE, ACTIVATE) with a nonzero token are kept,
/// newest 64, so a resend or a duplicate of a request already executed gets
/// the recorded answer instead of running twice. The bound covers every
/// resend a coordinator can make: it drives one round at a time per peer,
/// and a round's resends all fall inside its ladder.
class ReplyCache {
 public:
  /// The recorded reply to `request`, or null when it is new (or not
  /// cacheable).
  const ev::Message* find(const ev::Message& request) const;
  /// Record `reply` as the answer to `request` (no-op unless cacheable).
  void store(const ev::Message& request, const ev::Message& reply);

 private:
  static constexpr std::size_t kCapacity = 64;
  std::vector<std::pair<std::uint64_t, ev::Message>> entries_;  // oldest first
};

}  // namespace ioc::core
