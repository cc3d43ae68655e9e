// The legal GM <-> CM control exchanges of paper Fig. 3, encoded as an
// explicit transition table over per-container-manager states. The table is
// the single source of truth for what a well-formed management conversation
// looks like: every coordinator advances one ProtocolFsm per peer
// (core::Coordinator::record; an illegal message fails IOC_CHECK in debug
// builds), and the lint trace checker replays recorded traces through the
// same table offline.
#pragma once

#include <cstddef>
#include <vector>

#include "ev/intern.h"

namespace ioc::core {

/// Where a container manager stands in the control protocol.
enum class CmState {
  kIdle,          ///< online, no management conversation in flight
  kResizing,      ///< INCREASE_REQ or DECREASE_REQ accepted, DONE pending
  kQueried,       ///< QUERY_NEEDS accepted, NEEDS reply pending
  kSwitching,     ///< SWITCH_TO_DISK accepted, acknowledgement pending
  kGoingOffline,  ///< OFFLINE_REQ accepted, final DONE pending
  kOffline,       ///< resources released; only ACTIVATE_REQ is legal
  kActivating,    ///< ACTIVATE_REQ accepted, DONE pending
};

const char* cm_state_name(CmState s);

struct CmTransition {
  CmState from;
  ev::MessageId message;  ///< protocol.h kMid* id driving the edge
  CmState to;
};

/// Every legal edge; anything absent from the table is a protocol violation.
const std::vector<CmTransition>& cm_transitions();

/// Messages legal in any state (fire-and-forget control and the metadata
/// chatter between replicas); they do not move the state machine.
bool cm_message_is_stateless(ev::MessageId message);

/// Robustness markers (protocol.h kMidMark*): trace annotations recorded by
/// the GM's retry/escalation machinery. Not messages; never advance the
/// FSM. The lint trace checker skips them when replaying (except that an
/// ESCALATE resets the container to offline and settles its node count).
bool cm_message_is_marker(ev::MessageId message);

/// The cross-shard trade markers (kMidMarkTradeBegin .. kMidMarkTradeFence).
/// Their container field names a trade ("trade#N"), not a container; the
/// lint trace checker keeps a separate open-trade ledger for them (IOC106).
bool cm_message_is_trade_marker(ev::MessageId message);

/// One container manager's protocol state, advanced message by message.
class ProtocolFsm {
 public:
  explicit ProtocolFsm(CmState initial = CmState::kIdle) : state_(initial) {}

  CmState state() const { return state_; }

  /// Force the state, bypassing the transition table. Only the escalation
  /// path uses this: fencing a container ends whatever conversation was in
  /// flight and leaves the manager offline by fiat, not by protocol.
  void reset(CmState s) { state_ = s; }

  /// Apply one message. Returns true and moves the state when the message
  /// is legal here (stateless messages are always legal and keep the
  /// state); returns false and stays put on a protocol violation.
  bool advance(ev::MessageId message);

 private:
  CmState state_;
};

}  // namespace ioc::core
