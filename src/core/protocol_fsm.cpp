#include "core/protocol_fsm.h"

#include "core/protocol.h"

namespace ioc::core {

const char* cm_state_name(CmState s) {
  switch (s) {
    case CmState::kIdle:
      return "idle";
    case CmState::kResizing:
      return "resizing";
    case CmState::kQueried:
      return "queried";
    case CmState::kSwitching:
      return "switching-to-disk";
    case CmState::kGoingOffline:
      return "going-offline";
    case CmState::kOffline:
      return "offline";
    case CmState::kActivating:
      return "activating";
  }
  return "?";
}

const std::vector<CmTransition>& cm_transitions() {
  // Fig. 3: every management conversation is a request the CM accepts only
  // when idle (or offline, for activation), followed by exactly one
  // terminating reply.
  static const std::vector<CmTransition> kTable = {
      {CmState::kIdle, kMidIncrease, CmState::kResizing},
      {CmState::kIdle, kMidDecrease, CmState::kResizing},
      {CmState::kResizing, kMidDone, CmState::kIdle},
      {CmState::kIdle, kMidQueryNeeds, CmState::kQueried},
      {CmState::kQueried, kMidNeeds, CmState::kIdle},
      {CmState::kIdle, kMidSwitchToDisk, CmState::kSwitching},
      {CmState::kSwitching, kMidDone, CmState::kIdle},
      {CmState::kIdle, kMidOffline, CmState::kGoingOffline},
      {CmState::kGoingOffline, kMidDone, CmState::kOffline},
      {CmState::kOffline, kMidActivate, CmState::kActivating},
      {CmState::kActivating, kMidDone, CmState::kIdle},
  };
  return kTable;
}

bool cm_message_is_stateless(ev::MessageId message) {
  return message == kMidEnableHashes || message == kMidMetric ||
         message == kMidReplicaHello || message == kMidReplicaConfig ||
         message == kMidEndpointUpdate;
}

bool cm_message_is_marker(ev::MessageId message) {
  return message == kMidMarkTimeout || message == kMidMarkRetry ||
         message == kMidMarkEscalate || message == kMidMarkFailover ||
         message == kMidMarkReassign || cm_message_is_trade_marker(message);
}

bool cm_message_is_trade_marker(ev::MessageId message) {
  return message == kMidMarkTradeBegin || message == kMidMarkTradeCommit ||
         message == kMidMarkTradeAbort || message == kMidMarkTradeFence;
}

bool ProtocolFsm::advance(ev::MessageId message) {
  if (cm_message_is_stateless(message)) return true;
  for (const auto& t : cm_transitions()) {
    if (t.from == state_ && message == t.message) {
      state_ = t.to;
      return true;
    }
  }
  return false;
}

}  // namespace ioc::core
