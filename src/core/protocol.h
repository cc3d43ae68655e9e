// Control-protocol vocabulary between the global manager, container
// managers, and component executables, plus the per-phase timing breakdown
// the microbenchmarks report (paper Figs. 3-5).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "des/time.h"
#include "ev/intern.h"
#include "net/cluster.h"
#include "util/intern.h"

namespace ioc::core {

// Message types (paper Fig. 3 exchanges).
inline constexpr const char* kMsgIncrease = "INCREASE_REQ";
inline constexpr const char* kMsgDecrease = "DECREASE_REQ";
inline constexpr const char* kMsgOffline = "OFFLINE_REQ";
inline constexpr const char* kMsgQueryNeeds = "QUERY_NEEDS";
inline constexpr const char* kMsgSwitchToDisk = "SWITCH_TO_DISK";
inline constexpr const char* kMsgActivate = "ACTIVATE_REQ";
inline constexpr const char* kMsgDone = "DONE";
inline constexpr const char* kMsgNeeds = "NEEDS";
inline constexpr const char* kMsgReplicaHello = "REPLICA_HELLO";
inline constexpr const char* kMsgReplicaConfig = "REPLICA_CONFIG";
inline constexpr const char* kMsgEndpointUpdate = "ENDPOINT_UPDATE";
inline constexpr const char* kMsgMetric = "METRIC";
inline constexpr const char* kMsgEnableHashes = "ENABLE_HASHES";
/// CM -> GM liveness probe (monitoring class); a failed send is how a
/// container detects a dead global manager and triggers failover.
inline constexpr const char* kMsgHeartbeat = "HEARTBEAT";

// Interned ids of the message types above (ev/intern.h): dispatch sites
// compare these u16s instead of strings; Message::type() still yields the
// exact spelling for logs and trace replay.
inline const ev::MessageId kMidIncrease = ev::intern_type(kMsgIncrease);
inline const ev::MessageId kMidDecrease = ev::intern_type(kMsgDecrease);
inline const ev::MessageId kMidOffline = ev::intern_type(kMsgOffline);
inline const ev::MessageId kMidQueryNeeds = ev::intern_type(kMsgQueryNeeds);
inline const ev::MessageId kMidSwitchToDisk = ev::intern_type(kMsgSwitchToDisk);
inline const ev::MessageId kMidActivate = ev::intern_type(kMsgActivate);
inline const ev::MessageId kMidDone = ev::intern_type(kMsgDone);
inline const ev::MessageId kMidNeeds = ev::intern_type(kMsgNeeds);
inline const ev::MessageId kMidReplicaHello = ev::intern_type(kMsgReplicaHello);
inline const ev::MessageId kMidReplicaConfig =
    ev::intern_type(kMsgReplicaConfig);
inline const ev::MessageId kMidEndpointUpdate =
    ev::intern_type(kMsgEndpointUpdate);
inline const ev::MessageId kMidMetric = ev::intern_type(kMsgMetric);
inline const ev::MessageId kMidEnableHashes =
    ev::intern_type(kMsgEnableHashes);
inline const ev::MessageId kMidHeartbeat = ev::intern_type(kMsgHeartbeat);

// Robustness markers in the control trace (docs/ROBUSTNESS.md). They are
// annotations, not protocol messages: they never advance the Fig. 3 FSM.
// The lint trace checker understands them (and rule IOC105 demands that a
// TIMEOUT is followed by a RETRY or an ESCALATE for the same container).
inline constexpr const char* kMarkTimeout = "TIMEOUT";
inline constexpr const char* kMarkRetry = "RETRY";
inline constexpr const char* kMarkEscalate = "ESCALATE";

// Federation markers (src/fed). FAILOVER/REASSIGN record a shard fenced by
// the root and a pipeline moved to its consistent-hash successor; the
// TRADE_* family brackets a cross-shard resource trade (peer "trade#N").
// Every TRADE_BEGIN must reach exactly one of COMMIT / ABORT / FENCE — rule
// IOC106 flags a trade that never terminates, because an unterminated trade
// is exactly an escrow that can leak.
inline constexpr const char* kMarkFailover = "FAILOVER";
inline constexpr const char* kMarkReassign = "REASSIGN";
inline constexpr const char* kMarkTradeBegin = "TRADE_BEGIN";
inline constexpr const char* kMarkTradeCommit = "TRADE_COMMIT";
inline constexpr const char* kMarkTradeAbort = "TRADE_ABORT";
inline constexpr const char* kMarkTradeFence = "TRADE_FENCE";
// Their interned ids: the only form the control trace and the FSM hold.
inline const ev::MessageId kMidMarkTimeout = ev::intern_type(kMarkTimeout);
inline const ev::MessageId kMidMarkRetry = ev::intern_type(kMarkRetry);
inline const ev::MessageId kMidMarkEscalate = ev::intern_type(kMarkEscalate);
inline const ev::MessageId kMidMarkFailover = ev::intern_type(kMarkFailover);
inline const ev::MessageId kMidMarkReassign = ev::intern_type(kMarkReassign);
inline const ev::MessageId kMidMarkTradeBegin =
    ev::intern_type(kMarkTradeBegin);
inline const ev::MessageId kMidMarkTradeCommit =
    ev::intern_type(kMarkTradeCommit);
inline const ev::MessageId kMidMarkTradeAbort =
    ev::intern_type(kMarkTradeAbort);
inline const ev::MessageId kMidMarkTradeFence =
    ev::intern_type(kMarkTradeFence);

/// Synthetic reply the GM returns from a control round that ended in the
/// container being fenced (retries exhausted / unreachable). Distinct from
/// the bus-level ERROR/* types: the pool has already been repaired, so the
/// caller must NOT reclaim the nodes it granted for the round.
inline constexpr const char* kErrFenced = "ERROR/fenced";
inline const ev::MessageId kMidErrFenced = ev::intern_type(kErrFenced);

/// Where the time of a management operation went. Fig. 4 reports increase
/// cost with aprun factored out and shows metadata exchange dominating;
/// Fig. 5 shows decrease dominated by waiting for upstream DataTap writers
/// to pause.
struct ProtocolReport {
  std::string action;     // "increase" / "decrease" / "offline" / "activate"
  std::string container;
  int delta = 0;          // nodes added (+) or removed (-)
  des::SimTime total = 0;
  des::SimTime gm_cm_messaging = 0;   // GM <-> CM point-to-point rounds
  des::SimTime aprun = 0;             // batch-launch cost (factored out)
  des::SimTime metadata_exchange = 0; // intra-container contact exchanges
  des::SimTime pause_wait = 0;        // upstream writer pause/drain
  des::SimTime endpoint_update = 0;   // re-pointing upstream writers
  des::SimTime state_migration = 0;   // stateful components: moving state
  std::uint64_t metadata_messages = 0;
  bool ok = true;

  des::SimTime total_without_aprun() const { return total - aprun; }
};

/// Payloads carried inside ev::Message::payload.
struct IncreasePayload {
  std::vector<net::NodeId> nodes;
};
struct DecreasePayload {
  std::uint32_t count = 0;
};
struct DonePayload {
  ProtocolReport report;
  std::vector<net::NodeId> freed_nodes;
};
struct NeedsPayload {
  std::uint32_t extra_nodes = 0;   // what the container wants
  double predicted_latency = 0;    // with the extra nodes granted
};
struct EnableHashesPayload {
  bool enabled = true;
};
struct SwitchToDiskPayload {
  std::string provenance;  // analytics already applied to the data
  std::string pending;     // analytics still owed to the data
};

/// One control-plane message as observed at the global manager: a request
/// on its way to a container manager, or the terminating reply. The GM
/// appends these to an always-on trace; the lint trace checker replays the
/// trace through the Fig. 3 state machine (protocol_fsm.h) to audit
/// protocol legality and node-count conservation after the fact. The peer
/// is an interned name (a container, a pipeline, a shard or "trade#N"), so
/// an entry owns nothing; util::name_of resolves it where it is printed.
struct ControlTraceEvent {
  des::SimTime at = 0;
  util::NameId peer = util::kEmptyName;
  ev::MessageId type = ev::kNoMessageId;  ///< kMidIncrease, kMidDone, ...
  bool to_cm = true;  ///< true: GM -> CM request; false: CM -> GM reply
  int delta = 0;      ///< node delta carried by a DONE reply
};
static_assert(std::is_trivially_copyable_v<ControlTraceEvent> &&
                  sizeof(ControlTraceEvent) <= 24,
              "a control-trace entry is a 24-byte value");

/// One entry of the global manager's action log; benches and examples print
/// these to show what management did and why.
struct ManagementEvent {
  des::SimTime at = 0;
  std::string action;
  std::string container;
  std::string reason;
  int delta = 0;
  ProtocolReport report;
};

}  // namespace ioc::core
