#include "ev/intern.h"

#include <cassert>

#include "util/intern.h"

namespace ioc::ev {

namespace {

// The canonical control-plane vocabulary, preregistered in this fixed order
// so every binary assigns the same ids no matter which TU interns first.
// These literals intentionally duplicate the kMsg*/kErr*/kMark*/txn constants
// in ev/bus.h, core/protocol.h, txn/d2t_model.h and fed/wire.h — the
// intern-fidelity test (tests/intern_test.cpp) asserts each constant
// round-trips byte-identically, so drift fails CI rather than skewing ids.
constexpr std::string_view kCanonical[] = {
    // bus synthetic replies
    "ERROR/unreachable", "ERROR/closed", "ERROR/timeout",
    // core protocol (Fig. 3)
    "INCREASE_REQ", "DECREASE_REQ", "OFFLINE_REQ", "QUERY_NEEDS",
    "SWITCH_TO_DISK", "ACTIVATE_REQ", "DONE", "NEEDS", "REPLICA_HELLO",
    "REPLICA_CONFIG", "ENDPOINT_UPDATE", "METRIC", "ENABLE_HASHES",
    "HEARTBEAT", "ERROR/fenced",
    // D2T transaction rounds
    "TXN_BEGIN", "TXN_VOTE", "TXN_COMMIT", "TXN_ABORT", "TXN_BEGUN",
    "TXN_VOTE_YES", "TXN_VOTE_NO", "TXN_FINAL", "__txn_timeout__",
    // federation wire
    "TRADE_REQ",
    // control-trace markers
    "TIMEOUT", "RETRY", "ESCALATE", "FAILOVER", "REASSIGN", "TRADE_BEGIN",
    "TRADE_COMMIT", "TRADE_ABORT", "TRADE_FENCE",
};

struct Table : util::InternTable<MessageId> {
  Table() {
    for (std::string_view s : kCanonical) add(s);
  }
};

Table& table() {
  static Table t;
  return t;
}

}  // namespace

MessageId intern_type(std::string_view s) {
  auto& t = table();
  if (const auto id = t.find(s)) return *id;
  // 16 bits is deliberate head-room policing: the control plane has a few
  // dozen type strings, so running into the cap means someone is interning
  // unbounded data (e.g. a per-instance name) as a message type.
  assert(t.size() < 65535 && "message-type intern table overflow");
  return t.add(s);
}

std::string_view type_name(MessageId id) { return table().name(id); }

std::size_t type_count() { return table().size(); }

}  // namespace ioc::ev
