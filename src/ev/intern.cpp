#include "ev/intern.h"

#include <cassert>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace ioc::ev {

namespace {

struct SvHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct SvEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

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

struct Table {
  // Deque keeps the backing bytes pointer-stable across growth, so the
  // views handed out by type_name() never dangle.
  std::deque<std::string> strings;
  std::vector<std::string_view> views;
  std::unordered_map<std::string_view, MessageId, SvHash, SvEq> ids;

  Table() {
    add("");  // id 0 <=> unset type
    for (std::string_view s : kCanonical) add(s);
  }

  MessageId add(std::string_view s) {
    const MessageId id = static_cast<MessageId>(views.size());
    strings.emplace_back(s);
    views.push_back(strings.back());
    ids.emplace(views.back(), id);
    return id;
  }
};

Table& table() {
  static Table t;
  return t;
}

}  // namespace

MessageId intern_type(std::string_view s) {
  Table& t = table();
  auto it = t.ids.find(s);
  if (it != t.ids.end()) return it->second;
  // 16 bits is deliberate head-room policing: the control plane has a few
  // dozen type strings, so running into the cap means someone is interning
  // unbounded data (e.g. a per-instance name) as a message type.
  assert(t.views.size() < 65535 && "message-type intern table overflow");
  return t.add(s);
}

std::string_view type_name(MessageId id) {
  Table& t = table();
  if (id >= t.views.size()) return {};
  return t.views[id];
}

std::size_t type_count() { return table().views.size(); }

}  // namespace ioc::ev
