#include "lint/trace.h"

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/protocol_fsm.h"
#include "util/intern.h"

namespace ioc::lint {

using core::CmState;
using core::ControlTraceEvent;
using core::ProtocolFsm;

LintResult check_trace(const core::PipelineSpec& spec,
                       const std::vector<ControlTraceEvent>& trace) {
  LintResult out;
  out.source = "<trace>";

  std::map<std::string, ProtocolFsm> fsm;
  std::map<std::string, long> width;
  long total = 0;
  for (const auto& c : spec.containers) {
    fsm.emplace(c.name, ProtocolFsm(c.starts_offline ? CmState::kOffline
                                                     : CmState::kIdle));
    width[c.name] = c.starts_offline ? 0 : static_cast<long>(c.initial_nodes);
    total += width[c.name];
  }

  std::size_t index = 0;
  std::set<std::string> unknown_reported;
  // Containers with a TIMEOUT marker not yet answered by a RETRY or an
  // ESCALATE, remembered with the event index of the dangling TIMEOUT.
  std::map<std::string, std::size_t> dangling_timeout;
  // Cross-shard trades (peer "trade#N") currently between their TRADE_BEGIN
  // and terminal marker, with the index of the TRADE_BEGIN; and every trade
  // id ever seen, so the trades' TIMEOUT/RETRY ladder markers are routed to
  // the dangling-timeout bookkeeping instead of IOC104.
  std::map<std::string, std::size_t> open_trades;
  std::set<std::string> trade_ids;
  for (const auto& ev : trace) {
    ++index;
    const std::string peer(util::name_of(ev.peer));
    if (core::cm_message_is_trade_marker(ev.type)) {
      // A trade is a bracket: TRADE_BEGIN opens it, exactly one of
      // COMMIT / ABORT / FENCE closes it (and answers any timeout the
      // trade's rounds left dangling — a fence IS the recovery).
      trade_ids.insert(peer);
      if (ev.type == core::kMidMarkTradeBegin) {
        open_trades.emplace(peer, index);
      } else {
        open_trades.erase(peer);
        dangling_timeout.erase(peer);
      }
      continue;
    }
    if (trade_ids.count(peer) > 0) {
      // Retry-ladder markers of a trade's rounds; same TIMEOUT discipline
      // as container rounds, settled by the trade's terminal marker.
      if (ev.type == core::kMidMarkTimeout) {
        dangling_timeout.emplace(peer, index);
      } else {
        dangling_timeout.erase(peer);
      }
      continue;
    }
    if (ev.type == core::kMidMarkFailover ||
        ev.type == core::kMidMarkReassign) {
      // Fleet annotations: the peer is a shard or a pipeline of the
      // federation, not a spec container.
      continue;
    }
    auto it = fsm.find(peer);
    if (it == fsm.end()) {
      if (unknown_reported.insert(peer).second) {
        out.add("IOC104", Severity::kWarning, peer, "",
                static_cast<int>(index),
                "trace references a container the spec does not declare");
      }
      continue;
    }
    ProtocolFsm& m = it->second;
    if (core::cm_message_is_marker(ev.type)) {
      // Robustness markers annotate the trace; they are not protocol
      // messages and never advance the FSM. An ESCALATE settles the fenced
      // container: whatever it owned (including a grant still in flight,
      // which this ledger may not have seen) went back to the spare pool.
      if (ev.type == core::kMidMarkTimeout) {
        dangling_timeout.emplace(peer, index);
      } else {
        dangling_timeout.erase(peer);
        if (ev.type == core::kMidMarkEscalate) {
          total -= width[peer];
          width[peer] = 0;
          m.reset(CmState::kOffline);
        }
      }
      continue;
    }
    const CmState before = m.state();
    if (!m.advance(ev.type)) {
      std::ostringstream msg;
      msg << "message " << ev::type_name(ev.type) << " is illegal in state "
          << core::cm_state_name(before) << " (trace event #" << index << ")";
      out.add("IOC101", Severity::kError, peer, "",
              static_cast<int>(index), msg.str());
      continue;  // do not cascade follow-on errors from a corrupt event
    }
    if (!ev.to_cm && ev.delta != 0) {
      width[peer] += ev.delta;
      total += ev.delta;
      if (width[peer] < 0) {
        std::ostringstream msg;
        msg << "cumulative resize deltas drive the container to "
            << width[peer] << " nodes (trace event #" << index << ")";
        out.add("IOC103", Severity::kError, peer, "",
                static_cast<int>(index), msg.str());
      } else if (total > static_cast<long>(spec.staging_nodes)) {
        std::ostringstream msg;
        msg << "container widths sum to " << total
            << " nodes, above the staging allocation of "
            << spec.staging_nodes << " (trace event #" << index << ")";
        out.add("IOC103", Severity::kError, peer, "",
                static_cast<int>(index), msg.str());
      }
    }
  }

  for (const auto& [name, m] : fsm) {
    const CmState s = m.state();
    if (s == CmState::kIdle || s == CmState::kOffline) continue;
    out.add("IOC102", Severity::kError, name, "",
            static_cast<int>(trace.size()),
            std::string("trace ends with the container manager in state ") +
                core::cm_state_name(s) + " — a request never got its reply");
  }
  for (const auto& [name, at] : dangling_timeout) {
    out.add("IOC105", Severity::kError, name, "", static_cast<int>(at),
            "control round timed out with no matching RETRY or ESCALATE — "
            "the manager gave up on the round without recovering it");
  }
  for (const auto& [name, at] : open_trades) {
    out.add("IOC106", Severity::kError, name, "", static_cast<int>(at),
            "cross-shard trade begun but never committed, aborted, or "
            "fenced — its escrowed nodes are counted by no ledger");
  }
  out.sort();
  return out;
}

}  // namespace ioc::lint
