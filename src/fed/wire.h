// On-the-wire vocabulary of the federation layer. Shard <-> pipeline resize
// rounds reuse the Fig. 3 protocol of core/protocol.h verbatim; the shard
// <-> root plane adds heartbeats, trade requests, and the D2T trade rounds
// of txn/d2t_model.h carrying the payloads below.
#pragma once

#include <cstdint>
#include <vector>

#include "ev/intern.h"
#include "ev/payload.h"
#include "fed/hash.h"
#include "net/cluster.h"

namespace ioc::fed {

/// Shard -> root, monitoring class, fire-and-forget liveness report. The
/// type string is core::kMsgHeartbeat. One wire message per shard per beat
/// interval, carrying only what the root reads: who is alive, and the
/// spares its trade loop picks donors by. Filling it reads none of the
/// shard's pipelines, so both the message count (O(shards)) and the cost
/// of a beat stay independent of pipelines per shard (16 shards x 2048
/// pipelines = 16 heartbeats per round).
struct HeartbeatWire {
  Slot slot = 0;             ///< the sending shard
  std::uint32_t spares = 0;  ///< spare staging nodes in the shard's pool
};

/// Shard -> root, control class, fire-and-forget: "my pool ran dry, find me
/// a donor". The root serializes these into cross-shard D2T trades.
inline constexpr const char* kMsgTradeReq = "TRADE_REQ";
inline const ev::MessageId kMidTradeReq = ev::intern_type(kMsgTradeReq);
struct TradeRequestWire {
  Slot recipient = 0;        ///< the requesting shard
  std::uint32_t count = 0;   ///< nodes wanted (the root may trade fewer)
};

/// Root <-> shard trade-round payload (txn::kBeginMsg / kVoteMsg /
/// kCommitMsg / kAbortMsg requests and their replies). The donor's VOTE_YES
/// reply carries the escrowed nodes; the COMMIT request echoes them so the
/// recipient knows what to attach. It fits the payload's inline slot, so a
/// trade message allocates only for a non-empty node list.
struct TradeWire {
  std::uint64_t txn = 0;
  Slot donor = 0;
  Slot recipient = 0;
  std::uint32_t count = 0;
  std::vector<net::NodeId> nodes;
};
static_assert(sizeof(TradeWire) <= ev::Payload::kInlineBytes);

}  // namespace ioc::fed
