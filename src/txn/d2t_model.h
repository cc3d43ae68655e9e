// The D2T round structure as an explicit transition model, shared between
// both trade engines (the harness in txn/d2t.cpp, the federation shard in
// fed/shard.cpp) and the model checker (src/verify) the same way
// core/protocol_fsm.h is shared between the GlobalManager and the lint
// trace replayer: one place says which reply types answer each round
// request and how the round's token is derived, and one participant step
// (d2t_step) answers every round request, with one member guard and one
// donor prepare, so the implementation and the verifier can never drift
// apart silently.
//
// Token scheme (the at-most-once machinery hangs off it): every transaction
// draws a base token `kTokenFloor + kTokensPerTxn * txn_counter`, and round
// `p` of that transaction uses `base + p`. Because kTokensPerTxn is larger
// than the number of phases, `token / kTokensPerTxn` recovers the
// transaction id from any round token — the comparison the member-side
// dedupe guards use to tell "retry of this round" from "stale traffic of an
// earlier transaction". Tokens are strictly monotone across transactions,
// which is what makes O(1) per-member guards (latest voted/decided token)
// sufficient: anything older than the recorded token is by construction a
// duplicate or stale, so the guards never need to grow with history.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "ev/intern.h"

namespace ioc::txn {

// Round messages (coordinator -> member).
inline constexpr const char* kBeginMsg = "TXN_BEGIN";
inline constexpr const char* kVoteMsg = "TXN_VOTE";
inline constexpr const char* kCommitMsg = "TXN_COMMIT";
inline constexpr const char* kAbortMsg = "TXN_ABORT";
// Replies (member -> coordinator).
inline constexpr const char* kBegunReply = "TXN_BEGUN";
inline constexpr const char* kVoteYesReply = "TXN_VOTE_YES";
inline constexpr const char* kVoteNoReply = "TXN_VOTE_NO";
inline constexpr const char* kFinalReply = "TXN_FINAL";
// Internal gather-deadline marker (never crosses the bus).
inline constexpr const char* kTimeoutMsg = "__txn_timeout__";

// Interned ids of the round vocabulary — what the runtime harness and the
// federation participant loops actually dispatch on.
inline const ev::MessageId kMidBegin = ev::intern_type(kBeginMsg);
inline const ev::MessageId kMidVote = ev::intern_type(kVoteMsg);
inline const ev::MessageId kMidCommit = ev::intern_type(kCommitMsg);
inline const ev::MessageId kMidAbort = ev::intern_type(kAbortMsg);
inline const ev::MessageId kMidBegun = ev::intern_type(kBegunReply);
inline const ev::MessageId kMidVoteYes = ev::intern_type(kVoteYesReply);
inline const ev::MessageId kMidVoteNo = ev::intern_type(kVoteNoReply);
inline const ev::MessageId kMidFinal = ev::intern_type(kFinalReply);
inline const ev::MessageId kMidTimeout = ev::intern_type(kTimeoutMsg);

/// Token block per transaction; must exceed the highest phase offset.
inline constexpr std::uint64_t kTokensPerTxn = 10;
/// First token block (keeps txn tokens disjoint from control-round tokens).
inline constexpr std::uint64_t kTokenFloor = 1000;

/// Phase offsets of the three rounds within a transaction's block.
inline constexpr std::uint64_t kPhaseBegin = 0;
inline constexpr std::uint64_t kPhaseVote = 1;
inline constexpr std::uint64_t kPhaseDecide = 2;
/// Per-member token bases of a two-member trade whose coordinator runs
/// each member's rounds on their own (fed::Root; verify::FedModel models
/// it): the donor's rounds use offsets base + phase from kDonorBase, the
/// recipient's from kRecipientBase. The tokens are disjoint, so a delayed
/// duplicate of one member's reply can never complete the other's round.
inline constexpr std::uint64_t kDonorBase = 0;
inline constexpr std::uint64_t kRecipientBase = 3;

/// True for TXN_COMMIT / TXN_ABORT.
inline bool d2t_is_decision(ev::MessageId type) {
  return type == kMidCommit || type == kMidAbort;
}

/// True iff `reply` legally answers the round message `sent` — the gather
/// loop's reply filter: BEGUN answers a begin, VOTE_YES or VOTE_NO a vote,
/// FINAL either spelling of the decision.
inline bool d2t_reply_matches(ev::MessageId sent, ev::MessageId reply) {
  if (sent == kMidBegin) return reply == kMidBegun;
  if (sent == kMidVote) return reply == kMidVoteYes || reply == kMidVoteNo;
  return d2t_is_decision(sent) && reply == kMidFinal;
}

/// Round token of phase `phase` in the transaction numbered `txn` (1-based).
inline std::uint64_t d2t_token(std::uint64_t txn, std::uint64_t phase) {
  return kTokenFloor + kTokensPerTxn * txn + phase;
}

/// Transaction id a round token belongs to. Tokens below the floor (the
/// guards' zero-initialized state, control-round tokens) map to txn 0,
/// below every real 1-based transaction — so "nothing decided yet" never
/// classifies as stale against a live transaction.
inline std::uint64_t d2t_txn_of(std::uint64_t token) {
  if (token < kTokenFloor) return 0;
  return (token - kTokenFloor) / kTokensPerTxn;
}

/// One participant's at-most-once state, shared by every D2T participant
/// role — a trade member inside the harness, a federation shard answering
/// the root's cross-shard trade rounds, and both verification models. The
/// guards are O(1) scalars, not per-txn maps: token monotonicity (above)
/// means the latest voted/decided token subsumes all history, so a soak of
/// millions of transactions keeps participant state constant-size. Only
/// d2t_step (below) and a coordinator's recovery settle touch it.
struct D2tMemberGuard {
  std::uint64_t voted_token = 0;
  bool voted_yes = false;
  std::uint64_t decided_token = 0;

  /// True iff transaction `txn` is settled here — the one decision rule. A
  /// coordinator that serializes its transactions and settles each one —
  /// live, or by its recovery pass — before starting the next leaves every
  /// transaction at or below the recorded decision settled, so applying a
  /// late duplicate would move nodes a second time, and preparing for a
  /// late vote request would reserve state nobody commits or rolls back.
  bool settled(std::uint64_t txn) const {
    return txn <= d2t_txn_of(decided_token);
  }
  /// Record `txn` as settled. Forward-only: a decided_token that regressed
  /// would re-open an older transaction's at-most-once window.
  void settle(std::uint64_t txn) {
    decided_token = std::max(decided_token, d2t_token(txn, kPhaseDecide));
  }
};

/// What a participant does with one round request, as d2t_step decides it.
/// The caller keeps its payloads and ledger moves: it answers with a reply
/// of type `reply` (or re-sends its recorded vote reply when `replay` is
/// set) and applies the decision when `apply` is set.
struct D2tStep {
  /// TXN_BEGUN, TXN_VOTE_YES / TXN_VOTE_NO or TXN_FINAL; kNoMessageId for
  /// a message that is no round request (nothing to answer).
  ev::MessageId reply = ev::kNoMessageId;
  /// A retried or duplicated vote request: `reply` is the recorded vote.
  bool replay = false;
  /// The first copy of the decision of a transaction not yet settled here:
  /// apply it now. The guard already records the transaction as settled.
  bool apply = false;
};

/// The participant step, written once for TxnHarness's trade members,
/// fed::Shard and the verification models:
///  * begin changes no state: every copy is acked;
///  * a vote request for a settled transaction gets NO without preparing;
///    a retry of the recorded vote replays it; a first request runs
///    `prepare()`, which returns the vote, and records it;
///  * a decision is applied once, by the first copy that finds its
///    transaction unsettled; every copy is acked.
template <class Prepare>
D2tStep d2t_step(D2tMemberGuard& guard, ev::MessageId type,
                 std::uint64_t token, Prepare&& prepare) {
  D2tStep step;
  if (type == kMidBegin) {
    step.reply = kMidBegun;
  } else if (type == kMidVote) {
    bool yes = false;
    if (!guard.settled(d2t_txn_of(token))) {
      step.replay = guard.voted_token == token;
      if (!step.replay) {
        guard.voted_yes = prepare();
        guard.voted_token = token;
      }
      yes = guard.voted_yes;
    }
    step.reply = yes ? kMidVoteYes : kMidVoteNo;
  } else if (d2t_is_decision(type)) {
    const std::uint64_t txn = d2t_txn_of(token);
    step.apply = !guard.settled(txn);
    guard.settle(txn);
    step.reply = kMidFinal;
  }
  return step;
}

/// A resource-trade donor's prepare, shared by fed::Shard and
/// verify::FedModel: escrow min(count, spares) nodes and vote YES iff that
/// is nonzero (a partial trade still serves part of the recipient's
/// demand). `escrow(n)` moves n spares into the trade's escrow.
template <class Escrow>
bool d2t_donor_prepare(std::size_t count, std::size_t spares,
                       Escrow&& escrow) {
  const std::size_t n = std::min(count, spares);
  if (n == 0) return false;
  escrow(n);
  return true;
}

}  // namespace ioc::txn
