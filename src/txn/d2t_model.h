// The D2T round structure as an explicit transition model, shared between
// the runtime harness (txn/d2t.cpp) and the model checker (src/verify) the
// same way core/protocol_fsm.h is shared between the GlobalManager and the
// lint trace replayer: one table describes which request message each round
// sends, which reply types answer it, and how the round's token is derived,
// so the implementation and the verifier can never drift apart silently.
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

/// One gather round of the D2T protocol: the request the coordinator fans
/// out, the replies that legally answer it, and the phase offset added to
/// the transaction's base token.
struct D2tRound {
  const char* request;      ///< coordinator -> member message type
  const char* reply_a;      ///< legal reply type
  const char* reply_b;      ///< alternate legal reply (nullptr = none)
  std::uint64_t phase;      ///< token offset within the txn's block

  ev::MessageId request_id() const { return ev::intern_type(request); }
};

/// The three rounds, in execution order: begin, vote, decide. The decide
/// round appears twice (commit and abort are alternative request types of
/// the same round — same phase offset, same reply).
const D2tRound* d2t_rounds(std::size_t* count);

/// True iff `reply` is a legal reply type for a `sent` round message —
/// derived from the table, used by the gather loop's reply filter.
bool d2t_reply_matches(ev::MessageId sent, ev::MessageId reply);

/// True for TXN_COMMIT / TXN_ABORT.
inline bool d2t_is_decision(ev::MessageId type) {
  return type == kMidCommit || type == kMidAbort;
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

/// One participant's at-most-once state, extracted from the TxnHarness
/// member loop so every D2T participant role — a trade member inside the
/// harness, a federation shard answering the root's cross-shard trade
/// rounds — classifies retried, duplicated, and stale round traffic
/// identically. The guards are O(1) scalars, not per-txn maps: token
/// monotonicity (above) means the latest voted/decided token subsumes all
/// history, so a soak of millions of transactions keeps participant state
/// constant-size.
struct D2tMemberGuard {
  std::uint64_t voted_token = 0;
  bool voted_yes = false;
  std::uint64_t decided_token = 0;

  enum class VoteAction {
    kStaleNo,  ///< vote for a txn that already decided: NO, do not prepare
    kReplay,   ///< retried/duplicated vote: replay the recorded answer
    kFresh,    ///< first sight: run prepare, then record_vote()
  };
  VoteAction classify_vote(std::uint64_t token) const;
  void record_vote(std::uint64_t token, bool yes);

  enum class DecideAction {
    kAckOnly,  ///< wrong txn (never voted in it) or duplicate: re-ack only
    kApply,    ///< first sight of this decision: apply, then record
  };
  DecideAction classify_decision(std::uint64_t token) const;
  /// Forward-only: also used by coordinator recovery when it applies a
  /// logged decision on a silent participant's behalf.
  void record_decision(std::uint64_t token);

  /// True iff transaction `txn` is settled here. A coordinator that
  /// serializes its transactions and settles each one — live, or by its
  /// recovery pass — before starting the next (fed::Root) leaves every
  /// transaction at or below the recorded decision settled, so applying a
  /// late duplicate would move nodes a second time.
  bool settled(std::uint64_t txn) const {
    return txn <= d2t_txn_of(decided_token);
  }
  /// Record `txn` as settled (forward-only, like record_decision).
  void settle(std::uint64_t txn) {
    record_decision(d2t_token(txn, kPhaseDecide));
  }
};

}  // namespace ioc::txn
