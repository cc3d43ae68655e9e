#include "txn/d2t_model.h"

#include <algorithm>

namespace ioc::txn {

const D2tRound* d2t_rounds(std::size_t* count) {
  // Execution order of TxnHarness::run(): begin (phase 0), vote (phase 1),
  // decide (phase 2; commit and abort are the two request spellings of the
  // same round and share its token).
  static const D2tRound kRounds[] = {
      {kBeginMsg, kBegunReply, nullptr, 0},
      {kVoteMsg, kVoteYesReply, kVoteNoReply, 1},
      {kCommitMsg, kFinalReply, nullptr, 2},
      {kAbortMsg, kFinalReply, nullptr, 2},
  };
  if (count != nullptr) *count = sizeof(kRounds) / sizeof(kRounds[0]);
  return kRounds;
}

bool d2t_reply_matches(ev::MessageId sent, ev::MessageId reply) {
  std::size_t n = 0;
  const D2tRound* rounds = d2t_rounds(&n);
  for (std::size_t i = 0; i < n; ++i) {
    if (sent != rounds[i].request_id()) continue;
    if (reply == ev::intern_type(rounds[i].reply_a)) return true;
    return rounds[i].reply_b != nullptr &&
           reply == ev::intern_type(rounds[i].reply_b);
  }
  return false;
}

D2tMemberGuard::VoteAction D2tMemberGuard::classify_vote(
    std::uint64_t token) const {
  if (d2t_txn_of(decided_token) >= d2t_txn_of(token)) {
    // A delayed vote request for a transaction that already decided:
    // preparing now would reserve state nobody will ever commit or roll
    // back. Vote no without preparing.
    return VoteAction::kStaleNo;
  }
  if (voted_token == token) return VoteAction::kReplay;
  return VoteAction::kFresh;
}

void D2tMemberGuard::record_vote(std::uint64_t token, bool yes) {
  voted_token = token;
  voted_yes = yes;
}

D2tMemberGuard::DecideAction D2tMemberGuard::classify_decision(
    std::uint64_t token) const {
  if (d2t_txn_of(voted_token) != d2t_txn_of(token)) {
    // Decision for a transaction this member never voted in — a delayed
    // duplicate from an earlier trade, or the member missed the vote round
    // entirely. Applying it would commit/abort the WRONG trade's
    // reservation; ack without touching state (the coordinator's recovery
    // pass applies the logged decision where needed).
    return DecideAction::kAckOnly;
  }
  if (decided_token == token) return DecideAction::kAckOnly;  // duplicate
  return DecideAction::kApply;
}

void D2tMemberGuard::record_decision(std::uint64_t token) {
  // decided_token can only move forward — the vote classifier already
  // rejects anything from an older transaction.
  decided_token = std::max(decided_token, token);
}

}  // namespace ioc::txn
