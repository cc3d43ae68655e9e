#include "txn/d2t_model.h"

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

}  // namespace ioc::txn
