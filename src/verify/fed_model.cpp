#include "verify/fed_model.h"

#include <sstream>
#include <utility>

namespace ioc::verify {

namespace {

constexpr char kTradeId[] = "trade#1";
/// The one trade the model runs is transaction 1 of the root's counter.
constexpr std::uint64_t kTxn = 1;
constexpr std::size_t kDonor = 0;

const char* member_name(std::size_t m) {
  return m == kDonor ? "donor" : "recipient";
}

const char* round_name(std::size_t r) {
  return r == kVoteRound ? "vote" : "decide";
}

/// The token fed::Root puts on member `m`'s round of phase `phase`.
std::uint64_t member_token(std::size_t m, std::uint64_t phase) {
  const std::uint64_t base = m == kDonor ? txn::kDonorBase
                                         : txn::kRecipientBase;
  return txn::d2t_token(kTxn, base + phase);
}

}  // namespace

std::string FedState::encode() const {
  std::string out;
  out.reserve(32);
  const auto put = [&out](int v) { out.push_back(static_cast<char>(v)); };
  put(donor_spares);
  put(recipient_spares);
  put(escrow);
  put(phase);
  put((commit ? 1 : 0) | (fenced ? 2 : 0));
  put(retries);
  for (std::size_t m = 0; m < kFedMembers; ++m) {
    // A member's guard only ever holds this trade's tokens, so whether a
    // vote and a decision are recorded is all the key needs of them.
    const txn::D2tMemberGuard& g = guard[m];
    put((crashed[m] ? 1 : 0) | (g.voted_token != 0 ? 2 : 0) |
        (g.voted_yes ? 4 : 0) | (g.decided_token != 0 ? 8 : 0) |
        (answered[m] ? 16 : 0));
    for (std::size_t r = 0; r < kFedRounds; ++r) {
      put(req_in[m][r]);
      put(rep_in[m][r]);
    }
  }
  put(drops);
  put(dups);
  put(crashes);
  return out;
}

FedState FedModel::initial() const {
  FedState s;
  s.donor_spares = static_cast<std::int8_t>(scenario_.donor_spares);
  s.recipient_spares = static_cast<std::int8_t>(scenario_.recipient_spares);
  s.phase = static_cast<std::uint8_t>(FedPhase::kIdle);
  return s;
}

void FedModel::emit(Step* step, ev::MessageId type, int delta) const {
  if (step == nullptr) return;
  step->events.push_back({0, util::intern(kTradeId), type, false, delta});
}

void FedModel::enabled(const FedState& s, std::vector<Action>* out) const {
  out->clear();
  const auto phase = static_cast<FedPhase>(s.phase);
  if (phase == FedPhase::kIdle) {
    out->push_back({ActionKind::kStartTxn, 0});
    return;
  }
  // Wire actions: every in-flight copy can be delivered, and dropped or
  // amplified while budget remains.
  for (std::size_t m = 0; m < kFedMembers; ++m) {
    for (std::size_t r = 0; r < kFedRounds; ++r) {
      const auto t = static_cast<std::uint8_t>(m * kFedRounds + r);
      if (s.req_in[m][r] > 0) {
        out->push_back({ActionKind::kDeliverTreq, t});
        if (s.drops < scenario_.faults.drops)
          out->push_back({ActionKind::kDropTreq, t});
        if (s.dups < scenario_.faults.dups && s.req_in[m][r] < 2)
          out->push_back({ActionKind::kDupTreq, t});
      }
      if (s.rep_in[m][r] > 0) {
        out->push_back({ActionKind::kDeliverTrep, t});
        if (s.drops < scenario_.faults.drops)
          out->push_back({ActionKind::kDropTrep, t});
        if (s.dups < scenario_.faults.dups && s.rep_in[m][r] < 2)
          out->push_back({ActionKind::kDupTrep, t});
      }
    }
  }
  if (phase == FedPhase::kVote || phase == FedPhase::kDecide) {
    // The gather deadline fires only for a member with nothing in flight —
    // message lost or member dead — modeling deadlines long against the
    // wire latency (same discipline as verify/model.h).
    const std::size_t r =
        phase == FedPhase::kVote ? kVoteRound : kDecideRound;
    for (std::size_t m = 0; m < kFedMembers; ++m) {
      if (!s.answered[m] && s.req_in[m][r] == 0 && s.rep_in[m][r] == 0) {
        out->push_back({ActionKind::kTxnTimeout, 0});
        break;
      }
    }
    for (std::size_t m = 0; m < kFedMembers; ++m) {
      if (!s.crashed[m] && s.crashes < scenario_.faults.crashes)
        out->push_back({ActionKind::kCrash, static_cast<std::uint8_t>(m)});
    }
  }
}

void FedModel::move_decided(FedState& st, std::size_t m) const {
  // fed::Shard::move_decided: on commit the recipient attaches the escrowed
  // nodes (the donor just drops its escrow entry); on abort the donor takes
  // them back. Either way the amount is what the donor escrowed.
  if (st.commit == (m == kDonor)) return;
  std::int8_t& pool = m == kDonor ? st.donor_spares : st.recipient_spares;
  pool = static_cast<std::int8_t>(pool + st.escrow);
  st.escrow = 0;
}

void FedModel::settle(FedState& st, Step* step) const {
  // The root's in-process recovery pass (fed::Root::run_trade): repair the
  // ledger side of every member that never applied the decision, mark both
  // settled so late deliveries are recognized as duplicates, and emit the
  // trade's terminal marker. Under the leak_escrow mutation a fenced trade
  // skips the donor-side repair and the marker — the seeded IOC106 bug.
  const bool leak = scenario_.leak_escrow && st.fenced;
  for (std::size_t m = 0; m < kFedMembers; ++m) {
    txn::D2tMemberGuard& g = st.guard[m];
    if (g.settled(kTxn)) continue;
    g.settle(kTxn);
    if (!(leak && m == kDonor)) move_decided(st, m);
  }
  if (!leak) {
    // A committed trade moved the donor's escrow into the recipient's pool;
    // like fed::Root::run_trade, every terminal marker of a committed trade
    // carries that amount, TRADE_FENCE included.
    const int moved = st.recipient_spares - scenario_.recipient_spares;
    emit(step,
         st.fenced ? core::kMidMarkTradeFence
                   : (st.commit ? core::kMidMarkTradeCommit
                                : core::kMidMarkTradeAbort),
         st.commit ? moved : 0);
  }
  st.phase = static_cast<std::uint8_t>(FedPhase::kDone);
}

FedState FedModel::apply(const FedState& s, const Action& a,
                         Step* step) const {
  FedState st = s;
  const std::size_t m = a.target / kFedRounds;
  const std::size_t r = a.target % kFedRounds;
  const int count = scenario_.count;
  std::ostringstream label;

  switch (a.kind) {
    case ActionKind::kStartTxn: {
      st.phase = static_cast<std::uint8_t>(FedPhase::kVote);
      st.retries = static_cast<std::int8_t>(scenario_.retries);
      for (std::size_t i = 0; i < kFedMembers; ++i)
        st.req_in[i][kVoteRound] = 1;
      emit(step, core::kMidMarkTradeBegin, count);
      label << "root opens the trade, vote requests to both shards";
      break;
    }
    case ActionKind::kDeliverTreq:
    case ActionKind::kDupTreq: {
      if (a.kind == ActionKind::kDeliverTreq) {
        --st.req_in[m][r];
      } else {
        ++st.dups;  // delivers one copy, leaves the original in flight
      }
      label << "deliver " << round_name(r) << " request to "
            << member_name(m);
      if (a.kind == ActionKind::kDupTreq) label << " (duplicate)";
      if (st.crashed[m]) {
        label << " [lost: crashed]";
        break;
      }
      // fed::Shard::participant_loop on the same step and guard, with the
      // same donor prepare.
      const ev::MessageId type =
          r == kVoteRound ? txn::kMidVote
                          : (st.commit ? txn::kMidCommit : txn::kMidAbort);
      const std::uint64_t phase =
          r == kVoteRound ? txn::kPhaseVote : txn::kPhaseDecide;
      bool prepared = false;
      const txn::D2tStep ds = txn::d2t_step(
          st.guard[m], type, member_token(m, phase), [&] {
            prepared = true;
            if (m != kDonor) return true;
            return txn::d2t_donor_prepare(
                static_cast<std::size_t>(count),
                static_cast<std::size_t>(st.donor_spares),
                [&st](std::size_t n) {
                  // ResourcePool::escrow(txn, "", n) at the donor shard: the
                  // step prepares once per trade, so the trade's escrow
                  // entry goes from empty to the n nodes set aside.
                  st.donor_spares = static_cast<std::int8_t>(
                      st.donor_spares - static_cast<int>(n));
                  st.escrow = static_cast<std::int8_t>(n);
                });
          });
      if (r == kVoteRound) {
        if (ds.replay) {
          label << " -> replayed vote";  // the recorded answer again
        } else if (!prepared) {
          // The trade already settled here: NO, and crucially no new
          // escrow.
          label << " -> stale NO";
        } else if (ds.reply == txn::kMidVoteNo) {
          label << " -> NO (pool dry)";
        } else if (m == kDonor) {
          label << " -> YES, " << int(st.escrow) << " node(s) escrowed";
        } else {
          label << " -> YES";
        }
      } else if (ds.apply) {
        move_decided(st, m);
        label << " -> applied " << (st.commit ? "COMMIT" : "ABORT");
      } else {
        label << " -> duplicate decision, ack only";
      }
      ++st.rep_in[m][r];
      break;
    }
    case ActionKind::kDropTreq: {
      --st.req_in[m][r];
      ++st.drops;
      label << "drop " << round_name(r) << " request to " << member_name(m);
      break;
    }
    case ActionKind::kDeliverTrep:
    case ActionKind::kDupTrep: {
      if (a.kind == ActionKind::kDeliverTrep) {
        --st.rep_in[m][r];
      } else {
        ++st.dups;
      }
      label << "deliver " << round_name(r) << " reply from "
            << member_name(m);
      if (a.kind == ActionKind::kDupTrep) label << " (duplicate)";
      const auto phase = static_cast<FedPhase>(st.phase);
      const std::size_t gather_round =
          phase == FedPhase::kVote ? kVoteRound : kDecideRound;
      const bool gathering =
          phase == FedPhase::kVote || phase == FedPhase::kDecide;
      if (!gathering || r != gather_round || st.answered[m]) {
        label << " [stale, ignored]";
        break;
      }
      st.answered[m] = true;
      if (st.answered[0] && st.answered[1]) {
        if (phase == FedPhase::kVote) {
          st.commit = st.guard[0].voted_yes && st.guard[1].voted_yes;
          st.phase = static_cast<std::uint8_t>(FedPhase::kDecide);
          st.retries = static_cast<std::int8_t>(scenario_.retries);
          st.answered[0] = st.answered[1] = false;
          for (std::size_t i = 0; i < kFedMembers; ++i)
            st.req_in[i][kDecideRound] = 1;
          label << "; votes in, decision "
                << (st.commit ? "COMMIT" : "ABORT")
                << ", decide requests out";
        } else {
          label << "; decide acks in, trade settles";
          settle(st, step);
        }
      }
      break;
    }
    case ActionKind::kDropTrep: {
      --st.rep_in[m][r];
      ++st.drops;
      label << "drop " << round_name(r) << " reply from " << member_name(m);
      break;
    }
    case ActionKind::kTxnTimeout: {
      const auto phase = static_cast<FedPhase>(st.phase);
      const std::size_t gr =
          phase == FedPhase::kVote ? kVoteRound : kDecideRound;
      emit(step, core::kMidMarkTimeout, 0);
      if (ladder_resends(scenario_.retries, st.retries)) {
        --st.retries;
        emit(step, core::kMidMarkRetry, 0);
        label << round_name(gr) << " gather timeout, resend to unanswered";
        for (std::size_t i = 0; i < kFedMembers; ++i) {
          if (!st.answered[i] && st.req_in[i][gr] == 0 &&
              st.rep_in[i][gr] == 0) {
            st.req_in[i][gr] = 1;
          }
        }
      } else {
        label << round_name(gr)
              << " gather exhausted its ladder, trade fenced";
        st.fenced = true;
        if (phase == FedPhase::kVote) st.commit = false;
        settle(st, step);
      }
      break;
    }
    case ActionKind::kCrash: {
      st.crashed[a.target] = true;
      ++st.crashes;
      label << "crash " << member_name(a.target) << " shard";
      break;
    }
    default:
      break;  // control-plane kinds: not part of this model
  }

  if (step != nullptr) step->label = label.str();
  return st;
}

std::optional<Violation> FedModel::check(const FedState& s) const {
  const int total =
      s.donor_spares + s.recipient_spares + s.escrow;
  if (total != scenario_.total_nodes() || s.donor_spares < 0 ||
      s.recipient_spares < 0 || s.escrow < 0) {
    std::ostringstream msg;
    msg << "ledger off: donor=" << int(s.donor_spares)
        << " recipient=" << int(s.recipient_spares)
        << " escrow=" << int(s.escrow) << ", expected total "
        << scenario_.total_nodes();
    return Violation{Property::kConservation, msg.str()};
  }
  return std::nullopt;
}

std::optional<Violation> FedModel::stuck(const FedState& s) const {
  if (static_cast<FedPhase>(s.phase) != FedPhase::kDone) {
    return Violation{Property::kStuck,
                     "trade quiesced without reaching a decision"};
  }
  if (s.escrow != 0) {
    std::ostringstream msg;
    msg << int(s.escrow)
        << " node(s) left in escrow at quiescence — counted by no "
           "shard's ledger (the IOC106 invariant)";
    return Violation{Property::kOrphanEscrow, msg.str()};
  }
  return std::nullopt;
}

}  // namespace ioc::verify
