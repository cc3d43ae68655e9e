#include "verify/model.h"

#include <algorithm>
#include <sstream>

#include "ev/bus_if.h"
#include "txn/d2t_model.h"

namespace ioc::verify {

using core::CmState;

namespace {

// Round tags, in the wire order of txn/d2t_model.h.
constexpr std::size_t kBegin = 0;
constexpr std::size_t kVote = 1;
constexpr std::size_t kDecide = 2;

constexpr std::size_t kDonor = 0;
constexpr std::size_t kRecipient = 1;
/// The one trade the model runs is transaction 1 of the harness's counter.
constexpr std::uint64_t kTxn = 1;

ev::MessageId round_request(const State& s, std::size_t round) {
  switch (round) {
    case kBegin:
      return txn::kMidBegin;
    case kVote:
      return txn::kMidVote;
    default:
      return s.commit ? txn::kMidCommit : txn::kMidAbort;
  }
}

void append(std::string* out, const void* p, std::size_t n) {
  out->append(static_cast<const char*>(p), n);
}

}  // namespace

bool ladder_resends(int retries, int left) {
  ev::RoundOptions ladder;
  ladder.retries = retries;
  return ev::ladder_step(ladder, retries - left, /*peer_gone=*/false)
      .has_value();
}

int Scenario::total_nodes() const {
  int demand = 0;
  for (const auto& c : containers) demand += c.width;
  return staging_nodes > demand ? staging_nodes : demand;
}

Scenario Scenario::two_container() {
  Scenario s;
  s.containers.push_back({"bonds", 2, true});
  s.containers.push_back({"csym", 2, true});
  return s;
}

Scenario Scenario::from_spec(const core::PipelineSpec& spec,
                             std::size_t max_containers) {
  Scenario s;
  max_containers = std::min(max_containers, kMaxContainers);
  for (const auto& c : spec.containers) {
    if (s.containers.size() >= max_containers) break;
    if (c.starts_offline) continue;  // dormant stages run no conversation
    s.containers.push_back(
        {c.name, static_cast<int>(c.initial_nodes), true});
  }
  s.staging_nodes = static_cast<int>(spec.staging_nodes);
  s.trade = s.containers.size() >= kMembers && s.containers[0].width > 0;
  return s;
}

const char* action_name(ActionKind k) {
  switch (k) {
    case ActionKind::kStartConv:
      return "start-conversation";
    case ActionKind::kDeliverReq:
      return "deliver-request";
    case ActionKind::kDropReq:
      return "drop-request";
    case ActionKind::kDupReq:
      return "duplicate-request";
    case ActionKind::kDeliverRep:
      return "deliver-reply";
    case ActionKind::kDropRep:
      return "drop-reply";
    case ActionKind::kDupRep:
      return "duplicate-reply";
    case ActionKind::kCmTimeout:
      return "conversation-timeout";
    case ActionKind::kStaleTimeout:
      return "stale-timeout";
    case ActionKind::kCrash:
      return "crash";
    case ActionKind::kStartTxn:
      return "start-transaction";
    case ActionKind::kDeliverTreq:
      return "deliver-round-request";
    case ActionKind::kDropTreq:
      return "drop-round-request";
    case ActionKind::kDupTreq:
      return "duplicate-round-request";
    case ActionKind::kDeliverTrep:
      return "deliver-round-reply";
    case ActionKind::kDropTrep:
      return "drop-round-reply";
    case ActionKind::kDupTrep:
      return "duplicate-round-reply";
    case ActionKind::kTxnTimeout:
      return "round-timeout";
  }
  return "?";
}

const char* property_name(Property p) {
  switch (p) {
    case Property::kConservation:
      return "conservation";
    case Property::kAtMostOnce:
      return "at-most-once";
    case Property::kFenceResurrect:
      return "fence-resurrect";
    case Property::kTimeoutOrphan:
      return "timeout-orphan";
    case Property::kStuck:
      return "stuck";
    case Property::kOrphanEscrow:
      return "orphan-escrow";
  }
  return "?";
}

std::string State::encode(std::size_t n) const {
  std::string out;
  out.reserve(16 * n + 32);
  for (std::size_t c = 0; c < n; ++c) {
    const std::uint8_t flags =
        static_cast<std::uint8_t>((fenced[c] << 0) | (crashed[c] << 1) |
                                  (timeout_pending[c] << 2) |
                                  (stale_timer[c] << 3));
    append(&out, &fsm[c], 1);
    append(&out, &width[c], 1);
    append(&out, &flags, 1);
    append(&out, &conv[c], 1);
    append(&out, &conv_retries[c], 1);
    append(&out, &req_in[c], 1);
    append(&out, &rep_in[c], 1);
  }
  append(&out, &txn_phase, 1);
  append(&out, &round_retries, 1);
  // A member's guard only ever holds this trade's tokens, so whether a vote
  // and a decision are recorded is all the key needs of it.
  std::uint8_t tflags = static_cast<std::uint8_t>((escalated << 0) |
                                                  (commit << 1));
  std::uint8_t tflags2 = 0;
  for (std::size_t m = 0; m < kMembers; ++m) {
    const txn::D2tMemberGuard& g = guard[m];
    tflags = static_cast<std::uint8_t>(tflags | (answered[m] << (2 + m)) |
                                       ((g.voted_token != 0) << (4 + m)));
    tflags2 = static_cast<std::uint8_t>(tflags2 | (g.voted_yes << m) |
                                        ((g.decided_token != 0) << (2 + m)));
    append(&out, treq_in[m], kTxnRounds);
    append(&out, trep_in[m], kTxnRounds);
  }
  append(&out, &tflags, 1);
  append(&out, &tflags2, 1);
  append(&out, &pending, 1);
  append(&out, &yes_count, 1);
  append(&out, prepare_count, kMembers);
  append(&out, apply_count, kMembers);
  append(&out, &spares, 1);
  append(&out, &escrow, 1);
  append(&out, &drops, 1);
  append(&out, &dups, 1);
  append(&out, &crashes, 1);
  return out;
}

Model::Model(Scenario s) : scenario_(std::move(s)) {
  total_ = scenario_.total_nodes();
}

State Model::initial() const {
  State s;
  const std::size_t n = num_containers();
  int demand = 0;
  for (std::size_t c = 0; c < n; ++c) {
    s.fsm[c] = static_cast<std::uint8_t>(CmState::kIdle);
    s.width[c] = static_cast<std::int8_t>(scenario_.containers[c].width);
    s.conv[c] = static_cast<std::uint8_t>(
        scenario_.containers[c].query ? Conv::kPending : Conv::kNone);
    s.conv_retries[c] = static_cast<std::int8_t>(scenario_.cm_retries);
    demand += scenario_.containers[c].width;
  }
  s.spares = static_cast<std::int8_t>(total_ - demand);
  s.txn_phase = static_cast<std::uint8_t>(scenario_.trade ? TxnPhase::kIdle
                                                          : TxnPhase::kNever);
  return s;
}

bool Model::emit_ok(const State& s, std::size_t c) const {
  // A trade-side resize round with a container only happens (and therefore
  // only appears in the control trace) when its manager is reachable and
  // idle; the ledger move itself is GM-local and never waits. Skipping the
  // events of an unreachable/busy endpoint can only under-count a width in
  // the replay, never over-count it, so replayed clean traces stay clean.
  return s.fsm[c] == static_cast<std::uint8_t>(CmState::kIdle) &&
         !s.fenced[c] && !s.crashed[c];
}

void Model::emit_event(std::size_t c, ev::MessageId type, bool to_cm,
                       int delta, Step* step) const {
  if (step == nullptr) return;
  step->events.push_back({0, util::intern(scenario_.containers[c].name),
                          type, to_cm, delta});
}

void Model::emit_pair(State& st, std::size_t c, ev::MessageId req, int delta,
                      Step* step) const {
  if (!emit_ok(st, c)) return;
  core::ProtocolFsm fsm(static_cast<CmState>(st.fsm[c]));
  // Drive the real Fig. 3 table; if the table ever stops accepting this
  // exchange the model diverges visibly instead of silently.
  if (!fsm.advance(req)) return;
  emit_event(c, req, true, 0, step);
  fsm.advance(core::kMidDone);
  emit_event(c, core::kMidDone, false, delta, step);
  st.fsm[c] = static_cast<std::uint8_t>(fsm.state());
  if (scenario_.bugs.stale_timeout) {
    // Bug model: the round's deadline timer is never cancelled when the
    // round completes; it stays armed and can fire into a later
    // conversation on the same container.
    st.stale_timer[c] = true;
  }
}

void Model::fence(State& st, std::size_t c, Step* step) const {
  emit_event(c, core::kMidMarkEscalate, true, 0, step);
  st.spares = static_cast<std::int8_t>(st.spares + st.width[c]);
  st.width[c] = 0;
  st.fenced[c] = true;
  st.fsm[c] = static_cast<std::uint8_t>(CmState::kOffline);
  if (st.conv[c] == static_cast<std::uint8_t>(Conv::kAwaiting) ||
      st.conv[c] == static_cast<std::uint8_t>(Conv::kPending)) {
    st.conv[c] = static_cast<std::uint8_t>(Conv::kDone);
  }
  st.timeout_pending[c] = false;
}

void Model::start_round(State& st, TxnPhase phase, Step* step) const {
  st.txn_phase = static_cast<std::uint8_t>(phase);
  st.round_retries = static_cast<std::int8_t>(scenario_.txn_retries);
  st.pending = kMembers;
  const std::size_t round = static_cast<std::size_t>(phase) -
                            static_cast<std::size_t>(TxnPhase::kBegin);
  for (std::size_t m = 0; m < kMembers; ++m) {
    st.answered[m] = false;
    ++st.treq_in[m][round];
  }
  if (step != nullptr) {
    step->label += std::string(" -> round ") +
                   std::string(ev::type_name(round_request(st, round)));
  }
}

void Model::apply_decision(State& st, std::size_t m, Step* step) const {
  if (st.commit) {
    if (m == kRecipient) {
      // Escrow -> recipient (trade.cpp RecipientTradeOp::commit). A missing
      // escrow node means the donor never prepared: the grant manufactures
      // a node and conservation breaks — exactly the double-counted-vote
      // failure the checker exists to catch.
      if (st.escrow > 0) --st.escrow;
      if (st.fenced[kRecipient]) {
        ++st.spares;  // grant to a fenced container is reclaimed, not applied
      } else {
        emit_pair(st, kRecipient, core::kMidIncrease, +1, step);
        ++st.width[kRecipient];
      }
    }
    // Donor commit: the escrowed node is gone for good; nothing to move.
  } else {
    if (m == kDonor && st.guard[kDonor].voted_yes) {
      // Escrow -> donor restore (DonorTradeOp::abort).
      if (st.escrow > 0) --st.escrow;
      if (st.fenced[kDonor]) {
        ++st.spares;  // restoring to a fenced donor repairs the pool instead
      } else {
        emit_pair(st, kDonor, core::kMidIncrease, +1, step);
        ++st.width[kDonor];
      }
    }
  }
}

void Model::finish_txn(State& st, Step* step) const {
  // Sub-coordinator recovery (TxnHarness::run's recovery pass): the
  // decision is pushed through for every member that never applied it, and
  // settling the guards makes stale round traffic get refused from now on.
  for (std::size_t m = 0; m < kMembers; ++m) {
    if (st.guard[m].settled(kTxn)) continue;
    st.guard[m].settle(kTxn);
    ++st.apply_count[m];
    apply_decision(st, m, step);
  }
  st.txn_phase = static_cast<std::uint8_t>(TxnPhase::kDone);
  st.pending = 0;
}

bool Model::prepare(State& st, std::size_t m, Step* step) const {
  if (m != kDonor) {
    ++st.prepare_count[kRecipient];  // recipient prepare is a no-op
    return true;
  }
  if (st.width[kDonor] <= 0) return false;
  // DonorTradeOp::prepare — donor -> escrow.
  ++st.prepare_count[kDonor];
  emit_pair(st, kDonor, core::kMidDecrease, -1, step);
  --st.width[kDonor];
  ++st.escrow;
  return true;
}

void Model::deliver_member(State& st, std::size_t m, std::size_t round,
                           Step* step) const {
  --st.treq_in[m][round];
  if (st.crashed[m] || st.fenced[m]) return;  // endpoint gone: message lost
  // The runtime's participant step on TxnHarness's token of this round
  // (the round tag is the phase offset): begin acks, a vote prepares at
  // most once (a stale one gets NO), a decision applies at most once.
  const txn::D2tStep s = txn::d2t_step(
      st.guard[m], round_request(st, round),
      txn::d2t_token(kTxn, round), [&] { return prepare(st, m, step); });
  if (s.apply) {
    ++st.apply_count[m];
    apply_decision(st, m, step);
  }
  ++st.trep_in[m][round];
}

void Model::gather(State& st, std::size_t m, std::size_t round,
                   Step* step) const {
  --st.trep_in[m][round];
  const std::size_t current =
      static_cast<std::size_t>(st.txn_phase) -
      static_cast<std::size_t>(TxnPhase::kBegin);
  if (st.txn_phase < static_cast<std::uint8_t>(TxnPhase::kBegin) ||
      st.txn_phase > static_cast<std::uint8_t>(TxnPhase::kDecide) ||
      round != current) {
    return;  // reply token belongs to another round: filtered
  }
  if (scenario_.bugs.shared_token) {
    // Bug model: the gather counts every matching reply without asking which
    // member it came from, so a duplicated reply completes the round (and,
    // in the vote round, double-counts a YES).
    if (st.pending > 0) --st.pending;
    st.answered[m] = true;
    if (round == kVote && st.guard[m].voted_yes) ++st.yes_count;
  } else {
    if (st.answered[m]) return;  // per-member dedupe: duplicate ignored
    st.answered[m] = true;
    --st.pending;
    if (round == kVote && st.guard[m].voted_yes) ++st.yes_count;
  }
  if (st.pending != 0) return;
  switch (round) {
    case kBegin:
      start_round(st, TxnPhase::kVote, step);
      break;
    case kVote:
      st.commit = (st.yes_count == kMembers);
      start_round(st, TxnPhase::kDecide, step);
      break;
    default:
      finish_txn(st, step);
      break;
  }
}

void Model::enabled(const State& s, std::vector<Action>* out) const {
  out->clear();
  const std::size_t n = num_containers();
  const auto push = [out](ActionKind k, std::size_t t) {
    out->push_back({k, static_cast<std::uint8_t>(t)});
  };
  const bool can_drop = s.drops < scenario_.faults.drops;
  const bool can_dup = s.dups < scenario_.faults.dups;
  for (std::size_t c = 0; c < n; ++c) {
    if (s.conv[c] == static_cast<std::uint8_t>(Conv::kPending) &&
        s.fsm[c] == static_cast<std::uint8_t>(CmState::kIdle) &&
        !s.fenced[c]) {
      push(ActionKind::kStartConv, c);
    }
    if (s.req_in[c] > 0) {
      push(ActionKind::kDeliverReq, c);
      if (can_drop) push(ActionKind::kDropReq, c);
      if (can_dup) push(ActionKind::kDupReq, c);
    }
    if (s.rep_in[c] > 0) {
      push(ActionKind::kDeliverRep, c);
      if (can_drop) push(ActionKind::kDropRep, c);
      if (can_dup) push(ActionKind::kDupRep, c);
    }
    if (s.conv[c] == static_cast<std::uint8_t>(Conv::kAwaiting)) {
      // Without timeout_races, the deadline only fires once the round can no
      // longer answer by itself (no copy in flight in either direction).
      if (scenario_.timeout_races || (s.req_in[c] == 0 && s.rep_in[c] == 0)) {
        push(ActionKind::kCmTimeout, c);
      }
      if (scenario_.bugs.stale_timeout && s.stale_timer[c]) {
        push(ActionKind::kStaleTimeout, c);
      }
    }
    if (!s.crashed[c] && !s.fenced[c] && s.crashes < scenario_.faults.crashes) {
      push(ActionKind::kCrash, c);
    }
  }
  if (s.txn_phase == static_cast<std::uint8_t>(TxnPhase::kIdle)) {
    push(ActionKind::kStartTxn, 0);
  }
  for (std::size_t m = 0; m < kMembers && scenario_.trade; ++m) {
    for (std::size_t r = 0; r < kTxnRounds; ++r) {
      const std::size_t t = m * kTxnRounds + r;
      if (s.treq_in[m][r] > 0) {
        // Vote/decide processing runs through the member's serialized
        // manager mailbox: it waits until no control conversation is mid
        // flight (crashed/fenced endpoints swallow the copy regardless).
        const bool gated =
            r != kBegin &&
            s.fsm[m] != static_cast<std::uint8_t>(CmState::kIdle) &&
            !s.crashed[m] && !s.fenced[m];
        if (!gated) push(ActionKind::kDeliverTreq, t);
        if (can_drop) push(ActionKind::kDropTreq, t);
        if (can_dup) push(ActionKind::kDupTreq, t);
      }
      if (s.trep_in[m][r] > 0) {
        push(ActionKind::kDeliverTrep, t);
        if (can_drop) push(ActionKind::kDropTrep, t);
        if (can_dup) push(ActionKind::kDupTrep, t);
      }
    }
  }
  if (s.txn_phase >= static_cast<std::uint8_t>(TxnPhase::kBegin) &&
      s.txn_phase <= static_cast<std::uint8_t>(TxnPhase::kDecide) &&
      s.pending > 0) {
    // Lost-only deadline: the gather times out once some unanswered member
    // has no round traffic in flight (its message was dropped or swallowed
    // by a dead endpoint), so the round cannot complete unaided.
    bool stalled = scenario_.timeout_races;
    const std::size_t round =
        static_cast<std::size_t>(s.txn_phase) -
        static_cast<std::size_t>(TxnPhase::kBegin);
    for (std::size_t m = 0; m < kMembers && !stalled; ++m) {
      stalled = !s.answered[m] && s.treq_in[m][round] == 0 &&
                s.trep_in[m][round] == 0;
    }
    if (stalled) push(ActionKind::kTxnTimeout, 0);
  }
}

State Model::apply(const State& s, const Action& a, Step* step) const {
  State st = s;
  if (step != nullptr) {
    step->label = action_name(a.kind);
    step->events.clear();
  }
  const std::size_t c = a.target;
  const std::size_t m = a.target / kTxnRounds;
  const std::size_t r = a.target % kTxnRounds;
  switch (a.kind) {
    case ActionKind::kStartConv:
      st.conv[c] = static_cast<std::uint8_t>(Conv::kAwaiting);
      ++st.req_in[c];
      emit_event(c, core::kMidQueryNeeds, true, 0, step);
      {
        core::ProtocolFsm fsm(static_cast<CmState>(st.fsm[c]));
        fsm.advance(core::kMidQueryNeeds);
        st.fsm[c] = static_cast<std::uint8_t>(fsm.state());
      }
      break;
    case ActionKind::kDeliverReq:
      --st.req_in[c];
      // The CM answers every copy; duplicates are served from the token-
      // keyed reply cache (container.cpp manager_loop) with the same reply.
      if (!st.crashed[c] && !st.fenced[c]) ++st.rep_in[c];
      break;
    case ActionKind::kDropReq:
      --st.req_in[c];
      ++st.drops;
      break;
    case ActionKind::kDupReq:
      // Deliver one copy, keep a duplicate in flight.
      ++st.dups;
      if (!st.crashed[c] && !st.fenced[c]) ++st.rep_in[c];
      break;
    case ActionKind::kDeliverRep:
      --st.rep_in[c];
      if (st.conv[c] == static_cast<std::uint8_t>(Conv::kAwaiting)) {
        st.conv[c] = static_cast<std::uint8_t>(Conv::kDone);
        core::ProtocolFsm fsm(static_cast<CmState>(st.fsm[c]));
        fsm.advance(core::kMidNeeds);
        st.fsm[c] = static_cast<std::uint8_t>(fsm.state());
        emit_event(c, core::kMidNeeds, false, 0, step);
      }
      // A copy landing after the conversation closed is stale: ignored.
      break;
    case ActionKind::kDropRep:
      --st.rep_in[c];
      ++st.drops;
      break;
    case ActionKind::kDupRep:
      ++st.dups;
      if (st.conv[c] == static_cast<std::uint8_t>(Conv::kAwaiting)) {
        st.conv[c] = static_cast<std::uint8_t>(Conv::kDone);
        core::ProtocolFsm fsm(static_cast<CmState>(st.fsm[c]));
        fsm.advance(core::kMidNeeds);
        st.fsm[c] = static_cast<std::uint8_t>(fsm.state());
        emit_event(c, core::kMidNeeds, false, 0, step);
      }
      break;
    case ActionKind::kCmTimeout:
      emit_event(c, core::kMidMarkTimeout, true, 0, step);
      if (ladder_resends(scenario_.cm_retries, st.conv_retries[c])) {
        --st.conv_retries[c];
        ++st.req_in[c];
        emit_event(c, core::kMidMarkRetry, true, 0, step);
      } else {
        fence(st, c, step);
      }
      break;
    case ActionKind::kStaleTimeout:
      // Bug path: the stale deadline of an already-completed round fires and
      // is mistaken for this conversation's; the GM marks the timeout,
      // assumes the round was already recovered, and walks away — no RETRY,
      // no ESCALATE, conversation abandoned (the IOC105 shape).
      st.stale_timer[c] = false;
      st.conv[c] = static_cast<std::uint8_t>(Conv::kAbandoned);
      st.timeout_pending[c] = true;
      emit_event(c, core::kMidMarkTimeout, true, 0, step);
      break;
    case ActionKind::kCrash:
      st.crashed[c] = true;
      ++st.crashes;
      break;
    case ActionKind::kStartTxn:
      start_round(st, TxnPhase::kBegin, step);
      break;
    case ActionKind::kDeliverTreq:
      deliver_member(st, m, r, step);
      break;
    case ActionKind::kDropTreq:
      --st.treq_in[m][r];
      ++st.drops;
      break;
    case ActionKind::kDupTreq:
      ++st.dups;
      ++st.treq_in[m][r];  // requeued duplicate...
      deliver_member(st, m, r, step);  // ...while one copy is processed
      break;
    case ActionKind::kDeliverTrep:
      gather(st, m, r, step);
      break;
    case ActionKind::kDropTrep:
      --st.trep_in[m][r];
      ++st.drops;
      break;
    case ActionKind::kDupTrep:
      ++st.dups;
      ++st.trep_in[m][r];
      gather(st, m, r, step);
      break;
    case ActionKind::kTxnTimeout: {
      const std::size_t round =
          static_cast<std::size_t>(st.txn_phase) -
          static_cast<std::size_t>(TxnPhase::kBegin);
      if (ladder_resends(scenario_.txn_retries, st.round_retries)) {
        --st.round_retries;
        for (std::size_t i = 0; i < kMembers; ++i) {
          if (!st.answered[i]) ++st.treq_in[i][round];
        }
      } else {
        // Retries exhausted: the round escalates. An incomplete begin or
        // vote aborts the transaction; an incomplete decide falls to
        // sub-coordinator recovery, which finishes pushing the decision.
        st.escalated = true;
        if (round == kDecide) {
          finish_txn(st, step);
        } else {
          st.commit = false;
          start_round(st, TxnPhase::kDecide, step);
        }
      }
      break;
    }
  }
  if (step != nullptr && a.kind != ActionKind::kStartTxn &&
      a.kind != ActionKind::kTxnTimeout) {
    const bool container_scoped = a.kind <= ActionKind::kCrash;
    step->label = std::string(action_name(a.kind)) + " " +
                  (container_scoped
                       ? scenario_.containers[c].name
                       : scenario_.containers[m].name + "/" +
                             std::string(ev::type_name(round_request(st, r))));
  }
  return st;
}

std::optional<Violation> Model::check(const State& s) const {
  const std::size_t n = num_containers();
  long sum = s.spares + s.escrow;
  for (std::size_t c = 0; c < n; ++c) sum += s.width[c];
  if (s.spares < 0 || s.escrow < 0) {
    return Violation{Property::kConservation, "pool ledger went negative"};
  }
  for (std::size_t c = 0; c < n; ++c) {
    if (s.width[c] < 0) {
      return Violation{Property::kConservation,
                       scenario_.containers[c].name + " width below zero"};
    }
    if (s.fenced[c] &&
        (s.width[c] > 0 ||
         s.fsm[c] != static_cast<std::uint8_t>(CmState::kOffline))) {
      return Violation{Property::kFenceResurrect,
                       scenario_.containers[c].name +
                           " owns nodes or re-entered the protocol after "
                           "being fenced"};
    }
    if (s.timeout_pending[c]) {
      return Violation{
          Property::kTimeoutOrphan,
          scenario_.containers[c].name +
              ": control round timed out and was never retried or "
              "escalated (IOC105 property)"};
    }
  }
  if (sum != total_) {
    std::ostringstream msg;
    msg << "node-count conservation violated: widths+spares+escrow = " << sum
        << ", staging allocation = " << total_
        << " (a node is owned twice or lost)";
    return Violation{Property::kConservation, msg.str()};
  }
  for (std::size_t m = 0; m < kMembers && scenario_.trade; ++m) {
    if (s.prepare_count[m] > 1 || s.apply_count[m] > 1) {
      return Violation{Property::kAtMostOnce,
                       scenario_.containers[m].name +
                           ": trade operation prepared or applied more than "
                           "once for the same round token"};
    }
  }
  return std::nullopt;
}

std::optional<Violation> Model::stuck(const State& s) const {
  const std::size_t n = num_containers();
  for (std::size_t c = 0; c < n; ++c) {
    const Conv conv = static_cast<Conv>(s.conv[c]);
    if (conv == Conv::kPending || conv == Conv::kAwaiting ||
        conv == Conv::kAbandoned) {
      return Violation{Property::kStuck,
                       scenario_.containers[c].name +
                           ": scheduled control conversation never "
                           "completed (liveness)"};
    }
    if (s.fsm[c] != static_cast<std::uint8_t>(CmState::kIdle) &&
        s.fsm[c] != static_cast<std::uint8_t>(CmState::kOffline)) {
      return Violation{Property::kStuck,
                       scenario_.containers[c].name +
                           ": manager FSM parked mid-conversation in state " +
                           core::cm_state_name(
                               static_cast<CmState>(s.fsm[c]))};
    }
  }
  if (s.txn_phase >= static_cast<std::uint8_t>(TxnPhase::kBegin) &&
      s.txn_phase <= static_cast<std::uint8_t>(TxnPhase::kDecide)) {
    return Violation{Property::kStuck,
                     "transaction round never terminated (liveness)"};
  }
  return std::nullopt;
}

bool Model::action_safe(const State& s, const Action& a) const {
  // "Safe" = invisible to every checked property AND confined to the
  // action's component: no fault-budget spend, no shared-ledger move, no
  // round advance, no fence. Such actions commute with every action of
  // every other component, so exploring only them from this state preserves
  // reachability of all (stable) violations.
  //
  // Control-plane actions on a trade member are NOT safe while the trade
  // can still deliver a vote/decide message to it: they move the member's
  // FSM in and out of idle, and idleness gates whether that delivery emits
  // its trade events (and, under bugs.stale_timeout, arms the stale timer).
  // That is an enabling-dependence with an action the coordinator can make
  // runnable without any move of this component, so ample condition C1
  // fails if these were treated as safe (a pruned interleaving could be the
  // only one reaching a violation). Once the member's decision guard is set
  // every further round message to it is refused without touching the FSM
  // or ledger, and the control actions become independent again.
  const auto member_trade_live = [&](std::size_t c) {
    return scenario_.trade && c < kMembers &&
           s.txn_phase != static_cast<std::uint8_t>(TxnPhase::kNever) &&
           s.guard[c].decided_token == 0;
  };
  switch (a.kind) {
    case ActionKind::kStartConv:
    case ActionKind::kDeliverReq:
    case ActionKind::kDeliverRep:
      return !member_trade_live(a.target);
    case ActionKind::kStartTxn:
      return true;
    case ActionKind::kStaleTimeout:
      return false;  // visible: it creates the violation being checked
    case ActionKind::kCmTimeout:
      // Retry is component-local; a fence is not. Ask the ladder exactly as
      // apply() does, or the reduction would prune a reachable fence.
      return ladder_resends(scenario_.cm_retries, s.conv_retries[a.target]) &&
             !member_trade_live(a.target);
    case ActionKind::kDeliverTreq:
      // Begin is a pure ack; vote/decide move the shared ledger.
      return a.target % kTxnRounds == kBegin;
    case ActionKind::kDeliverTrep:
      // Completing a gather advances the round machinery (and possibly the
      // ledger, via recovery); mid-gather bookkeeping is coordinator-local.
      return s.pending > 1 ||
             a.target % kTxnRounds !=
                 static_cast<std::size_t>(s.txn_phase) -
                     static_cast<std::size_t>(TxnPhase::kBegin);
    case ActionKind::kTxnTimeout:
      return ladder_resends(scenario_.txn_retries, s.round_retries);
    default:
      return false;  // drops/dups/crashes spend the adversary budget
  }
}

int Model::component_of(const Action& a) const {
  switch (a.kind) {
    case ActionKind::kStartTxn:
    case ActionKind::kTxnTimeout:
    case ActionKind::kDeliverTrep:
    case ActionKind::kDropTrep:
    case ActionKind::kDupTrep:
      return static_cast<int>(kMaxContainers);  // coordinator component
    case ActionKind::kDeliverTreq:
    case ActionKind::kDropTreq:
    case ActionKind::kDupTreq:
      return static_cast<int>(a.target / kTxnRounds);
    default:
      return static_cast<int>(a.target);
  }
}

void Model::ample(const State& s, std::vector<Action>* out) const {
  std::vector<Action> all;
  enabled(s, &all);
  // Group by component; pick the first component whose enabled actions are
  // all safe. All checked properties are stable (once violated they stay
  // violated along every extension), so one representative interleaving per
  // commuting class is enough. The state graph is acyclic (every action
  // strictly consumes retries, budgets, or one-shot milestones), so the
  // classic ample-set cycle condition holds trivially; the checker still
  // verifies acyclicity at run time.
  for (int comp = 0; comp <= static_cast<int>(kMaxContainers); ++comp) {
    bool any = false;
    bool all_safe = true;
    for (const Action& a : all) {
      if (component_of(a) != comp) continue;
      any = true;
      if (!action_safe(s, a)) {
        all_safe = false;
        break;
      }
    }
    if (any && all_safe) {
      out->clear();
      for (const Action& a : all) {
        if (component_of(a) == comp) out->push_back(a);
      }
      return;
    }
  }
  *out = std::move(all);
}

}  // namespace ioc::verify
