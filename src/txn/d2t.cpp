#include "txn/d2t.h"

#include <algorithm>

#include "net/network.h"
#include "txn/d2t_model.h"
#include "util/log.h"

namespace ioc::txn {

TxnHarness::TxnHarness(ev::BusIf& bus, TxnConfig cfg)
    : bus_(&bus), cfg_(cfg) {
  auto& cluster = bus.network().cluster();
  const net::NodeId sub_reader_node =
      cluster.size() > 1 ? net::NodeId{1} : net::NodeId{0};
  coord_ = bus.open(0, "txn.coord").id();
  writer_side_.ep = bus.open(0, "txn.sub.writers").id();
  reader_side_.ep = bus.open(sub_reader_node, "txn.sub.readers").id();

  const std::size_t total = cfg.writers + cfg.readers;
  members_.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    const net::NodeId node =
        static_cast<net::NodeId>((i + 2) % cluster.size());
    members_[i].ep = bus.open(node, "txn.member").id();
    if (cfg.failure.participant == static_cast<int>(i)) {
      members_[i].dies_at = cfg.failure.at;
    }
    if (i < cfg.writers) {
      writer_side_.members.push_back(i);
    } else {
      reader_side_.members.push_back(i);
    }
    procs_.push_back(spawn(bus.sim(), member_loop(i)));
  }
}

TxnHarness::~TxnHarness() {
  for (auto& m : members_) bus_->close(m.ep);
  bus_->close(writer_side_.ep);
  bus_->close(reader_side_.ep);
  bus_->close(coord_);
  // The member loops block on their mailboxes; drain the simulator so they
  // observe the closes and finish instead of leaking their frames (see
  // des/process.h lifetime rules).
  auto& sim = bus_->sim();
  while (sim.step()) {
  }
}

void TxnHarness::set_operation(std::size_t index, Operation* op) {
  members_.at(index).op = op;
}

des::Process TxnHarness::member_loop(std::size_t index) {
  const ev::EndpointId my_ep = members_[index].ep;
  while (true) {
    // Re-resolve every iteration: a crash may destroy the endpoint while we
    // were suspended in a post below.
    ev::Endpoint* self = bus_->find(my_ep);
    if (self == nullptr) break;
    auto msg = co_await self->mailbox().get();
    if (!msg.has_value()) break;
    Member& me = members_[index];

    // An injected failure silences the member from its phase on.
    const Phase phase = msg->type_id == kMidBegin  ? Phase::kBegin
                        : msg->type_id == kMidVote ? Phase::kVote
                        : d2t_is_decision(msg->type_id) ? Phase::kDecide
                                                        : Phase::kNever;
    if (phase == Phase::kNever) continue;
    if (me.dies_at <= phase) me.dead = true;
    if (me.dead) continue;
    // The shared participant step prepares at most once per transaction
    // and says when to apply the decision (d2t_model.h).
    const D2tStep step = d2t_step(me.guard, msg->type_id, msg->token, [&me] {
      if (me.op == nullptr) return true;
      me.prepared = me.op->prepare();
      return me.prepared;
    });
    if (step.apply) {
      if (me.op != nullptr) {
        if (msg->type_id == kMidCommit) {
          me.op->commit();
        } else if (me.prepared) {
          me.op->abort();
        }
      }
      me.prepared = false;
    }
    ev::Message reply;
    reply.type_id = step.reply;
    reply.token = msg->token;
    co_await bus_->post(my_ep, msg->from, std::move(reply));
  }
}

des::Task<TxnHarness::GatherOutcome> TxnHarness::fan_gather(
    ev::EndpointId from, const std::vector<std::size_t>& members,
    ev::MessageId type, std::uint64_t token) {
  GatherOutcome out;
  if (members.empty()) {
    out.complete = true;
    co_return out;
  }
  auto& sim = bus_->sim();
  std::vector<char> answered(members.size(), 0);
  std::size_t pending = members.size();

  for (int attempt = 0;; ++attempt) {
    // (Re)send the round message to everyone still unanswered. The token is
    // the round's token on every attempt, so the member-side dedupe caches
    // recognize a retry and the gather below can never credit a reply from
    // a different attempt of a different round.
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (answered[j]) continue;
      ev::Message m;
      m.type_id = type;
      m.token = token;
      co_await bus_->post(from, members_[members[j]].ep, std::move(m));
    }
    // Arm this attempt's deadline. The Timer handle is cancelled the moment
    // the gather completes, so a finished round can never receive a stale
    // timeout — the bug that used to make round N+1 end early.
    des::Timer timer = sim.timer_in(cfg_.round.timeout, [this, from, token] {
      ev::Endpoint* ep = bus_->find(from);
      if (ep != nullptr) {
        ev::Message t{};  // value-initialized, as in BusIf::request's timer
        t.type_id = kMidTimeout;
        t.token = token;
        ep->mailbox().try_put(std::move(t));
      }
    });
    while (pending > 0) {
      ev::Endpoint* self = bus_->find(from);
      if (self == nullptr) {
        timer.cancel();
        co_return out;  // sub-coordinator endpoint crashed
      }
      auto msg = co_await self->mailbox().get();
      if (!msg.has_value()) {
        timer.cancel();
        co_return out;
      }
      if (msg->token != token) continue;   // stale round traffic
      if (msg->type_id == kMidTimeout) break;
      if (!d2t_reply_matches(type, msg->type_id)) continue;
      // Deduplicate per member: a duplicated delivery or a reply to both
      // the original and a retry counts once.
      bool fresh = false;
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (members_[members[j]].ep == msg->from) {
          if (!answered[j]) {
            answered[j] = 1;
            --pending;
            fresh = true;
          }
          break;
        }
      }
      if (fresh) out.replies.push_back(std::move(*msg));
    }
    timer.cancel();
    if (pending == 0) {
      out.complete = true;
      co_return out;
    }
    // The deadline fired with members unanswered. A member whose endpoint
    // vanished looks the same as a lost message here, so no peer is "gone".
    const auto backoff =
        ev::ladder_step(cfg_.round, attempt, /*peer_gone=*/false);
    if (!backoff) co_return out;
    ++out.retries;
    if (trace::active(cfg_.trace)) {
      cfg_.trace->span("retry", "txn", ev::type_name(type), token, sim.now(),
                       sim.now());
    }
    co_await des::delay(sim, *backoff);
  }
}

namespace {

/// Runs one side's fan-out/gather concurrently with the other side's.
des::Process side_round(des::Task<TxnHarness::GatherOutcome> task,
                        TxnHarness::GatherOutcome* out) {
  *out = co_await std::move(task);
}

}  // namespace

des::Task<TxnResult> TxnHarness::run() {
  auto& sim = bus_->sim();
  auto& net = bus_->network();
  const des::SimTime start = sim.now();
  const std::uint64_t msg_base =
      bus_->stats(ev::TrafficClass::kControl).messages;
  // Each round draws its own token from a per-transaction block, so a late
  // reply (or a stale timeout) from one round can never satisfy the next.
  const std::uint64_t txn = ++txn_counter_;
  const std::uint64_t token_base = d2t_token(txn, 0);

  TxnResult result;
  ev::Endpoint* coord_ep = bus_->find(coord_);
  ev::Endpoint* wsub_ep = bus_->find(writer_side_.ep);
  ev::Endpoint* rsub_ep = bus_->find(reader_side_.ep);
  if (coord_ep == nullptr || wsub_ep == nullptr || rsub_ep == nullptr) {
    // Coordinator overlay itself is gone; nothing was prepared, so an
    // abort-with-escalation is both safe and honest.
    result.escalated = true;
    result.duration = sim.now() - start;
    co_return result;
  }
  const net::NodeId coord_node = coord_ep->node();
  const net::NodeId wsub_node = wsub_ep->node();
  const net::NodeId rsub_node = rsub_ep->node();

  auto round = [&](ev::MessageId type, std::uint64_t token)
      -> des::Task<std::pair<GatherOutcome, GatherOutcome>> {
    // Coordinator -> sub-coordinator hops (point-to-point, cheap).
    co_await net.transfer(coord_node, wsub_node, 256);
    co_await net.transfer(coord_node, rsub_node, 256);
    GatherOutcome wr, rr;
    auto pw = spawn(sim, side_round(fan_gather(writer_side_.ep,
                                               writer_side_.members, type,
                                               token),
                                    &wr));
    auto pr = spawn(sim, side_round(fan_gather(reader_side_.ep,
                                               reader_side_.members, type,
                                               token),
                                    &rr));
    co_await pw;
    co_await pr;
    // Sub-coordinator -> coordinator reports.
    co_await net.transfer(wsub_node, coord_node, 256);
    co_await net.transfer(rsub_node, coord_node, 256);
    co_return std::make_pair(std::move(wr), std::move(rr));
  };
  auto escalate = [&](const char* phase) {
    result.escalated = true;
    if (trace::active(cfg_.trace)) {
      cfg_.trace->span("escalate", "txn", phase, token_base, sim.now(),
                       sim.now());
    }
    IOC_WARN << "txn " << txn << ": " << phase
             << " round exhausted retries; aborting";
  };

  // Round 1: begin.
  auto [bw, br] = co_await round(kMidBegin, token_base + 0);
  ++result.rounds;
  result.retries += bw.retries + br.retries;
  const bool all_present = bw.complete && br.complete;
  if (!all_present) escalate("begin");

  // Round 2: vote (skipped when begin already failed).
  bool all_yes = all_present;
  if (all_present) {
    auto [vw, vr] = co_await round(kMidVote, token_base + 1);
    ++result.rounds;
    result.retries += vw.retries + vr.retries;
    if (!vw.complete || !vr.complete) escalate("vote");
    auto count_yes = [](const GatherOutcome& g) {
      std::size_t n = 0;
      for (const auto& m : g.replies) {
        if (m.type_id == kMidVoteYes) ++n;
      }
      return n;
    };
    // An unanswered member is a missing YES: the transaction aborts, which
    // is the safe direction for 2PC.
    all_yes = vw.complete && vr.complete &&
              count_yes(vw) == writer_side_.members.size() &&
              count_yes(vr) == reader_side_.members.size();
  }

  // Round 3: decide + finalize. Members that miss the decision here are
  // covered by sub-coordinator recovery below.
  const bool commit = all_present && all_yes;
  auto [dw, dr] = co_await round(commit ? kMidCommit : kMidAbort,
                                 token_base + 2);
  ++result.rounds;
  result.retries += dw.retries + dr.retries;

  // Sub-coordinator recovery: apply the logged decision on behalf of every
  // member that did not apply it itself — injected deaths, members whose
  // endpoint a crash destroyed, and members whose decision delivery was
  // lost past the retries. Settling the guard makes any late delivery of
  // the real decision a recognized duplicate (re-ack, no second apply).
  for (auto& m : members_) {
    if (m.guard.settled(txn)) continue;
    if (m.op != nullptr) {
      if (commit) {
        m.op->commit();
      } else if (m.prepared) {
        m.op->abort();
      }
    }
    m.prepared = false;
    m.guard.settle(txn);
  }

  result.outcome = commit ? Outcome::kCommitted : Outcome::kAborted;
  result.duration = sim.now() - start;
  // Control-plane cost: every bus message this transaction caused (fan-outs,
  // replies, retries) plus the four coordinator<->sub-coordinator hops each
  // executed round pays above — derived, not hardcoded.
  result.messages = bus_->stats(ev::TrafficClass::kControl).messages -
                    msg_base +
                    4ull * static_cast<std::uint64_t>(result.rounds);
  co_return result;
}

}  // namespace ioc::txn
