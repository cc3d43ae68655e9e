#include "fed/root.h"

#include <algorithm>
#include <utility>

#include "txn/d2t_model.h"
#include "util/check.h"
#include "util/log.h"

namespace ioc::fed {

// Each member's rounds carry its own tokens (txn::kDonorBase,
// txn::kRecipientBase), so a delayed duplicate of one member's reply can
// never complete the other member's round.
namespace {
using txn::kDonorBase;
using txn::kPhaseBegin;
using txn::kPhaseDecide;
using txn::kPhaseVote;
using txn::kRecipientBase;

bool is_round_error(const ev::Message& r) {
  return core::round_end(r) != core::RoundEnd::kReply;
}

/// Time between heartbeat sweeps.
constexpr des::SimTime kSweepInterval = 20 * des::kMillisecond;
/// A shard silent for this long is fenced and failed over.
constexpr des::SimTime kHeartbeatTimeout = 100 * des::kMillisecond;
/// Time between trade-loop passes, each serving at most one trade request.
constexpr des::SimTime kTradeInterval = 10 * des::kMillisecond;
}  // namespace

Root::Root(ev::BusIf& bus, net::NodeId node, trace::TraceSink* trace)
    : bus_(&bus), node_(node), trace_(trace), rounds_(bus, "root", trace) {
  ctl_ep_ = bus_->open(node_, "fed.root.ctl").id();
  trade_ep_ = bus_->open(node_, "fed.root.trade").id();
}

Root::~Root() { shutdown(); }

void Root::add_shard(Shard* s) {
  const auto slot = static_cast<Slot>(shards_.size());
  s->set_root(ctl_ep_, slot);
  shards_.push_back({s, bus_->sim().now()});
  ring_.add(slot, s->manager_id());
}

void Root::start() {
  procs_.push_back(spawn(bus_->sim(), service_loop()));
  procs_.push_back(spawn(bus_->sim(), sweep_loop()));
  procs_.push_back(spawn(bus_->sim(), trade_loop()));
}

void Root::rethrow_if_failed() const {
  for (const des::Process& p : procs_) p.rethrow_if_failed();
}

void Root::shutdown() {
  stopped_ = true;
  if (ctl_ep_ != ev::kInvalidEndpoint) bus_->close(ctl_ep_);
  if (trade_ep_ != ev::kInvalidEndpoint) bus_->close(trade_ep_);
  ctl_ep_ = ev::kInvalidEndpoint;
  trade_ep_ = ev::kInvalidEndpoint;
}

des::Process Root::service_loop() {
  while (true) {
    ev::Endpoint* self = bus_->find(ctl_ep_);
    if (self == nullptr) break;
    auto msg = co_await self->mailbox().get();
    if (!msg.has_value()) break;
    if (msg->type_id == core::kMidHeartbeat) {
      if (const auto* hb = msg->as<HeartbeatWire>()) {
        IOC_CHECK(hb->slot < shards_.size())
            << "heartbeat from unregistered slot " << hb->slot;
        ShardEntry& e = shards_[hb->slot];
        e.last_hb = bus_->sim().now();
        e.spares = hb->spares;
      }
    } else if (msg->type_id == kMidTradeReq) {
      if (const auto* req = msg->as<TradeRequestWire>()) {
        IOC_CHECK(req->recipient < shards_.size())
            << "trade request from unregistered slot " << req->recipient;
        // Latest ask wins; the trade loop drains one request at a time.
        shards_[req->recipient].wanted = req->count;
      }
    }
  }
}

des::Process Root::sweep_loop() {
  auto& sim = bus_->sim();
  while (!stopped_) {
    co_await des::delay(sim, kSweepInterval);
    if (stopped_) break;
    for (const ShardEntry& e : shards_) {
      if (e.shard->fenced()) continue;
      const des::SimTime silent = sim.now() - e.last_hb;
      if (silent > kHeartbeatTimeout) failover(e.shard);
    }
  }
}

void Root::failover(Shard* s) {
  const Slot dead = s->slot();
  // Pick the heir before removing the dead shard — successor() needs its
  // ring position to know where its arc drained to.
  const Slot heir = ring_.successor(dead);
  ring_.remove(dead);
  s->fence();
  shards_[dead].heir = heir;
  ++stats_.failovers;
  rounds_.marker(s->name_id(), core::kMidMarkFailover);
  IOC_WARN << "root fencing shard " << s->manager_id()
           << " (heartbeat timeout); heir "
           << (heir == kNoSlot ? "<none>" : shards_[heir].shard->manager_id());

  for (FedPipeline* p : s->release_pipelines()) {
    // Ledger repair across the shard boundary: sync the dead shard's ledger
    // with the pipeline's ground truth (a resize the pipeline applied but
    // whose DONE died with the shard), then move exactly that node set to
    // the new owner's pool. No awaits from here through adopt(), so the
    // handover — reconcile, detach, attach, owner re-point — is atomic in
    // simulation time.
    s->pool().reconcile(p->name(), p->nodes());
    auto nodes = s->pool().detach_all(p->name());
    const Slot owner = ring_.owner(p->name());
    Shard* target = owner == kNoSlot ? nullptr : shards_[owner].shard;
    if (target == nullptr || target->fenced()) {
      // No shard left to own it: fence the pipeline, strand its nodes as
      // spares of the dead pool — conserved, unusable, and loudly logged.
      IOC_WARN << "no live shard for pipeline " << p->name()
               << "; fencing it";
      p->fence();
      s->pool().attach("", nodes);
      continue;
    }
    target->pool().attach(p->name(), nodes);
    target->adopt(p);
    ++stats_.pipelines_reassigned;
    rounds_.marker(p->name_id(), core::kMidMarkReassign,
                   static_cast<int>(nodes.size()));
  }

  // Leftover spares drain to the heir (escrowed nodes stay put: the trade
  // recovery pass owns them and routes repairs through live_heir()).
  auto spares = s->pool().detach_all("");
  if (!spares.empty()) {
    Shard* h = live_heir(dead);
    if (h != nullptr) {
      h->pool().attach("", spares);
    } else {
      s->pool().attach("", spares);  // whole fleet dead; conserved
    }
  }
}

Shard* Root::live_heir(Slot dead) {
  // The heir chain is acyclic among fenced shards (each link was recorded
  // when its head was fenced, pointing at a then-unfenced shard), so it
  // visits each shard at most once; cap the walk anyway.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    dead = shards_[dead].heir;
    if (dead == kNoSlot) return nullptr;
    if (!shards_[dead].shard->fenced()) return shards_[dead].shard;
  }
  return nullptr;
}

des::Process Root::trade_loop() {
  auto& sim = bus_->sim();
  while (!stopped_) {
    co_await des::delay(sim, kTradeInterval);
    if (stopped_) break;
    if (bus_->find(trade_ep_) == nullptr) break;
    // One trade at a time, strictly serialized: transaction ids (and with
    // them the D2T tokens) are monotone, which is what keeps the members'
    // O(1) at-most-once guards sound. Of the live shards asking, the one
    // with the smallest id goes first.
    ShardEntry* asking = nullptr;
    for (ShardEntry& e : shards_) {
      if (e.wanted == 0 || e.shard->failed()) continue;
      if (asking == nullptr ||
          e.shard->manager_id() < asking->shard->manager_id()) {
        asking = &e;
      }
    }
    if (asking == nullptr) continue;
    const std::uint32_t count = std::exchange(asking->wanted, 0);
    Shard* recipient = asking->shard;
    Shard* donor = nullptr;
    std::uint32_t best = 0;
    for (const ShardEntry& e : shards_) {
      if (e.shard->failed() || e.shard == recipient) continue;
      if (e.spares > best) {
        best = e.spares;
        donor = e.shard;
      }
    }
    if (donor == nullptr || best == 0) {
      ++stats_.trades_denied;
      continue;
    }
    co_await run_trade(donor, recipient, std::min(count, best));
  }
}

des::Task<void> Root::run_trade(Shard* donor, Shard* recipient,
                                std::uint32_t count) {
  const std::uint64_t txn = ++txn_counter_;
  const util::NameId tid = util::intern("trade#" + std::to_string(txn));
  rounds_.marker(tid, core::kMidMarkTradeBegin, static_cast<int>(count));

  auto round = [&](ev::MessageId type, std::uint64_t phase, Shard* member,
                   const TradeWire& w) -> des::Task<ev::Message> {
    ev::Message m;
    m.type_id = type;
    m.token = txn::d2t_token(txn, phase);
    m.payload = w;
    return rounds_.run_round(tid, trade_ep_, member->trade_endpoint(),
                             std::move(m), kRoundLadder);
  };

  TradeWire wire{txn, donor->slot(), recipient->slot(), count, {}};
  bool fenced_round = false;
  bool donor_reachable = true;
  bool recipient_reachable = true;

  // Round 1: begin.
  ev::Message bd = co_await round(txn::kMidBegin, kDonorBase + kPhaseBegin,
                                  donor, wire);
  if (is_round_error(bd)) {
    fenced_round = true;
    donor_reachable = false;
  }
  ev::Message br = co_await round(txn::kMidBegin,
                                  kRecipientBase + kPhaseBegin, recipient,
                                  wire);
  if (is_round_error(br)) {
    fenced_round = true;
    recipient_reachable = false;
  }

  // Round 2: vote. Skipped entirely when begin already lost a member — the
  // transaction can only abort, and skipping keeps an unreachable member
  // from eating another retry ladder.
  bool donor_yes = false;
  bool recipient_yes = false;
  std::vector<net::NodeId> nodes;
  if (donor_reachable && recipient_reachable) {
    ev::Message vd = co_await round(txn::kMidVote, kDonorBase + kPhaseVote,
                                    donor, wire);
    if (vd.type_id == txn::kMidVoteYes) {
      donor_yes = true;
      if (const auto* tw = vd.as<TradeWire>()) nodes = tw->nodes;
    } else if (is_round_error(vd)) {
      fenced_round = true;
      donor_reachable = false;
    }
    ev::Message vr = co_await round(txn::kMidVote,
                                    kRecipientBase + kPhaseVote, recipient,
                                    wire);
    if (vr.type_id == txn::kMidVoteYes) {
      recipient_yes = true;
    } else if (is_round_error(vr)) {
      fenced_round = true;
      recipient_reachable = false;
    }
  }
  const bool commit = donor_yes && recipient_yes && !nodes.empty();

  // Round 3: decide, to the members still answering. Members that dropped
  // out are settled by the recovery pass below.
  TradeWire decided = wire;
  decided.nodes = nodes;
  decided.count = static_cast<std::uint32_t>(nodes.size());
  const ev::MessageId decision = commit ? txn::kMidCommit : txn::kMidAbort;
  if (donor_reachable) {
    ev::Message dd = co_await round(decision, kDonorBase + kPhaseDecide,
                                    donor, decided);
    if (is_round_error(dd)) fenced_round = true;
  }
  if (recipient_reachable) {
    ev::Message dr = co_await round(decision, kRecipientBase + kPhaseDecide,
                                    recipient, decided);
    if (is_round_error(dr)) fenced_round = true;
  }

  // Recovery settle, unconditionally and synchronously: members that
  // applied the decision live are no-ops (idempotent guards); members that
  // missed it — crashed, fenced, or past their retries — get their ledger
  // side repaired here. After this block the trade's escrow is gone:
  // dropped on the donor (commit), back in a live pool (abort), and the
  // traded nodes attached exactly once.
  settle_member(donor, txn, commit, /*as_donor=*/true, nodes);
  settle_member(recipient, txn, commit, /*as_donor=*/false, nodes);
  IOC_CHECK(donor->pool().escrowed() == 0 &&
            recipient->pool().escrowed() == 0)
      << "trade " << txn << " settled but escrow survived";
  const ev::MessageId terminal = fenced_round ? core::kMidMarkTradeFence
                                : commit      ? core::kMidMarkTradeCommit
                                              : core::kMidMarkTradeAbort;
  rounds_.marker(tid, terminal, commit ? static_cast<int>(nodes.size()) : 0);
  if (fenced_round) {
    ++stats_.trades_fenced;
  } else if (commit) {
    ++stats_.trades_committed;
  } else {
    ++stats_.trades_aborted;
  }
  if (trace::active(trace_)) {
    trace_->span("trade", "fed", util::name_of(tid), txn, bus_->sim().now(),
                 bus_->sim().now(),
                 {{"nodes", static_cast<double>(nodes.size())},
                  {"commit", commit ? 1.0 : 0.0}});
  }
}

void Root::settle_member(Shard* s, std::uint64_t txn, bool commit,
                         bool as_donor,
                         const std::vector<net::NodeId>& nodes) {
  // A live or crashed-but-unswept member's pool is still the right ledger —
  // the coming failover sweeps whatever lands there over to the survivors.
  // A fenced member's pool is frozen history: its side lands in the live
  // heir's (or stays put when the whole fleet is dead; conserved).
  Shard* into = s->fenced() ? live_heir(s->slot()) : s;
  if (into == nullptr) into = s;
  s->apply_decision(txn, commit, as_donor, nodes, into->pool());
}

}  // namespace ioc::fed
