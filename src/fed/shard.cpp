#include "fed/shard.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.h"
#include "util/log.h"

namespace ioc::fed {

namespace {
/// Time between policy ticks, each visiting the marked pipelines.
constexpr des::SimTime kPolicyInterval = 20 * des::kMillisecond;
}  // namespace

Shard::Shard(ev::BusIf& bus, std::string id, net::NodeId node,
             const std::vector<net::NodeId>& staging, Options opt)
    : bus_(&bus),
      id_(std::move(id)),
      name_id_(util::intern(id_)),
      node_(node),
      pool_(staging),
      opt_(opt),
      rounds_(bus, "shard " + id_, opt_.trace) {
  ctl_ep_ = bus_->open(node_, "fed.shard." + id_ + ".ctl").id();
  trade_ep_ = bus_->open(node_, "fed.shard." + id_ + ".trade").id();
}

Shard::~Shard() {
  if (ctl_ep_ != ev::kInvalidEndpoint) bus_->close(ctl_ep_);
  if (trade_ep_ != ev::kInvalidEndpoint) bus_->close(trade_ep_);
}

void Shard::start() {
  procs_.push_back(spawn(bus_->sim(), policy_loop()));
  procs_.push_back(spawn(bus_->sim(), heartbeat_loop()));
  procs_.push_back(spawn(bus_->sim(), participant_loop()));
}

void Shard::take(FedPipeline* p) {
  const std::size_t slot = pipelines_.size();
  pipelines_.push_back(p);
  if (slot % 64 == 0) marks_.push_back(0);
  p->set_owner(ctl_ep_, marks_, slot);
}

void Shard::add_pipeline(FedPipeline* p) {
  take(p);
  rounds_.track(p->name_id(), core::CmState::kIdle);
}

void Shard::adopt(FedPipeline* p) {
  take(p);
  // The root attached the dead shard's ledger entries for this pipeline to
  // our pool before calling adopt; re-reconcile against the pipeline's own
  // node list so ledger and ground truth agree from the first policy tick.
  pool_.reconcile(p->name(), p->nodes());
  rounds_.track(p->name_id(), p->fenced() ? core::CmState::kOffline
                                          : core::CmState::kIdle);
}

std::vector<FedPipeline*> Shard::release_pipelines() {
  return std::exchange(pipelines_, {});
}

void Shard::fence() {
  if (fenced_) return;
  fenced_ = true;
  if (ctl_ep_ != ev::kInvalidEndpoint) bus_->close(ctl_ep_);
  if (trade_ep_ != ev::kInvalidEndpoint) bus_->close(trade_ep_);
  ctl_ep_ = ev::kInvalidEndpoint;
  trade_ep_ = ev::kInvalidEndpoint;
}

void Shard::rethrow_if_failed() const {
  for (const des::Process& p : procs_) p.rethrow_if_failed();
}

void Shard::apply_decision(std::uint64_t txn, bool commit, bool as_donor,
                           const std::vector<net::NodeId>& nodes,
                           core::ResourcePool& into) {
  // The root serializes trades and settles each one (live or via recovery)
  // before starting the next; a late duplicate must not attach nodes twice.
  if (guard_.settled(txn)) return;
  guard_.settle(txn);
  move_decided(txn, commit, as_donor, nodes, into);
}

void Shard::move_decided(std::uint64_t txn, bool commit, bool as_donor,
                         const std::vector<net::NodeId>& nodes,
                         core::ResourcePool& into) {
  if (as_donor) {
    auto esc = pool_.take_escrow(txn);
    if (commit) {
      stats_.nodes_donated += esc.size();  // the recipient attaches them
    } else {
      into.attach("", esc);
    }
  } else if (commit) {
    into.attach("", nodes);
    stats_.nodes_received += nodes.size();
  }
  IOC_CHECK(into.conserved()) << "pool corrupted settling trade " << txn
                              << " at shard " << id_;
}

std::size_t Shard::next_marked(std::size_t from) const {
  std::size_t word = from / 64;
  if (word >= marks_.size()) return pipelines_.size();
  std::uint64_t bits = marks_[word] & (~std::uint64_t{0} << from % 64);
  while (bits == 0) {
    if (++word == marks_.size()) return pipelines_.size();
    bits = marks_[word];
  }
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

std::size_t Shard::unmet_demand() const {
  std::size_t unmet = 0;
  for (std::size_t i = next_marked(0); i < pipelines_.size();
       i = next_marked(i + 1)) {
    const FedPipeline* p = pipelines_[i];
    if (p->fenced()) continue;
    if (p->target() > p->width()) unmet += p->target() - p->width();
  }
  return unmet;
}

des::Process Shard::policy_loop() {
  auto& sim = bus_->sim();
  while (!fenced_ && !crashed_) {
    co_await des::delay(sim, kPolicyInterval);
    if (fenced_ || crashed_) break;
    if (bus_->find(ctl_ep_) == nullptr) {
      crashed_ = true;
      break;
    }
    // Visit the marked slots in order, re-reading the marks after each
    // round: a demand change or an adopt() while we are suspended marks
    // its slot, served in this tick if it lies ahead.
    for (std::size_t i = next_marked(0); i < pipelines_.size();
         i = next_marked(i + 1)) {
      FedPipeline* p = pipelines_[i];
      const std::size_t w = p->width();
      const std::size_t t = p->target();
      if (p->fenced() || t == w) {
        marks_[i / 64] &= ~(std::uint64_t{1} << i % 64);
        continue;
      }
      if (t > w) {
        co_await resize(p, static_cast<int>(t - w));
      } else {
        co_await resize(p, -static_cast<int>(w - t));
      }
      if (fenced_ || crashed_) co_return;
    }
    // Demand the local pool cannot cover: ask the root to broker a trade.
    // The cheap tests go first, so unmet_demand() runs only when a
    // TRADE_REQ can follow.
    if (pool_.spare_count() != 0 || root_ep_ == ev::kInvalidEndpoint) {
      continue;
    }
    const std::size_t unmet = unmet_demand();
    if (unmet == 0) continue;
    ev::Message m;
    m.type_id = kMidTradeReq;
    m.payload = TradeRequestWire{slot_, static_cast<std::uint32_t>(unmet)};
    ++stats_.trade_requests;
    co_await bus_->post(ctl_ep_, root_ep_, std::move(m));
  }
}

des::Process Shard::heartbeat_loop() {
  auto& sim = bus_->sim();
  while (!fenced_ && !crashed_) {
    co_await des::delay(sim, opt_.heartbeat_interval);
    if (fenced_ || crashed_) break;
    if (bus_->find(ctl_ep_) == nullptr) {
      crashed_ = true;
      break;
    }
    if (root_ep_ == ev::kInvalidEndpoint) continue;
    ev::Message m;
    m.type_id = core::kMidHeartbeat;
    m.size_bytes = 64;
    // One heartbeat per shard per beat, whatever its pipeline count.
    m.payload = HeartbeatWire{slot_,
                              static_cast<std::uint32_t>(pool_.spare_count())};
    co_await bus_->post(ctl_ep_, root_ep_, std::move(m),
                        ev::TrafficClass::kMonitoring);
  }
}

des::Task<void> Shard::resize(FedPipeline* p, int delta) {
  ev::Message m;
  std::vector<net::NodeId> granted;
  if (delta > 0) {
    granted = pool_.grant(p->name(), static_cast<std::size_t>(delta));
    if (granted.empty()) co_return;  // dry pool; the trade path covers it
    m.type_id = core::kMidIncrease;
    m.payload = core::IncreasePayload{granted};
  } else {
    m.type_id = core::kMidDecrease;
    m.payload = core::DecreasePayload{static_cast<std::uint32_t>(-delta)};
  }
  rounds_.open(p->name_id(), m);
  ev::Message reply = co_await rounds_.run_round(
      p->name_id(), ctl_ep_, p->endpoint(), std::move(m), kRoundLadder);
  if (fenced_) co_return;  // the root fenced us mid-round: hands off
  const core::RoundEnd end = core::round_end(reply);
  if (end == core::RoundEnd::kSelfDied) {
    // Our own endpoint died under the round (crash injection): stop without
    // fencing a healthy pipeline for our failure.
    crashed_ = true;
    co_return;
  }
  if (end == core::RoundEnd::kEscalate) {
    escalate_fence_pipeline(p);
    co_return;
  }
  rounds_.close(p->name_id(), reply);
  if (const auto* done = reply.as<core::DonePayload>()) {
    if (!done->report.ok) {
      if (!granted.empty()) pool_.reclaim(p->name(), granted);
    } else if (!done->freed_nodes.empty()) {
      pool_.reclaim(p->name(), done->freed_nodes);
    }
  }
  ++stats_.resizes;
  IOC_CHECK(pool_.conserved())
      << "pool corrupted resizing " << p->name() << " at shard " << id_;
}

void Shard::escalate_fence_pipeline(FedPipeline* p) {
  const std::string name = p->name();
  IOC_WARN << "shard " << id_ << " escalating: fencing pipeline " << name;
  p->fence();
  const std::size_t freed = rounds_.fence(p->name_id(), pool_);
  ++stats_.escalations;
  if (trace::active(opt_.trace)) {
    opt_.trace->span("escalate", "fed", name, 0, bus_->sim().now(),
                     bus_->sim().now(),
                     {{"freed", static_cast<double>(freed)}});
  }
  IOC_CHECK(pool_.conserved())
      << "pool corrupted fencing " << name << " at shard " << id_;
}

des::Process Shard::participant_loop() {
  while (true) {
    ev::Endpoint* self = bus_->find(trade_ep_);
    if (self == nullptr) break;
    auto msg = co_await self->mailbox().get();
    if (!msg.has_value()) break;
    if (fenced_) continue;
    const auto* wire = msg->as<TradeWire>();
    if (wire == nullptr) continue;  // every trade round carries a TradeWire
    const bool as_donor = wire->donor == slot_;

    ev::Message reply;
    reply.token = msg->token;
    bool prepared = false;
    // The shared participant step (txn/d2t_model.h); prepare runs at most
    // once per trade.
    const txn::D2tStep step =
        txn::d2t_step(guard_, msg->type_id, msg->token, [&] {
          prepared = true;
          // The recipient reserves nothing: attaching nodes always
          // succeeds, so it can always vote yes.
          if (!as_donor) return true;
          // Donor prepare = escrow: the nodes leave our ledger until the
          // decision lands, so a crash between vote and decide can never
          // double-count them. The YES carries them to the root.
          return txn::d2t_donor_prepare(
              wire->count, pool_.spare_count(), [&](std::size_t n) {
                TradeWire out = *wire;
                out.nodes = pool_.escrow(wire->txn, "", n);
                out.count = static_cast<std::uint32_t>(out.nodes.size());
                reply.payload = std::move(out);
              });
        });
    if (step.reply == ev::kNoMessageId) continue;
    if (step.replay) {
      // Replay the recorded answer — crucially including the escrowed
      // node list, so the root can never see two different escrows for
      // one transaction.
      reply = last_vote_reply_;
    } else {
      reply.type_id = step.reply;
      if (prepared) last_vote_reply_ = reply;
    }
    if (step.apply) {
      move_decided(wire->txn, msg->type_id == txn::kMidCommit, as_donor,
                   wire->nodes, pool_);
    }
    co_await bus_->post(trade_ep_, msg->from, std::move(reply));
  }
}

}  // namespace ioc::fed
