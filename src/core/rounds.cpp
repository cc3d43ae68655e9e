#include "core/rounds.h"

#include <utility>

#include "util/check.h"
#include "util/log.h"

namespace ioc::core {

des::Task<ev::Message> Coordinator::run_round(util::NameId peer,
                                              ev::EndpointId from,
                                              ev::EndpointId to, ev::Message m,
                                              const ev::RoundOptions& opt) {
  const std::string_view type = m.type();
  const std::uint64_t token = m.token;
  auto& sim = bus_->sim();
  ev::Message reply;
  for (int attempt = 0;; ++attempt) {
    if (bus_->find(from) == nullptr) {
      // The coordinator itself died under this round (simulated crash).
      // Stop quietly; fencing a healthy peer for our own failure would
      // throw away its nodes for nothing.
      reply = ev::Message{};
      reply.type_id = ev::kMidErrClosed;
      reply.token = token;
      co_return reply;
    }
    ev::Message send = m;  // keep the original for a possible resend
    reply = co_await bus_->request(from, to, std::move(send),
                                   ev::TrafficClass::kControl, opt.timeout);
    if (reply.type_id == ev::kMidErrClosed) co_return reply;
    const bool timeout = reply.type_id == ev::kMidErrTimeout;
    const bool unreachable = reply.type_id == ev::kMidErrUnreachable;
    if (!timeout && !unreachable) co_return reply;  // a real reply
    marker(peer, kMidMarkTimeout);
    const std::string_view name = util::name_of(peer);
    if (trace::active(sink_)) {
      sink_->span("timeout", "control", name, token, sim.now(), sim.now());
    }
    const auto backoff = ev::ladder_step(opt, attempt, unreachable);
    if (!backoff) co_return reply;
    marker(peer, kMidMarkRetry);
    if (trace::active(sink_)) {
      sink_->span("retry", "control", name, token, sim.now(), sim.now());
    }
    IOC_WARN << name << ": " << type << " round timed out; retry "
             << attempt + 1 << "/" << opt.retries;
    co_await des::delay(sim, *backoff);
  }
}

RoundEnd round_end(const ev::Message& reply) {
  if (reply.type_id == ev::kMidErrClosed) return RoundEnd::kSelfDied;
  if (reply.type_id == ev::kMidErrTimeout ||
      reply.type_id == ev::kMidErrUnreachable) {
    return RoundEnd::kEscalate;
  }
  return RoundEnd::kReply;
}

CmState Coordinator::state(util::NameId peer) const {
  auto it = fsm_.find(peer);
  return it == fsm_.end() ? CmState::kIdle : it->second.state();
}

void Coordinator::append(util::NameId peer, ev::MessageId type, bool to_cm,
                         int delta) {
  trace_.push_back({bus_->sim().now(), peer, type, to_cm, delta});
}

void Coordinator::record(util::NameId peer, ev::MessageId type, bool to_cm,
                         int delta) {
  append(peer, type, to_cm, delta);
  auto it = fsm_.find(peer);
  if (it != fsm_.end()) {
    const bool legal = it->second.advance(trace_.back().type);
    IOC_CHECK(legal) << "protocol violation: " << ev::type_name(type)
                     << " for " << util::name_of(peer) << " in state "
                     << cm_state_name(it->second.state()) << " at " << owner_;
    (void)legal;
  }
}

void Coordinator::marker(util::NameId peer, ev::MessageId marker, int delta) {
  append(peer, marker, /*to_cm=*/true, delta);
}

void Coordinator::open(util::NameId peer, ev::Message& m) {
  record(peer, m.type_id, /*to_cm=*/true, 0);
  m.token = bus_->fresh_token();
}

int Coordinator::close(util::NameId peer, const ev::Message& reply) {
  int delta = 0;
  if (const auto* done = reply.as<DonePayload>()) delta = done->report.delta;
  record(peer, reply.type_id, /*to_cm=*/false, delta);
  return delta;
}

std::size_t Coordinator::fence(util::NameId peer, ResourcePool& pool) {
  // The ledger still books nodes to owner names.
  const std::size_t freed =
      pool.reclaim_all(std::string(util::name_of(peer))).size();
  // The recorded delta is the pool's view; the lint replay settles the
  // fenced peer's width to zero regardless (an in-flight grant may not have
  // reached the trace ledger yet).
  marker(peer, kMidMarkEscalate, -static_cast<int>(freed));
  if (auto it = fsm_.find(peer); it != fsm_.end()) {
    it->second.reset(CmState::kOffline);
  }
  return freed;
}

namespace {
bool cacheable(const ev::Message& m) {
  return m.token != 0 &&
         (m.type_id == kMidIncrease || m.type_id == kMidDecrease ||
          m.type_id == kMidOffline || m.type_id == kMidActivate);
}
}  // namespace

const ev::Message* ReplyCache::find(const ev::Message& request) const {
  if (!cacheable(request)) return nullptr;
  for (const auto& [token, reply] : entries_) {
    if (token == request.token) return &reply;
  }
  return nullptr;
}

void ReplyCache::store(const ev::Message& request, const ev::Message& reply) {
  if (!cacheable(request)) return;
  if (entries_.size() >= kCapacity) entries_.erase(entries_.begin());
  entries_.emplace_back(request.token, reply);
}

}  // namespace ioc::core
