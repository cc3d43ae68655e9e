#include "ev/bus_if.h"

#include "util/log.h"

namespace ioc::ev {

const char* traffic_class_name(TrafficClass c) {
  switch (c) {
    case TrafficClass::kControl: return "control";
    case TrafficClass::kMetadata: return "metadata";
    case TrafficClass::kMonitoring: return "monitoring";
    case TrafficClass::kData: return "data";
  }
  return "?";
}

Endpoint& BusIf::open(net::NodeId node, std::string name) {
  EndpointId id = next_id_++;
  auto ep = std::make_unique<Endpoint>(sim(), id, node, std::move(name));
  Endpoint& ref = *ep;
  endpoints_.push_back(std::move(ep));  // id N lives at slot N-1
  return ref;
}

void BusIf::close(EndpointId id) {
  Endpoint* ep = find(id);
  if (ep == nullptr) return;
  ep->mailbox().close();
  endpoints_[id - 1].reset();  // tombstone: the id is never reused
}

Endpoint* BusIf::find_by_name(const std::string& name) {
  for (auto& ep : endpoints_) {
    if (ep != nullptr && ep->name() == name) return ep.get();
  }
  return nullptr;
}

std::vector<EndpointId> BusIf::endpoints_on(net::NodeId node) const {
  std::vector<EndpointId> out;
  for (const auto& ep : endpoints_) {
    if (ep != nullptr && ep->node() == node) out.push_back(ep->id());
  }
  return out;
}

void BusIf::close_node(net::NodeId node) {
  for (EndpointId id : endpoints_on(node)) close(id);
}

des::Task<Message> BusIf::request(EndpointId from, EndpointId to, Message m,
                                  TrafficClass cls, des::SimTime timeout) {
  if (m.token == 0) m.token = fresh_token();
  const std::uint64_t token = m.token;
  bool sent = co_await post(from, to, std::move(m), cls);
  if (!sent) {
    Message err;
    err.type_id = kMidErrUnreachable;
    err.token = token;
    co_return err;
  }
  des::Timer timer;
  if (timeout > 0) {
    timer = sim().timer_in(timeout, [this, from, token] {
      if (Endpoint* ep = find(from)) {
        // Value-initialized so the empty payload's unused buffer is zeroed:
        // under -fsanitize=address GCC otherwise warns that moving it into
        // the mailbox reads uninitialized bytes. Once per timeout, not hop.
        Message t{};
        t.type_id = kMidErrTimeout;
        t.token = token;
        ep->mailbox().try_put(std::move(t));
      }
    });
  }
  // Re-resolve the endpoint each round: it may be closed (even destroyed)
  // while we are suspended, e.g. by an injected node crash.
  while (Endpoint* self = find(from)) {
    auto reply = co_await self->mailbox().get();
    if (!reply.has_value()) break;  // endpoint closed underneath us
    if (reply->token == token) {
      timer.cancel();
      co_return std::move(*reply);
    }
    IOC_WARN << "bus: endpoint " << from
             << " discarding out-of-band message " << reply->type()
             << " while awaiting token " << token;
  }
  timer.cancel();
  Message err;
  err.type_id = kMidErrClosed;
  err.token = token;
  co_return err;
}

const TrafficStats& BusIf::stats(TrafficClass c) const {
  return stats_[static_cast<int>(c)];
}

}  // namespace ioc::ev
