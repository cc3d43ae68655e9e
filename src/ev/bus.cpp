#include "ev/bus.h"

#include "util/log.h"

namespace ioc::ev {

Bus::Bus(net::Network& network) : network_(&network) {}

des::Task<bool> Bus::post(EndpointId from, EndpointId to, Message m,
                          TrafficClass cls) {
  Endpoint* src = find(from);
  Endpoint* dst = find(to);
  if (src == nullptr || dst == nullptr) {
    ++dropped_;
    co_return false;
  }
  auto& st = stats_[static_cast<int>(cls)];
  ++st.messages;
  st.bytes += m.size_bytes;
  m.from = from;
  m.to = to;
  const net::NodeId src_node = src->node();
  const net::NodeId dst_node = dst->node();
  FaultHook::Decision fault;
  if (fault_ != nullptr) fault = fault_->on_post(src_node, dst_node, m, cls);
  net::Transfer transfer(*network_, src_node, dst_node, m.size_bytes);
  while (!transfer.done()) co_await transfer;
  if (fault.drop) {
    // A lossy-transport drop: the sender already paid the send cost and
    // believes the message left; nothing arrives. Recovery is the
    // receiver-side timeout + retry of whoever awaits the reply.
    ++injected_drops_;
    co_return true;
  }
  if (fault.extra_delay > 0) {
    co_await des::delay(sim(), fault.extra_delay);
  }
  // The destination may have closed while the message was in flight.
  Endpoint* live = find(to);
  if (live == nullptr) {
    ++dropped_;
    co_return false;
  }
  if (fault.duplicate) {
    Message copy = m;
    live->mailbox().try_put(std::move(copy));
  }
  if (!live->mailbox().try_put(std::move(m))) {
    ++dropped_;
    co_return false;
  }
  co_return true;
}

}  // namespace ioc::ev
