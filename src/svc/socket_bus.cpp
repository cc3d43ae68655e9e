#include "svc/socket_bus.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "svc/frame.h"
#include "util/log.h"

namespace ioc::svc {

SocketBus::SocketBus(net::Network& network)
    : network_(&network), reactor_(std::make_unique<Reactor>()) {
  listen_fd_ = listen_loopback(0, &port_);
  if (listen_fd_ < 0) {
    throw std::runtime_error("SocketBus: cannot open loopback listener");
  }
  reactor_->add(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

SocketBus::~SocketBus() {
  // The owner drains in-flight work via pump_transport() before tearing the
  // bus down; anything still pending here is a hard stop — fail it so no
  // coroutine waits on an event that can never fire again.
  fail_all_pending();
  for (auto& [node, c] : out_) reactor_->del(c->fd());
  for (auto& [fd, c] : in_) reactor_->del(fd);
  if (listen_fd_ >= 0) {
    reactor_->del(listen_fd_);
    ::close(listen_fd_);
  }
}

Conn* SocketBus::conn_for_node(net::NodeId node) {
  auto it = out_.find(node);
  if (it != out_.end()) return it->second.get();
  const int fd = connect_loopback(port_);
  if (fd < 0) return nullptr;
  auto conn = std::make_unique<Conn>(fd);
  Conn* raw = conn.get();
  out_.emplace(node, std::move(conn));
  reactor_->add(fd, EPOLLIN | EPOLLOUT,
                [this, node](std::uint32_t ev) { on_outbound(node, ev); });
  return raw;
}

void SocketBus::update_interest(Conn& c) {
  reactor_->mod(c.fd(), c.want_write() ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

void SocketBus::on_accept() {
  for (;;) {
    std::uint64_t peer = 0;
    const int fd = accept_nonblocking(listen_fd_, &peer);
    if (fd < 0) return;
    // Serve only the connections conn_for_node opened. Any other local
    // process can reach the listener; its frames would be delivered as if
    // posted, and a broken one fails every post in flight.
    const bool own = std::any_of(out_.begin(), out_.end(), [&](const auto& o) {
      return local_address(o.second->fd()) == peer;
    });
    if (!own) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>(fd);
    in_.emplace(fd, std::move(conn));
    reactor_->add(fd, EPOLLIN,
                  [this, fd](std::uint32_t ev) { on_inbound(fd, ev); });
  }
}

void SocketBus::on_inbound(int fd, std::uint32_t) {
  auto it = in_.find(fd);
  if (it == in_.end()) return;
  Conn& c = *it->second;
  const bool alive = c.read_some();
  for (;;) {
    WireFrame f;
    std::string err;
    const int n = try_decode(c.rbuf(), &f, &err);
    if (n == 0) break;
    if (n < 0) {
      IOC_WARN << "SocketBus: dropping connection with broken framing: "
               << err;
      reactor_->del(fd);
      in_.erase(it);
      fail_all_pending();
      return;
    }
    c.consume(static_cast<std::size_t>(n));
    ++frames_received_;
    deliver(std::move(f));
  }
  if (!alive) {
    reactor_->del(fd);
    in_.erase(it);
  }
}

void SocketBus::on_outbound(net::NodeId node, std::uint32_t) {
  auto it = out_.find(node);
  if (it == out_.end()) return;
  Conn& c = *it->second;
  if (!c.flush()) {
    IOC_WARN << "SocketBus: outbound connection for node " << node
             << " failed";
    reactor_->del(c.fd());
    out_.erase(it);
    fail_all_pending();
    return;
  }
  update_interest(c);
}

void SocketBus::deliver(WireFrame f) {
  bool ok = false;
  if (ev::Endpoint* live = find(f.msg.to)) {
    ok = live->mailbox().try_put(std::move(f.msg));
  }
  if (!ok) ++dropped_;
  if (f.seq == 0) return;  // a fault-injected duplicate: confirms nothing
  auto it = pending_.find(f.seq);
  if (it == pending_.end()) return;
  Pending* p = it->second;
  pending_.erase(it);
  p->ok = ok;
  p->done.set();  // schedules the suspended post() on the simulator
}

void SocketBus::fail_all_pending() {
  for (auto& [seq, p] : pending_) {
    p->ok = false;
    p->done.set();
  }
  pending_.clear();
}

des::Task<bool> SocketBus::post(ev::EndpointId from, ev::EndpointId to,
                                ev::Message m, ev::TrafficClass cls) {
  ev::Endpoint* src = find(from);
  ev::Endpoint* dst = find(to);
  if (src == nullptr || dst == nullptr) {
    ++dropped_;
    co_return false;
  }
  auto& st = stats_[static_cast<int>(cls)];
  ++st.messages;
  st.bytes += m.size_bytes;
  m.from = from;
  m.to = to;
  ev::FaultHook::Decision fault;
  if (fault_ != nullptr) {
    fault = fault_->on_post(src->node(), dst->node(), m, cls);
  }
  if (fault.extra_delay > 0) {
    co_await des::delay(sim(), fault.extra_delay);
  }
  if (fault.drop) {
    // Same contract as the DES bus: the sender believes the message left;
    // recovery is the receiver-side timeout of whoever awaits the reply.
    ++injected_drops_;
    co_return true;
  }
  Conn* c = conn_for_node(src->node());
  if (c == nullptr) {
    ++dropped_;
    co_return false;
  }
  WireFrame f;
  f.seq = next_seq_++;
  f.traffic_class = static_cast<std::uint8_t>(cls);
  f.msg = std::move(m);
  std::string bytes;
  if (fault.duplicate) {
    WireFrame copy;
    copy.seq = 0;  // the duplicate confirms nothing
    copy.traffic_class = f.traffic_class;
    copy.msg = f.msg;
    encode_frame(copy, &bytes);
  }
  encode_frame(f, &bytes);
  Pending pending(sim());
  pending_.emplace(f.seq, &pending);
  c->queue_write(bytes);
  update_interest(*c);
  ++frames_sent_;
  co_await pending.done.wait();
  co_return pending.ok;
}

bool SocketBus::pump_transport() {
  // Nonblocking probe first: accept new connections, read whatever already
  // landed, flush whatever the kernel will take.
  reactor_->poll(0);
  bool buffered = false;
  for (auto& [node, c] : out_) buffered = buffered || c->want_write();
  if (pending_.empty() && !buffered) return false;
  // Work is in flight: wait briefly for the kernel to move it. Loopback
  // always progresses, so the owner's pump loop terminates.
  reactor_->poll(1);
  return true;
}

}  // namespace ioc::svc
