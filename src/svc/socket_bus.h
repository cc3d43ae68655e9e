// The live transport: ev::BusIf over real nonblocking loopback sockets.
// post() encodes the message into a length-prefixed frame (svc/frame.h),
// writes it through a per-source-node TCP connection back to the bus's own
// listener, and suspends the posting coroutine until the reactor has read
// the frame off the wire and enqueued it into the destination mailbox. The
// kernel socket is therefore really in the delivery path — frames cross
// send/receive buffers, short reads and writes happen, TCP preserves
// per-connection FIFO — while the control plane above (Container, protocol
// FSM, GM rounds) runs unmodified: it sees the same BusIf surface as the
// DES transport.
//
// Execution model: virtual time free-runs. The des::Simulator stays the
// single-threaded coroutine executor; the owner alternates "pump the
// simulator to idle" with pump_transport() (or a host reactor poll), and
// frame arrival schedules the events that resume suspended post() calls.
// Everything happens on one thread; there are no locks anywhere.
//
// The listener is reachable by any local process, so it serves only the
// connections the bus opened itself and closes every other one at accept.
//
// Fault-hook semantics mirror the DES bus: drop counts injected_drops_ and
// still reports a successful send; duplicate writes a second frame with
// seq 0 (delivered, but confirming nothing); extra_delay is virtual-clock
// delay before the send.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "des/event.h"
#include "ev/bus_if.h"
#include "net/network.h"
#include "svc/frame.h"
#include "svc/reactor.h"
#include "svc/socket.h"

namespace ioc::svc {

class SocketBus : public ev::BusIf {
 public:
  /// Opens the loopback listener immediately; throws on failure.
  explicit SocketBus(net::Network& network);
  ~SocketBus() override;

  des::Simulator& sim() const override { return network_->cluster().sim(); }
  net::Network& network() const override { return *network_; }

  des::Task<bool> post(ev::EndpointId from, ev::EndpointId to, ev::Message m,
                       ev::TrafficClass cls = ev::TrafficClass::kControl)
      override;

  /// Flush and poll while deliveries are in flight. Returns false once the
  /// transport is quiescent (nothing pending, nothing buffered) — the
  /// owner's "pump sim, pump transport" loop terminates on that.
  bool pump_transport() override;

  /// The control listener's port (ephemeral; for diagnostics/tests).
  std::uint16_t port() const { return port_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }
  /// Posts currently suspended awaiting wire delivery.
  std::size_t in_flight() const { return pending_.size(); }

 private:
  struct Pending {
    des::Event done;
    bool ok = false;
    explicit Pending(des::Simulator& s) : done(s) {}
  };

  Conn* conn_for_node(net::NodeId node);
  void update_interest(Conn& c);
  void on_accept();
  void on_inbound(int fd, std::uint32_t events);
  void on_outbound(net::NodeId node, std::uint32_t events);
  void deliver(WireFrame f);
  /// A connection died or lost framing: every in-flight post fails rather
  /// than hang the teardown drain forever.
  void fail_all_pending();

  net::Network* network_;
  std::unique_ptr<Reactor> reactor_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::map<net::NodeId, std::unique_ptr<Conn>> out_;  // per-source senders
  std::map<int, std::unique_ptr<Conn>> in_;           // accepted receivers
  std::map<std::uint64_t, Pending*> pending_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace ioc::svc
