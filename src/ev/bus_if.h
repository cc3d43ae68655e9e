// Transport-agnostic bus contract. Everything the control plane needs from
// a message bus — endpoints with mailboxes, post, request/reply, traffic
// accounting, the fault-injection hook — lives here, so the *same*
// core::Container / protocol-FSM / GM-round translation units drive either
// transport, selected at composition time:
//
//   * ev::Bus (bus.h): the DES transport. Delivery pays the modeled
//     network cost on the virtual clock — the simulation mode every bench
//     and chaos soak runs in.
//   * svc::SocketBus (svc/socket_bus.h): the live transport. Delivery
//     serializes the message into a length-prefixed frame, writes it
//     through a real nonblocking kernel socket, and re-enqueues it into
//     the destination mailbox when the reactor reads it back.
//
// The endpoint table, token counter, traffic ledger, and the request/reply
// ladder are deliberately implemented *once*, in this base class: identical
// bookkeeping in both modes is what makes the DES-vs-socket equivalence
// test (tests/svc_test.cpp) meaningful. Only delivery itself — post() —
// and the clock/network accessors are transport-specific. See DESIGN.md
// §17 for the contract and its invariants.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "des/process.h"
#include "des/queue.h"
#include "ev/message.h"
#include "net/cluster.h"

namespace ioc::net {
class Network;
}

namespace ioc::ev {

/// Traffic classes for the accounting ledger.
enum class TrafficClass {
  kControl,    ///< manager-to-manager point-to-point control
  kMetadata,   ///< endpoint/contact metadata exchanges inside a container
  kMonitoring, ///< monitoring overlay samples
  kData,       ///< bulk data notifications (DataTap metadata pushes)
};
const char* traffic_class_name(TrafficClass c);

struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// Synthetic reply types request() resolves to when no real reply can
// arrive. Callers distinguish them by interned id (kMidErr*); the strings
// remain the canonical spelling for logs and replay.
inline constexpr const char* kErrUnreachable = "ERROR/unreachable";
inline constexpr const char* kErrClosed = "ERROR/closed";
inline constexpr const char* kErrTimeout = "ERROR/timeout";
inline const MessageId kMidErrUnreachable = intern_type(kErrUnreachable);
inline const MessageId kMidErrClosed = intern_type(kErrClosed);
inline const MessageId kMidErrTimeout = intern_type(kErrTimeout);

/// The retry ladder of a request/reply round: a deadline per attempt, then
/// a bounded number of resends with capped exponential backoff between
/// them. core::Coordinator::run_round and txn::TxnHarness's gathers climb it.
struct RoundOptions {
  /// Deadline for one attempt. 0 waits forever (no ladder: the first reply,
  /// whenever it comes, ends the round).
  des::SimTime timeout = 0;
  /// Resend attempts after the first send.
  int retries = 3;
  des::SimTime backoff = 500 * des::kMillisecond;
  des::SimTime backoff_cap = 4 * des::kSecond;
};

/// The ladder's one decision, made after attempt `attempt` (0-based) of a
/// round failed: the backoff to wait before resending, or nullopt to give
/// up so the caller escalates. It gives up once the retries are spent, and
/// at once when the peer is gone — a vanished endpoint never comes back
/// (a crash destroys endpoints; a restart does not resurrect them), so a
/// resend would only burn the clock. Pure, so the model checker
/// (src/verify) asks the same question the runtime does.
inline std::optional<des::SimTime> ladder_step(const RoundOptions& opt,
                                               int attempt, bool peer_gone) {
  if (peer_gone || attempt >= opt.retries) return std::nullopt;
  return std::min(opt.backoff << attempt, opt.backoff_cap);
}

/// Interception point for deterministic fault injection (src/fault). The
/// bus consults the installed hook once per delivery, after the transfer
/// cost has been paid — a dropped message still looks like a successful
/// send at the source, exactly as on a lossy fabric. The hook must be
/// deterministic given the event order (seeded RNG, no wall-clock).
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  struct Decision {
    bool drop = false;           ///< deliver nothing
    bool duplicate = false;      ///< deliver a second copy
    des::SimTime extra_delay = 0;  ///< added before delivery
  };
  virtual Decision on_post(net::NodeId src, net::NodeId dst,
                           const Message& m, TrafficClass cls) = 0;
};

class Endpoint {
 public:
  Endpoint(des::Simulator& sim, EndpointId id, net::NodeId node,
           std::string name)
      : id_(id), node_(node), name_(std::move(name)), mailbox_(sim) {}

  EndpointId id() const { return id_; }
  net::NodeId node() const { return node_; }
  const std::string& name() const { return name_; }
  des::Queue<Message>& mailbox() { return mailbox_; }

 private:
  EndpointId id_;
  net::NodeId node_;
  std::string name_;
  des::Queue<Message> mailbox_;
};

/// Abstract bus. Endpoint lifecycle, naming, the traffic ledger, and the
/// request/reply protocol are concrete and shared; delivery (post) is the
/// transport-specific hole. No transport #ifdefs exist anywhere in
/// src/core — a deployment picks its transport by constructing one of the
/// two implementations and handing it to Container::Env::bus.
class BusIf {
 public:
  virtual ~BusIf() = default;

  /// The simulator executing the control-plane coroutines. In DES mode it
  /// is the whole world; in live mode it is the single-threaded execution
  /// engine the svc::Reactor pumps between socket events.
  virtual des::Simulator& sim() const = 0;
  /// The modeled interconnect (data-plane streams and state migration cost
  /// it in both modes).
  virtual net::Network& network() const = 0;

  /// Deliver a message: transport-specific. Resolves true once the message
  /// reached the destination mailbox, false if the destination vanished.
  virtual des::Task<bool> post(EndpointId from, EndpointId to, Message m,
                               TrafficClass cls = TrafficClass::kControl) = 0;

  /// Transport quiescing hook for teardown: make progress on in-flight
  /// deliveries that the simulator alone cannot advance (frames sitting in
  /// kernel socket buffers). Returns true if progress was made or work
  /// remains; the DES transport has no such work and returns false.
  virtual bool pump_transport() { return false; }

  // --- endpoint table (shared across transports) -------------------------
  /// Create an endpoint on a node. Names are for diagnostics/lookup and need
  /// not be unique (replicas share a base name).
  Endpoint& open(net::NodeId node, std::string name);
  /// Drop an endpoint: closes its mailbox; late sends are counted and
  /// dropped.
  void close(EndpointId id);

  Endpoint* find(EndpointId id) {
    if (id == 0 || id > endpoints_.size()) return nullptr;
    return endpoints_[id - 1].get();
  }
  /// First live endpoint with the given name, or nullptr.
  Endpoint* find_by_name(const std::string& name);
  /// Every live endpoint currently placed on `node`.
  std::vector<EndpointId> endpoints_on(net::NodeId node) const;
  /// Close every endpoint on `node` — the bus-level effect of a node crash.
  /// Loops blocked on those mailboxes observe end-of-stream and finish.
  void close_node(net::NodeId node);

  /// Send `m` to `to` and suspend until a reply carrying the same token
  /// arrives in `from`'s mailbox. The caller owns the mailbox: no other
  /// receiver may consume from it concurrently. When `timeout` is positive
  /// and no reply arrives within it, resolves to a kErrTimeout message
  /// instead of blocking forever; the timeout timer is cancelled the moment
  /// a real reply lands, so it can never leak into a later exchange.
  /// Implemented once, on top of the virtual post() — both transports run
  /// the exact same request ladder.
  des::Task<Message> request(EndpointId from, EndpointId to, Message m,
                             TrafficClass cls = TrafficClass::kControl,
                             des::SimTime timeout = 0);

  std::uint64_t fresh_token() { return next_token_++; }

  /// Install (or clear, with nullptr) the fault-injection hook. The hook
  /// must outlive its installation window.
  void set_fault_hook(FaultHook* hook) { fault_ = hook; }
  FaultHook* fault_hook() const { return fault_; }

  const TrafficStats& stats(TrafficClass c) const;
  std::uint64_t dropped() const { return dropped_; }
  /// Messages the fault hook silently dropped (not counted in dropped()).
  std::uint64_t injected_drops() const { return injected_drops_; }

 protected:
  // Endpoints indexed by id (id N lives at slot N-1); closed endpoints
  // leave a null tombstone so ids stay unique and find() stays O(1).
  // Iteration in slot order matches the id-ordered walk the former
  // std::map did, so name lookup and close_node order are unchanged.
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  EndpointId next_id_ = 1;
  std::uint64_t next_token_ = 1;
  TrafficStats stats_[4];
  std::uint64_t dropped_ = 0;
  std::uint64_t injected_drops_ = 0;
  FaultHook* fault_ = nullptr;
};

}  // namespace ioc::ev
