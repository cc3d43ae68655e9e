#include "core/container.h"

#include <algorithm>

#include "core/rounds.h"
#include "trace/sink.h"
#include "util/check.h"
#include "util/log.h"

namespace ioc::core {

using des::SimTime;

Container::Container(Env env, ContainerSpec spec,
                     std::vector<net::NodeId> nodes, net::NodeId head_node,
                     dt::Stream* input)
    : env_(std::move(env)),
      spec_(std::move(spec)),
      name_id_(util::intern(spec_.name)),
      head_node_(head_node),
      input_(input),
      disk_group_(spec_.name + ".out"),
      done_(*env_.sim) {
  output_ = std::make_unique<dt::Stream>(env_.bus->network(), head_node_,
                                         env_.stream_config);
  mgr_ep_ = env_.bus->open(head_node_, "cm." + spec_.name).id();
  disk_group_.define_var({"data", sio::DataType::kByte, {0}});
  hashing_enabled_ = spec_.hash_output;
  state_ = spec_.starts_offline ? State::kOffline : State::kOnline;
  for (net::NodeId n : nodes) add_replica(n);
}

Container::~Container() { shutdown(); }

void Container::shutdown() {
  for (auto& r : replicas_) {
    if (r->ep != ev::kInvalidEndpoint) {
      env_.bus->close(r->ep);
      r->ep = ev::kInvalidEndpoint;
    }
    if (r->stop) r->stop->set();
  }
  if (mgr_ep_ != ev::kInvalidEndpoint) {
    env_.bus->close(mgr_ep_);
    mgr_ep_ = ev::kInvalidEndpoint;
  }
  if (output_) output_->close();
}

void Container::fence() {
  if (mgr_ep_ == ev::kInvalidEndpoint && replicas_.empty() &&
      state_ == State::kOffline) {
    return;  // already fenced / torn down
  }
  IOC_WARN << "container " << name() << " fenced";
  state_ = State::kOffline;
  fenced_ = true;
  is_sink_ = false;
  disk_mode_ = false;
  for (auto& r : replicas_) {
    if (r->ep != ev::kInvalidEndpoint) {
      env_.bus->close(r->ep);
      r->ep = ev::kInvalidEndpoint;
    }
    if (r->stop) r->stop->set();
  }
  if (input_ != nullptr) input_->kick();  // wake readers parked on the input
  for (auto& r : replicas_) fenced_replicas_.push_back(std::move(r));
  replicas_.clear();
  if (mgr_ep_ != ev::kInvalidEndpoint) {
    env_.bus->close(mgr_ep_);
    mgr_ep_ = ev::kInvalidEndpoint;
  }
  output_->close();
  done_.set();
}

void Container::start() {
  started_ = true;
  manager_proc_ = spawn(*env_.sim, manager_loop());
  if (env_.heartbeat_interval > 0) {
    heartbeat_proc_ = spawn(*env_.sim, heartbeat_loop());
  }
  for (auto& r : replicas_) {
    if (r->proc.valid()) continue;
    if (spec_.model == sp::ComputeModel::kRoundRobin ||
        r.get() == replicas_.front().get()) {
      r->proc = spawn(*env_.sim, replica_loop(r.get()));
    }
  }
}

void Container::add_replica(net::NodeId node) {
  auto r = std::make_unique<Replica>();
  r->node = node;
  r->ep = env_.bus->open(node, spec_.name + ".replica").id();
  r->stop = std::make_unique<des::Event>(*env_.sim);
  if (started_ && state_ == State::kOnline) {
    const bool runs_loop = spec_.model == sp::ComputeModel::kRoundRobin ||
                           replicas_.empty();
    if (runs_loop) r->proc = spawn(*env_.sim, replica_loop(r.get()));
  }
  replicas_.push_back(std::move(r));
}

std::vector<net::NodeId> Container::nodes() const {
  std::vector<net::NodeId> out;
  for (const auto& r : replicas_) out.push_back(r->node);
  return out;
}

double Container::service_seconds(std::uint64_t items) const {
  return env_.cost->step_seconds(spec_.kind, spec_.model, items,
                                 std::max<std::uint32_t>(width(), 1),
                                 spec_.threads_per_node);
}

std::uint32_t Container::nodes_needed(std::uint64_t items) const {
  if (items == 0) return 0;
  const double target = 1.0 / env_.pipeline->output_interval_s;
  const std::uint32_t needed = env_.cost->width_for_throughput(
      spec_.kind, spec_.model, items, target, spec_.threads_per_node);
  return needed > width() ? needed - width() : 0;
}

des::Process Container::replica_loop(Replica* r) {
  while (!r->stop->is_set()) {
    auto step = co_await input_->read(r->node, r->stop.get());
    if (!step.has_value()) {
      if (!r->stop->is_set()) r->eof = true;
      break;
    }
    co_await process_step(r, std::move(*step));
  }
  maybe_done();
}

void Container::maybe_done() {
  if (state_ != State::kOnline || replicas_.empty()) return;
  for (const auto& r : replicas_) {
    if (r->proc.valid() && !r->eof) return;
  }
  // All processing replicas hit end-of-stream: this stage is finished.
  output_->close();
  done_.set();
}

des::Task<void> Container::process_step(Replica* r, dt::StepData step) {
  (void)r;
  last_items_ = step.items;
  const double svc = service_seconds(step.items);
  co_await des::delay(*env_.sim, des::from_seconds(svc));
  const dt::StepData in = step;  // keep timestamps for metrics
  co_await emit_output(std::move(step));
  ++steps_processed_;
  const double lat = des::to_seconds(env_.sim->now() - in.ingress);
  latency_.add(lat);
  // A step finishing while the container is being torn down must not feed
  // stale samples into the hub (they would outlive the management action).
  if (state_ != State::kOnline) co_return;
  // The per-timestep span mirrors the latency metric exactly (same start,
  // same end, same online gate) so trace totals reconcile with the hub.
  if (trace::active(env_.trace)) {
    env_.trace->span("step", "container", name(), in.step, in.ingress,
                     env_.sim->now(),
                     {{"queue_depth", static_cast<double>(input_->backlog())},
                      {"bytes", static_cast<double>(in.bytes)},
                      {"items", static_cast<double>(in.items)}});
  }
  const std::uint32_t cadence = std::max<std::uint32_t>(1, spec_.monitor_every);
  if (steps_processed_ % cadence == 0) {
    co_await post_metric(mon::MetricKind::kLatency, in.step, lat, name());
    co_await post_metric(mon::MetricKind::kQueueDepth, in.step,
                         static_cast<double>(input_->backlog()), name());
  }
  if (is_sink_) {
    if (trace::active(env_.trace)) {
      env_.trace->span("e2e", "pipeline", "pipeline", in.step, in.origin,
                       env_.sim->now());
    }
    co_await post_metric(mon::MetricKind::kEndToEnd, in.step,
                         des::to_seconds(env_.sim->now() - in.origin),
                         "pipeline");
  }
}

des::Task<void> Container::emit_output(dt::StepData in) {
  dt::StepData out = std::move(in);
  out.bytes = static_cast<std::uint64_t>(
      static_cast<double>(out.bytes) * spec_.output_ratio);
  out.created = env_.sim->now();
  if (hashing_enabled_) out.checksum = dt::step_checksum(out);
  // The last online stage of the pipeline writes to disk (the paper: "After
  // this stage, the data is written to disk"), as does any stage switched to
  // disk mode by the offline path — the latter labels the data with its
  // processing provenance.
  if (disk_mode_ || is_sink_) {
    if (disk_writer_ == nullptr) {
      disk_writer_ = std::make_unique<sio::Writer>(
          *env_.sim, disk_group_,
          std::make_shared<sio::PosixMethod>(*env_.fs));
    }
    disk_writer_->open(out.step);
    disk_writer_->write_bytes("data", out.bytes, out.payload);
    if (disk_mode_) {
      disk_writer_->attribute(sio::kAttrProvenance, provenance_);
      if (!pending_.empty()) {
        disk_writer_->attribute(sio::kAttrPending, pending_);
      }
    }
    if (hashing_enabled_) {
      disk_writer_->attribute("ioc.hash", std::to_string(out.checksum));
    }
    co_await disk_writer_->close();
  } else if (!output_->closed()) {
    co_await output_->write(std::move(out));
  }
}

des::Task<void> Container::post_metric(mon::MetricKind kind,
                                       std::uint64_t step, double value,
                                       const std::string& source) {
  if (gm_ep_ == ev::kInvalidEndpoint) co_return;
  mon::MetricSample s;
  s.source = source;
  s.kind = kind;
  s.step = step;
  s.value = value;
  s.at = env_.sim->now();
  ev::Message m;
  m.type_id = kMidMetric;
  m.size_bytes = 128;
  m.payload = s;
  co_await env_.bus->post(mgr_ep_, gm_ep_, std::move(m),
                          ev::TrafficClass::kMonitoring);
}

des::Process Container::heartbeat_loop() {
  while (env_.heartbeat_interval > 0 && !heartbeats_stopped_) {
    co_await des::delay(*env_.sim, env_.heartbeat_interval);
    if (heartbeats_stopped_) break;
    if (state_ != State::kOnline || mgr_ep_ == ev::kInvalidEndpoint) break;
    if (gm_ep_ == ev::kInvalidEndpoint) continue;
    ev::Message m;
    m.type_id = kMidHeartbeat;
    m.size_bytes = 32;
    const ev::EndpointId src = mgr_ep_;
    const bool ok = co_await env_.bus->post(src, gm_ep_, std::move(m),
                                            ev::TrafficClass::kMonitoring);
    // Only a delivery failure while this container is itself alive indicts
    // the GM: a crashed container's own endpoint is gone too, and a fault-
    // injected drop reports success by design (lossy-fabric semantics).
    if (!ok && env_.bus->find(src) != nullptr && state_ == State::kOnline &&
        env_.on_gm_unreachable) {
      env_.on_gm_unreachable();
    }
  }
}

des::Task<void> Container::metadata_exchange(std::size_t new_replicas,
                                             std::size_t existing,
                                             ProtocolReport& report) {
  const SimTime t0 = env_.sim->now();
  const std::uint32_t writers = env_.upstream_width(spec_.upstream);
  // fence() empties replicas_ while a post is in flight, so the exchange
  // stops at the first post that returns to a fenced container.
  for (std::size_t i = existing; i < existing + new_replicas; ++i) {
    Replica& r = *replicas_.at(i);
    ev::Message cfg;
    cfg.type_id = kMidReplicaConfig;
    cfg.size_bytes = 512;
    co_await env_.bus->post(mgr_ep_, r.ep, std::move(cfg),
                            ev::TrafficClass::kMetadata);
    if (fenced_) co_return;
    ev::Message hello;
    hello.type_id = kMidReplicaHello;
    co_await env_.bus->post(r.ep, mgr_ep_, std::move(hello),
                            ev::TrafficClass::kMetadata);
    if (fenced_) co_return;
    report.metadata_messages += 2;
    // Contact exchange with the peer replicas already in the container.
    for (std::size_t j = 0; j < existing; ++j) {
      ev::Message peer;
      peer.type_id = kMidReplicaConfig;
      co_await env_.bus->post(r.ep, replicas_[j]->ep, std::move(peer),
                              ev::TrafficClass::kMetadata);
      if (fenced_) co_return;
      ++report.metadata_messages;
    }
    // Every upstream DataTap writer must learn the new replica's contact
    // information before it can serve pulls to it.
    for (std::uint32_t w = 0; w < writers; ++w) {
      ev::Message contact;
      contact.type_id = kMidEndpointUpdate;
      contact.size_bytes = 512;
      co_await env_.bus->post(mgr_ep_, r.ep, std::move(contact),
                              ev::TrafficClass::kMetadata);
      if (fenced_) co_return;
      ++report.metadata_messages;
    }
  }
  report.metadata_exchange += env_.sim->now() - t0;
}

des::Task<void> Container::endpoint_update(ProtocolReport& report) {
  const SimTime t0 = env_.sim->now();
  const std::uint32_t writers = env_.upstream_width(spec_.upstream);
  ev::EndpointId target = mgr_ep_;
  if (!spec_.upstream.empty()) {
    if (ev::Endpoint* up = env_.bus->find_by_name("cm." + spec_.upstream)) {
      target = up->id();
    }
  }
  for (std::uint32_t w = 0; w < writers; ++w) {
    ev::Message m;
    m.type_id = kMidEndpointUpdate;
    co_await env_.bus->post(mgr_ep_, target, std::move(m),
                            ev::TrafficClass::kMetadata);
    ++report.metadata_messages;
  }
  report.endpoint_update += env_.sim->now() - t0;
}

des::Task<void> Container::migrate_state(std::size_t replica_count,
                                         bool to_replicas,
                                         ProtocolReport& report) {
  if (!spec_.stateful || replica_count == 0) co_return;
  const des::SimTime t0 = env_.sim->now();
  auto& net = env_.bus->network();
  for (std::size_t i = 0; i < replica_count && i < replicas_.size(); ++i) {
    const net::NodeId node = replicas_[replicas_.size() - 1 - i]->node;
    if (to_replicas) {
      co_await net.transfer(head_node_, node, spec_.state_bytes);
    } else {
      co_await net.transfer(node, head_node_, spec_.state_bytes);
    }
  }
  report.state_migration += env_.sim->now() - t0;
}

des::Task<void> Container::stop_replicas(std::size_t from) {
  for (std::size_t i = from; i < replicas_.size(); ++i) {
    replicas_[i]->stop->set();
  }
  input_->kick();
  for (std::size_t i = from; i < replicas_.size(); ++i) {
    if (replicas_[i]->proc.valid()) co_await replicas_[i]->proc;
  }
}

std::vector<net::NodeId> Container::release(std::size_t from) {
  std::vector<net::NodeId> freed;
  for (std::size_t i = from; i < replicas_.size(); ++i) {
    freed.push_back(replicas_[i]->node);
    env_.bus->close(replicas_[i]->ep);
  }
  replicas_.resize(from);
  return freed;
}

des::Task<bool> Container::launch(std::vector<net::NodeId> nodes,
                                  ProtocolReport& report) {
  const SimTime t0 = env_.sim->now();
  co_await env_.batch->aprun_launch();
  report.aprun = env_.sim->now() - t0;
  if (fenced_) co_return false;  // evicted while launching: the grant is gone
  const std::size_t existing = replicas_.size();
  for (net::NodeId n : nodes) add_replica(n);
  co_await metadata_exchange(nodes.size(), existing, report);
  co_return !fenced_;  // evicted during the exchange: the replicas are gone
}

DonePayload Container::evicted(DonePayload done, bool paused) {
  if (paused) input_->resume();
  done.report.ok = false;
  return done;
}

des::Task<DonePayload> Container::do_increase(std::vector<net::NodeId> add) {
  DonePayload done;
  ProtocolReport& rep = done.report;
  rep.action = "increase";
  rep.container = name();
  rep.delta = static_cast<int>(add.size());
  const SimTime t0 = env_.sim->now();
  // Refused: nothing to add, not online, or a serial component, which
  // cannot use more nodes.
  if (add.empty() || state_ != State::kOnline ||
      spec_.model == sp::ComputeModel::kSerial) {
    rep.ok = false;
    co_return done;
  }
  // New round-robin or tree replicas join the running cohort: no pause
  // required. An MPI-style instance cannot grow in place: pause the
  // upstream writers, tear the instance down, and relaunch at the larger
  // width (Section III-D's discussion of aprun and MPI).
  const bool relaunch = spec_.model == sp::ComputeModel::kParallel;
  // A round-robin or tree container decreased to width 0 kept its input
  // paused; the replicas this increase brings back resume it.
  const bool paused = relaunch || input_->paused();
  std::vector<net::NodeId> nodes;
  if (relaunch) {
    const SimTime tp = env_.sim->now();
    co_await input_->pause();
    rep.pause_wait = env_.sim->now() - tp;
    co_await stop_replicas(0);
    if (fenced_) co_return evicted(std::move(done), true);
    nodes = release(0);
  }
  nodes.insert(nodes.end(), add.begin(), add.end());
  auto up = launch(std::move(nodes), rep);
  const bool launched = co_await up;
  if (!launched) co_return evicted(std::move(done), paused);
  if (!relaunch) co_await migrate_state(add.size(), /*to_replicas=*/true, rep);
  co_await endpoint_update(rep);
  if (paused) input_->resume();
  rep.total = env_.sim->now() - t0;
  co_return done;
}

des::Task<DonePayload> Container::do_decrease(std::uint32_t count) {
  DonePayload done;
  ProtocolReport& rep = done.report;
  rep.action = "decrease";
  rep.container = name();
  rep.delta = -static_cast<int>(count);
  const SimTime t0 = env_.sim->now();
  count = std::min<std::uint32_t>(count, width());
  if (count == 0) {
    rep.ok = false;
    co_return done;
  }
  // Ask the upstream DataTap writers to pause so no timestep is lost while
  // the container shrinks — the dominant decrease cost (Fig. 5). The pause
  // accounting includes draining the victims' in-progress work, since a
  // replica cannot be removed mid-step.
  const SimTime tp = env_.sim->now();
  co_await input_->pause();
  if (fenced_) co_return evicted(std::move(done), true);
  // The last `count` round-robin or tree replicas leave, handing their
  // state back first. An MPI-style instance cannot shrink in place: all of
  // it stops, and the survivors relaunch.
  const bool relaunch = spec_.model == sp::ComputeModel::kParallel;
  const std::size_t from = relaunch ? 0 : replicas_.size() - count;
  co_await stop_replicas(from);
  rep.pause_wait = env_.sim->now() - tp;
  if (!relaunch) co_await migrate_state(count, /*to_replicas=*/false, rep);
  if (fenced_) co_return evicted(std::move(done), true);
  std::vector<net::NodeId> nodes = release(from);
  const std::size_t keep = nodes.size() - count;
  done.freed_nodes.assign(nodes.begin() + static_cast<std::ptrdiff_t>(keep),
                          nodes.end());
  nodes.resize(keep);
  if (!nodes.empty()) {
    auto up = launch(std::move(nodes), rep);
    const bool launched = co_await up;
    if (!launched) co_return evicted(std::move(done), true);
  }
  co_await endpoint_update(rep);
  if (state_ == State::kOnline && !replicas_.empty()) input_->resume();
  IOC_CHECK(done.freed_nodes.size() == count)
      << "decrease of " << name() << " freed " << done.freed_nodes.size()
      << " nodes, expected " << count;
  rep.total = env_.sim->now() - t0;
  co_return done;
}

des::Task<DonePayload> Container::do_offline() {
  state_ = State::kOffline;  // silences metric emission immediately
  is_sink_ = false;
  DonePayload done = co_await do_decrease(width());
  done.report.action = "offline";
  IOC_CHECK(replicas_.empty())
      << "container " << name() << " still holds replicas after offline";
  output_->close();
  done_.set();
  co_return done;
}

des::Task<void> Container::do_switch_to_disk(const SwitchToDiskPayload& p) {
  disk_mode_ = true;
  provenance_ = p.provenance;
  pending_ = p.pending;
  is_sink_ = true;
  output_->close();  // downstream is gone; end its readers cleanly
  co_return;
}

des::Task<DonePayload> Container::do_activate(std::vector<net::NodeId> nodes) {
  DonePayload done;
  ProtocolReport& rep = done.report;
  rep.action = "activate";
  rep.container = name();
  rep.delta = static_cast<int>(nodes.size());
  const SimTime t0 = env_.sim->now();
  if (state_ == State::kOnline || nodes.empty()) {
    rep.ok = false;
    co_return done;
  }
  state_ = State::kOnline;
  fenced_ = false;  // a fenced container may be resurrected via activate
  auto up = launch(std::move(nodes), rep);
  const bool launched = co_await up;
  if (!launched) co_return evicted(std::move(done), false);
  co_await endpoint_update(rep);
  rep.total = env_.sim->now() - t0;
  co_return done;
}

des::Process Container::manager_loop() {
  // A GM retry (or a fault-injected duplicate) re-delivers the same token;
  // replaying the cached reply keeps each request at-most-once — a resize
  // must not execute twice because its DONE was lost in flight.
  ReplyCache served;
  while (true) {
    // Re-resolve every iteration: an injected node crash (or a fence)
    // destroys the endpoint while this loop is suspended in a handler.
    ev::Endpoint* ep = env_.bus->find(mgr_ep_);
    if (ep == nullptr) break;
    auto msg = co_await ep->mailbox().get();
    if (!msg.has_value()) break;

    if (const ev::Message* cached = served.find(*msg)) {
      ev::Message again = *cached;
      co_await env_.bus->post(mgr_ep_, msg->from, std::move(again));
      continue;
    }

    ev::Message reply;
    reply.type_id = kMidDone;
    reply.token = msg->token;

    // NOTE: tasks are materialized into named locals before co_await; GCC 12
    // miscompiles non-trivial temporaries inside co_await full-expressions
    // (double destruction of the coroutine argument copies).
    if (msg->type_id == kMidIncrease || msg->type_id == kMidActivate) {
      const auto* p = msg->as<IncreasePayload>();
      std::vector<net::NodeId> nodes;
      if (p != nullptr) nodes = p->nodes;
      auto task = msg->type_id == kMidIncrease
                      ? do_increase(std::move(nodes))
                      : do_activate(std::move(nodes));
      reply.payload = co_await task;
    } else if (msg->type_id == kMidDecrease) {
      const auto* p = msg->as<DecreasePayload>();
      auto task = do_decrease(p != nullptr ? p->count : 0);
      reply.payload = co_await task;
    } else if (msg->type_id == kMidOffline) {
      auto task = do_offline();
      reply.payload = co_await task;
    } else if (msg->type_id == kMidQueryNeeds) {
      NeedsPayload needs;
      needs.extra_nodes = nodes_needed(last_items_);
      needs.predicted_latency = env_.cost->step_seconds(
          spec_.kind, spec_.model, last_items_, width() + needs.extra_nodes,
          spec_.threads_per_node);
      reply.type_id = kMidNeeds;
      reply.payload = needs;
    } else if (msg->type_id == kMidSwitchToDisk) {
      const auto* p = msg->as<SwitchToDiskPayload>();
      SwitchToDiskPayload payload;
      if (p != nullptr) payload = *p;
      auto task = do_switch_to_disk(payload);
      co_await task;
    } else if (msg->type_id == kMidEnableHashes) {
      const auto* p = msg->as<EnableHashesPayload>();
      hashing_enabled_ = p == nullptr || p->enabled;
    } else if (msg->type_id == kMidEndpointUpdate ||
               msg->type_id == kMidReplicaConfig ||
               msg->type_id == kMidReplicaHello) {
      continue;  // informational traffic from neighbours
    } else {
      IOC_WARN << "container " << name() << ": unknown control message "
               << msg->type();
      continue;
    }
    served.store(*msg, reply);
    co_await env_.bus->post(mgr_ep_, msg->from, std::move(reply));
  }
}

}  // namespace ioc::core
