#include "fault/injector.h"

#include <string>

#include "util/log.h"

namespace ioc::fault {

const ClassFaults& FaultConfig::for_class(ev::TrafficClass c) const {
  switch (c) {
    case ev::TrafficClass::kControl: return control;
    case ev::TrafficClass::kMetadata: return metadata;
    case ev::TrafficClass::kMonitoring: return monitoring;
    case ev::TrafficClass::kData: return data;
  }
  return control;
}

FaultConfig FaultConfig::uniform(std::uint64_t seed, ClassFaults f) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.control = cfg.metadata = cfg.monitoring = cfg.data = f;
  return cfg;
}

Injector::Injector(ev::BusIf& bus, FaultConfig cfg)
    : bus_(&bus), cfg_(cfg), rng_(cfg.seed) {
  bus_->set_fault_hook(this);
}

Injector::~Injector() {
  for (auto& t : timers_) t.cancel();
  if (bus_->fault_hook() == this) bus_->set_fault_hook(nullptr);
}

void Injector::mark(const char* what, const char* cls_name) {
  if (trace::active(trace_)) {
    const des::SimTime now = bus_->sim().now();
    trace_->span(what, "fault", cls_name, 0, now, now);
  }
}

void Injector::partition(std::vector<net::NodeId> a,
                         std::vector<net::NodeId> b, des::SimTime from,
                         des::SimTime until) {
  Partition p;
  p.a.insert(a.begin(), a.end());
  p.b.insert(b.begin(), b.end());
  p.from = from;
  p.until = until;
  partitions_.push_back(std::move(p));
}

bool Injector::partitioned(net::NodeId src, net::NodeId dst) const {
  const des::SimTime now = bus_->sim().now();
  for (const auto& p : partitions_) {
    if (now < p.from || now >= p.until) continue;
    const bool ab = p.a.count(src) > 0 && p.b.count(dst) > 0;
    const bool ba = p.b.count(src) > 0 && p.a.count(dst) > 0;
    if (ab || ba) return true;
  }
  return false;
}

void Injector::schedule_crash(net::NodeId node, des::SimTime at,
                              des::SimTime restart_at) {
  auto& sim = bus_->sim();
  timers_.push_back(sim.timer_at(at, [this, node] {
    if (!down_.insert(node).second) return;  // already down
    ++stats_.crashes;
    IOC_WARN << "fault: node " << node << " crashed";
    mark("fault.crash", "node");
    bus_->close_node(node);
    if (crash_handler_) crash_handler_(node, /*up=*/false);
  }));
  if (restart_at > at) {
    timers_.push_back(sim.timer_at(restart_at, [this, node] {
      if (down_.erase(node) == 0) return;
      ++stats_.restarts;
      mark("fault.restart", "node");
      if (crash_handler_) crash_handler_(node, /*up=*/true);
    }));
  }
}

ev::FaultHook::Decision Injector::on_post(net::NodeId src, net::NodeId dst,
                                          const ev::Message& m,
                                          ev::TrafficClass cls) {
  (void)m;
  Decision d;
  const char* cls_name = ev::traffic_class_name(cls);
  if (node_down(src) || node_down(dst)) {
    ++stats_.crash_drops;
    mark("fault.node_drop", cls_name);
    d.drop = true;
    return d;
  }
  if (partitioned(src, dst)) {
    ++stats_.partition_drops;
    mark("fault.partition_drop", cls_name);
    d.drop = true;
    return d;
  }
  const ClassFaults& f = cfg_.for_class(cls);
  // Always draw all three decisions so the RNG stream (and therefore every
  // later decision) does not depend on which faults are enabled.
  const bool drop = rng_.chance(f.drop_rate);
  const bool dup = rng_.chance(f.duplicate_rate);
  const bool delay = rng_.chance(f.delay_rate);
  const double delay_frac = rng_.next_double();
  if (drop) {
    ++stats_.dropped;
    mark("fault.drop", cls_name);
    d.drop = true;
    return d;
  }
  if (dup) {
    ++stats_.duplicated;
    mark("fault.duplicate", cls_name);
    d.duplicate = true;
  }
  if (delay && f.delay_max > f.delay_min) {
    ++stats_.delayed;
    mark("fault.delay", cls_name);
    d.extra_delay =
        f.delay_min + static_cast<des::SimTime>(
                          delay_frac * static_cast<double>(f.delay_max -
                                                           f.delay_min));
  }
  return d;
}

void Injector::publish(trace::MetricsRegistry& reg) const {
  auto put = [&](const char* kind, std::uint64_t v) {
    reg.counter("ioc_fault_events_total",
                std::string("kind=\"") + kind + "\"",
                "Injected control-plane faults by kind")
        .inc(static_cast<double>(v));
  };
  put("dropped", stats_.dropped);
  put("duplicated", stats_.duplicated);
  put("delayed", stats_.delayed);
  put("partition_drop", stats_.partition_drops);
  put("crash_drop", stats_.crash_drops);
  put("crash", stats_.crashes);
  put("restart", stats_.restarts);
}

}  // namespace ioc::fault
