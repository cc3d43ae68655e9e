#include "mon/hub.h"

#include <algorithm>

namespace ioc::mon {

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kLatency: return "latency";
    case MetricKind::kQueueDepth: return "queue-depth";
    case MetricKind::kThroughput: return "throughput";
    case MetricKind::kEndToEnd: return "end-to-end";
  }
  return "?";
}

MonitoringHub::MonitoringHub(std::size_t window, bool keep_history)
    : window_(window), keep_history_(keep_history) {
  entry_ = stones_.add_split();
  auto update =
      stones_.add_terminal([this](const MetricSample& s) { record(s); });
  auto keep = stones_.add_terminal([this](const MetricSample& s) {
    if (keep_history_) history_.push_back(s);
  });
  stones_.link(entry_, update);
  stones_.link(entry_, keep);
}

void MonitoringHub::ingest(const MetricSample& s) {
  ++samples_seen_;
  stones_.submit(entry_, s);
}

std::size_t MonitoringHub::slot(MetricKind k) {
  return std::min(static_cast<std::size_t>(k), kKindSlots - 1);
}

std::size_t MonitoringHub::lower(const std::string& name) const {
  return static_cast<std::size_t>(
      std::partition_point(sources_.begin(), sources_.end(),
                           [&](const Source& s) { return s.name < name; }) -
      sources_.begin());
}

const MonitoringHub::Source* MonitoringHub::find(
    const std::string& name) const {
  const std::size_t i = lower(name);
  return i < sources_.size() && sources_[i].name == name ? &sources_[i]
                                                         : nullptr;
}

void MonitoringHub::record(const MetricSample& s) {
  const std::size_t i = lower(s.source);
  if (i == sources_.size() || sources_[i].name != s.source) {
    sources_.emplace(sources_.begin() + static_cast<std::ptrdiff_t>(i),
                     s.source, window_);
  }
  Source& src = sources_[i];
  const std::size_t k = slot(s.kind);
  if (!src.last[k].has_value()) resolve(src, s.kind);
  src.last[k] = s.value;
  samples_total_[k]->inc();
  switch (s.kind) {
    case MetricKind::kLatency:
      src.latency.add(s.value);
      src.latency_seconds->observe(s.value);
      break;
    case MetricKind::kEndToEnd:
      end_to_end_->observe(s.value);
      break;
    case MetricKind::kQueueDepth:
      src.queue_depth->set(s.value);
      break;
    case MetricKind::kThroughput:
      src.throughput->set(s.value);
      break;
  }
}

void MonitoringHub::resolve(Source& src, MetricKind k) {
  trace::Counter*& total = samples_total_[slot(k)];
  if (total == nullptr) {
    total = &metrics_.counter(
        "ioc_samples_total",
        std::string("kind=\"") + metric_kind_name(k) + "\"",
        "Monitoring samples ingested by the hub.");
  }
  const std::string labels = "container=\"" + src.name + "\"";
  switch (k) {
    case MetricKind::kLatency:
      src.latency_seconds = &metrics_.histogram(
          "ioc_container_latency_seconds", labels,
          "Per-timestep entry-to-exit latency per container.");
      break;
    case MetricKind::kEndToEnd:
      if (end_to_end_ == nullptr) {
        end_to_end_ = &metrics_.histogram(
            "ioc_end_to_end_seconds", "",
            "Simulation-emission to pipeline-exit latency.");
      }
      break;
    case MetricKind::kQueueDepth:
      src.queue_depth = &metrics_.gauge(
          "ioc_queue_depth", labels,
          "Undelivered steps waiting in the container's input.");
      break;
    case MetricKind::kThroughput:
      src.throughput =
          &metrics_.gauge("ioc_throughput_steps_per_second", labels,
                          "Steps per second completed by the container.");
      break;
  }
}

std::optional<double> MonitoringHub::avg_latency(
    const std::string& container) const {
  const Source* s = find(container);
  if (s == nullptr || s->latency.count() == 0) return std::nullopt;
  return s->latency.mean();
}

std::size_t MonitoringHub::latency_window_count(
    const std::string& container) const {
  const Source* s = find(container);
  return s == nullptr ? 0 : s->latency.count();
}

std::optional<double> MonitoringHub::last_value(const std::string& container,
                                                MetricKind k) const {
  const Source* s = find(container);
  if (s == nullptr) return std::nullopt;
  return s->last[slot(k)];
}

std::optional<std::string> MonitoringHub::bottleneck() const {
  const Source* best = nullptr;
  double best_latency = -1;
  for (const Source& s : sources_) {
    if (s.latency.count() == 0) continue;
    const double avg = s.latency.mean();
    if (avg > best_latency) {
      best_latency = avg;
      best = &s;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->name;
}

void MonitoringHub::reset_container(const std::string& container) {
  const std::size_t i = lower(container);
  if (i < sources_.size() && sources_[i].name == container) {
    sources_[i].latency.reset();
  }
}

std::vector<MetricSample> MonitoringHub::history_for(const std::string& source,
                                                     MetricKind k) const {
  std::vector<MetricSample> out;
  for (const auto& s : history_) {
    if (s.source == source && s.kind == k) out.push_back(s);
  }
  return out;
}

}  // namespace ioc::mon
