// The global manager's aggregate view of the pipeline: ingests metric
// samples (routed through an EVPath-style stone graph), keeps windowed
// per-container statistics plus a counter/histogram registry, and answers
// the bottleneck question — the container with the longest average
// latency, exactly as Section III-E defines it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ev/stone.h"
#include "mon/metric.h"
#include "trace/metrics.h"
#include "util/stats.h"

namespace ioc::mon {

class MonitoringHub {
 public:
  /// `window`: number of recent latency samples averaged per container.
  explicit MonitoringHub(std::size_t window = 8, bool keep_history = true);

  /// Feed one sample (typically from the GM's monitoring endpoint process).
  void ingest(const MetricSample& s);

  /// Windowed average latency for a container; nullopt if never seen.
  std::optional<double> avg_latency(const std::string& container) const;
  /// Samples currently inside the container's latency window (0 after a
  /// reset_container or for an unknown container).
  std::size_t latency_window_count(const std::string& container) const;
  /// Most recent value of a metric kind; nullopt if the container never
  /// reported that kind.
  std::optional<double> last_value(const std::string& container,
                                   MetricKind k) const;
  std::uint64_t samples_seen() const { return samples_seen_; }

  /// The source with the highest windowed average latency (the first by
  /// name among equals).
  std::optional<std::string> bottleneck() const;

  /// Clear a container's window (after a management action changed it).
  void reset_container(const std::string& container);

  /// Full sample history (benches plot it); empty if keep_history is false.
  const std::vector<MetricSample>& history() const { return history_; }
  std::vector<MetricSample> history_for(const std::string& source,
                                        MetricKind k) const;

  /// Whole-run counters and histograms (never reset by management actions,
  /// unlike the windows): ioc_samples_total{kind=...},
  /// ioc_container_latency_seconds{container=...},
  /// ioc_end_to_end_seconds, ioc_queue_depth{container=...}.
  const trace::MetricsRegistry& metrics() const { return metrics_; }
  /// Mutable registry, so co-located subsystems (fault::Injector::publish,
  /// fed::Fleet::publish_metrics) can export into the same scrape.
  trace::MetricsRegistry& metrics() { return metrics_; }
  /// Prometheus text-format snapshot of those aggregates.
  std::string prometheus() const { return metrics_.to_prometheus(); }

 private:
  /// One slot per MetricKind, plus one that every kind outside the enum
  /// shares (a sample decoded off the wire may carry any kind byte).
  static constexpr std::size_t kKindSlots = 5;
  static std::size_t slot(MetricKind k);

  /// What the hub keeps per source. Its registry series are resolved the
  /// first time the source reports their kind, so a sample after that is
  /// a few writes through these pointers (the registry never moves a
  /// series).
  struct Source {
    std::string name;
    util::WindowedMean latency;
    std::array<std::optional<double>, kKindSlots> last{};
    trace::Histogram* latency_seconds = nullptr;
    trace::Gauge* queue_depth = nullptr;
    trace::Gauge* throughput = nullptr;
    Source(std::string n, std::size_t window)
        : name(std::move(n)), latency(window) {}
  };

  void record(const MetricSample& s);
  void resolve(Source& src, MetricKind k);
  /// Index of `name` in sources_, or where it would be inserted.
  std::size_t lower(const std::string& name) const;
  const Source* find(const std::string& name) const;

  std::size_t window_;
  bool keep_history_;
  std::vector<Source> sources_;  // sorted by name: bottleneck()'s tie-break
  std::array<trace::Counter*, kKindSlots> samples_total_{};
  trace::Histogram* end_to_end_ = nullptr;
  std::vector<MetricSample> history_;
  std::uint64_t samples_seen_ = 0;
  trace::MetricsRegistry metrics_;

  // Stones: a split feeds two terminals, one updating the per-source
  // records and the registry, one keeping the raw history; structured this
  // way so custom overlays can be grafted on without touching the hub.
  ev::StoneGraph<MetricSample> stones_;
  ev::StoneId entry_ = 0;
};

}  // namespace ioc::mon
