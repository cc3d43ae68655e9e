// Counters, gauges, and fixed-bucket histograms with a Prometheus
// text-format snapshot exporter. The MonitoringHub keeps a registry
// alongside its windowed views so a run's aggregate health can be scraped
// (or just printed) without replaying the sample history; ioc_trace
// `export --format=prom` builds the same shape from a recorded trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ioc::trace {

class Counter {
 public:
  void inc(double by = 1) { value_ += by; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Cumulative histogram over fixed upper bounds (plus the implicit +Inf
/// bucket), Prometheus `le` semantics: counts_[i] counts observations
/// <= bounds[i] exclusively of earlier buckets; export re-accumulates.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = default_latency_bounds());

  void observe(double x);
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds()+1, last is +Inf.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0; }

  /// Seconds-scale bounds suiting per-timestep staging latencies.
  static std::vector<double> default_latency_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// The number format of the Prometheus text: the shortest `%.<p>g` text
/// (p from 1 to 17, C locale) that reads back as `v`, so bucket bounds
/// print as "0.1", not "0.10000000000000001".
std::string fmt(double v);

/// Named metric families, each fanned out by a preformatted label string
/// (e.g. `container="bonds"`). Lookup creates on first use; references
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& labels = "",
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "",
               const std::string& help = "");
  Histogram& histogram(const std::string& name,
                       const std::string& labels = "",
                       const std::string& help = "",
                       std::vector<double> bounds =
                           Histogram::default_latency_bounds());

  /// Prometheus text exposition format (help/type headers + series lines),
  /// families and label sets in deterministic (lexicographic) order.
  std::string to_prometheus() const;

 private:
  template <typename T>
  struct Family {
    std::string help;
    std::map<std::string, T> series;  // keyed by label string
  };

  std::map<std::string, Family<Counter>> counters_;
  std::map<std::string, Family<Gauge>> gauges_;
  std::map<std::string, Family<Histogram>> histograms_;
};

}  // namespace ioc::trace
