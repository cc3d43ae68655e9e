#include "trace/metrics.h"

#include <charconv>
#include <sstream>
#include <system_error>

namespace ioc::trace {

std::vector<double> Histogram::default_latency_bounds() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300};
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(double x) {
  std::size_t i = 0;
  while (i < bounds_.size() && x > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += x;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& labels,
                                  const std::string& help) {
  auto& family = counters_[name];
  if (family.help.empty()) family.help = help;
  return family.series[labels];
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& labels,
                              const std::string& help) {
  auto& family = gauges_[name];
  if (family.help.empty()) family.help = help;
  return family.series[labels];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& labels,
                                      const std::string& help,
                                      std::vector<double> bounds) {
  auto& family = histograms_[name];
  if (family.help.empty()) family.help = help;
  auto it = family.series.find(labels);
  if (it == family.series.end()) {
    it = family.series.emplace(labels, Histogram(std::move(bounds))).first;
  }
  return it->second;
}

// std::to_chars with a precision is defined as printf's "%.*g" in the C
// locale, so each try prints that text without parsing a format string
// or reading the locale.
std::string fmt(double v) {
  char buf[32];
  char* end = buf;
  for (int prec = 1; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0;
    const std::from_chars_result read = std::from_chars(buf, end, back);
    if (read.ec == std::errc{} && back == v) break;
  }
  return std::string(buf, end);
}

namespace {

void header(std::ostringstream& os, const std::string& name,
            const std::string& help, const char* type) {
  if (!help.empty()) os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " " << type << "\n";
}

std::string braced(const std::string& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string inner = labels;
  if (!extra.empty()) {
    if (!inner.empty()) inner += ",";
    inner += extra;
  }
  return "{" + inner + "}";
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  for (const auto& [name, family] : counters_) {
    header(os, name, family.help, "counter");
    for (const auto& [labels, c] : family.series) {
      os << name << braced(labels) << " " << fmt(c.value()) << "\n";
    }
  }
  for (const auto& [name, family] : gauges_) {
    header(os, name, family.help, "gauge");
    for (const auto& [labels, g] : family.series) {
      os << name << braced(labels) << " " << fmt(g.value()) << "\n";
    }
  }
  for (const auto& [name, family] : histograms_) {
    header(os, name, family.help, "histogram");
    for (const auto& [labels, h] : family.series) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        cumulative += h.counts()[i];
        os << name << "_bucket"
           << braced(labels, "le=\"" + fmt(h.bounds()[i]) + "\"") << " "
           << cumulative << "\n";
      }
      os << name << "_bucket" << braced(labels, "le=\"+Inf\"") << " "
         << h.count() << "\n";
      os << name << "_sum" << braced(labels) << " " << fmt(h.sum()) << "\n";
      os << name << "_count" << braced(labels) << " " << h.count() << "\n";
    }
  }
  return os.str();
}

}  // namespace ioc::trace
