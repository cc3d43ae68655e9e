// Shared plumbing for the perfbench workloads: wall clock, sample
// summaries with the floor and tail rules, the allocation counter, the
// traced-run span sink, and the report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "trace/sink.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes for the self-test; never used by measured runs.
  bool smoke = false;
  /// Root of the source checkout (configs are read from it).
  std::string repo = ".";
  std::string git_sha = "unknown";
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_out;
};

/// Latency recorded for a failed operation: beyond every limit.
constexpr double kMissed = std::numeric_limits<double>::infinity();

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Global operator new calls counted so far (the hook is alloc_hook.cpp).
/// The hook counts only between count_allocs(true) and count_allocs(false),
/// which only the traced run calls; otherwise it costs one relaxed load.
std::uint64_t allocs();
void count_allocs(bool on);

/// Median / tail summary of one sample set. The tail is the highest
/// percentile in kTailLadder that leaves at least 10 samples beyond it.
struct Summary {
  double p50 = 0;
  double tail = 0;
  int tail_pct = 0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> v);
double median(std::vector<double> v);

/// Whether to time a throwaway set-up before operation i of `ops`: true
/// before `count` of them, spread evenly (before every one if ops <= count).
/// Set-ups timed across the whole run meet the same quiet and busy moments
/// of a shared host as the operations do, so their floor repeats as well.
inline bool setup_due(std::size_t i, std::size_t ops, std::size_t count) {
  return i == 0 || i * count / ops != (i - 1) * count / ops;
}

/// How many of n samples make their floor: 2%, at least one, at most five.
inline std::size_t floor_count(std::size_t n) {
  return n / 50 < 1 ? 1 : n / 50 > 5 ? 5 : n / 50;
}
/// The floor of a sample set: the mean of its floor_count fastest samples.
/// On a host whose neighbours take a varying share of the core, this is
/// the part of the distribution that repeats from run to run.
double floor_of(std::vector<double> v);

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per broken correctness gate; any entry makes the run fail.
  std::vector<std::string> gate_failures;
  std::map<std::string, Metric> metrics;
  /// Percentile and sample count behind each tail metric (run record).
  std::map<std::string, Summary> tails;
  /// Sample count behind each floor metric (run record).
  std::map<std::string, std::size_t> floors;
  /// Free-form facts for the run record (sizes, window, notes).
  std::map<std::string, std::string> record;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// p50 and tail metrics of one sample set.
  void set_latency(const std::string& p50_name, const std::string& tail_name,
                   const std::vector<double>& samples, const std::string& unit);
  /// The floor of one sample set (see floor_of).
  void set_floor(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit) {
    set(name, floor_of(samples), unit);
    floors[name] = samples.size();
  }
  /// Median, tail and rate of the run's wall latencies and the median
  /// set-up, for the run record only: on a shared host they follow the
  /// neighbours' load, so they are not metrics (README.md, "Why floors").
  void note_wall(const std::vector<double>& latency_ms, double ops_per_s,
                 const std::vector<double>& setups_s);
  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

/// Wall-clock spans the benchmark records around its own calls into each
/// layer during a traced run (ns, like trace::KernelSpan).
class WallSpans {
 public:
  /// A null sink records nothing (untraced runs).
  explicit WallSpans(ioc::trace::TraceSink* sink = nullptr) : sink_(sink) {}
  class Scope {
   public:
    Scope(ioc::trace::TraceSink* sink, const char* layer, const char* call)
        : sink_(sink), layer_(layer), call_(call),
          start_(sink != nullptr ? now_ns() : 0) {}
    ~Scope() {
      if (sink_ != nullptr) {
        sink_->span(call_, "bench", layer_, 0, start_, now_ns());
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ioc::trace::TraceSink* sink_;
    const char* layer_;
    const char* call_;
    std::int64_t start_;
  };
  Scope operator()(const char* layer, const char* call) const {
    return Scope(sink_, layer, call);
  }

 private:
  ioc::trace::TraceSink* sink_;
};

Report run_fleet(const Args& a);
Report run_campaign(const Args& a);
Report run_live(const Args& a);
Report run_insitu(const Args& a);

/// Write the spans of `sinks` as Chrome trace JSON to `path` (no-op on "").
void write_trace(const std::string& path,
                 const std::vector<const ioc::trace::TraceSink*>& sinks);

}  // namespace perfbench
