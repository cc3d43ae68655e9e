// bench_check: validates the machine-readable bench artifacts CI keeps
// honest the same way doc_check keeps the docs honest. The artifact's
// "schema" tag selects the rule set:
//
//   ioc.bench.kernels/v1 (bench/kernel_microbench -> BENCH_kernels.json):
//     known kernel names, positive atoms/ns_per_atom, sane thread counts,
//     and each threaded kernel must report both a threads=1 baseline and at
//     least one threads>1 point so the speedup trajectory is always present.
//     The gated metric is ns_per_atom (wall-clock: baseline comparisons are
//     a manual/CI-perf step, not a default ctest entry).
//
//   ioc.bench.fleet/v2 (bench/fleet_scale -> BENCH_fleet.json):
//     positive shard/pipeline counts, monotone coverage (a 1-shard and a
//     >1-shard point must both exist), non-negative resize_p99_ms, a
//     positive events_per_wall_sec and a non-negative allocs_per_event.
//     Gated metrics: resize_p99_ms, which is *simulated* time under a
//     fixed seed — it reproduces bit-for-bit on any machine, so the
//     fresh-vs-committed comparison runs as a default ctest entry — plus
//     events_per_wall_sec in the downward direction: a fresh value more
//     than --max-regression percent *below* the committed one is a
//     throughput regression. That number is wall-clock (best sustained
//     chunk rate over a large steady-state window, see
//     bench/fleet_scale.cpp), so the default ctest entry passes --sim-only,
//     which restricts the gate to the simulated-time metrics; the full
//     comparison including throughput is the manual/CI-perf step, where it
//     exists to catch reintroduced per-message costs.
//
//   ioc.bench.des/v1 (bench/des_queue_bench -> BENCH_des.json): known
//     implementations (binary_heap, ladder) and workloads (hold,
//     equal_burst), positive pending counts and ns_per_op, and every
//     (workload, pending) point must cover both implementations so the
//     ladder-vs-heap comparison can never silently lose a side. The gated
//     metric is ns_per_op (wall-clock, manual/CI-perf comparison like the
//     kernels).
//
//   ioc.bench.svc/v1 (tools/ioc_loadgen -> BENCH_svc.json): the live HTTP
//     control-plane load test. Rows must carry their connection count (at
//     least one row at >= 256), positive request counts and throughput,
//     ordered latency quantiles, and zero dropped responses. Gated metrics:
//     p99_ms upward and requests_per_sec downward — both wall-clock, so the
//     default ctest entry passes --sim-only and the full comparison is the
//     manual/CI-perf step, exactly like the fleet throughput gate.
//
// The full tag list lives in bench_schemas.h, shared with doc_check.
//
// With --baseline it additionally compares the fresh artifact against a
// committed baseline row by row (keyed by the unique "benchmark" name):
// a row whose gated metric regressed by more than --max-regression percent
// is a finding, as is a baseline row the fresh run no longer covers. New
// rows that only exist in the fresh run are fine. The two files must carry
// the same schema tag. --update-baseline rewrites the baseline file from a
// fresh artifact that passed the schema checks — the escape hatch after an
// intentional change. A baseline metric of exactly zero (legal, e.g. a
// fleet point that performed no resizes) gates by absolute delta instead
// of percentage: the fresh value must stay within the metric's
// zero_allowance, closing the hole where zero baselines skipped the gate.
//
// usage: bench_check [--baseline FILE] [--max-regression PCT]
//                    [--update-baseline] <BENCH_*.json>
// exit 0 clean, 1 findings, 2 usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_schemas.h"
#include "trace/json.h"

namespace {

bool read_file(const std::string& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Kernel-artifact validation (ioc.bench.kernels/v1), applied to both the
/// fresh artifact and the baseline. Appends findings prefixed with `label`.
void check_kernels_schema(const ioc::trace::json::Value& root,
                          const std::string& label,
                          std::vector<std::string>* findings) {
  auto fail = [&](std::string msg) {
    findings->push_back(label + ": " + std::move(msg));
  };

  if (root.str_or("unit") != "ns_per_atom") {
    fail("unit is '" + root.str_or("unit") + "', expected 'ns_per_atom'");
  }
  if (root.num_or("threads_available") < 1) {
    fail("threads_available must be >= 1");
  }

  static const std::set<std::string> kKnownKernels = {
      "lj_force", "bonds", "bonds_naive", "csym", "cna"};
  // Kernels that must report a serial baseline and a threaded point.
  static const std::set<std::string> kThreadedKernels = {"lj_force", "bonds",
                                                         "csym", "cna"};

  const auto* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    fail("missing 'results' array");
  } else if (results->array.empty()) {
    fail("'results' is empty");
  } else {
    std::map<std::string, std::set<long>> thread_points;
    std::size_t idx = 0;
    for (const auto& r : results->array) {
      const std::string at = "results[" + std::to_string(idx++) + "]";
      if (!r.is_object()) {
        fail(at + " is not an object");
        continue;
      }
      const std::string kernel = r.str_or("kernel");
      if (kKnownKernels.count(kernel) == 0) {
        fail(at + " has unknown kernel '" + kernel + "'");
        continue;
      }
      if (r.num_or("atoms") <= 0) fail(at + " atoms must be > 0");
      if (r.num_or("size") <= 0) fail(at + " size must be > 0");
      if (r.num_or("ns_per_atom") <= 0) {
        fail(at + " ns_per_atom must be > 0");
      }
      if (r.num_or("iterations") < 1) fail(at + " iterations must be >= 1");
      const double threads = r.num_or("threads");
      if (threads < 1 || threads > 1024) {
        fail(at + " threads out of range");
      }
      thread_points[kernel].insert(static_cast<long>(threads));
    }
    for (const auto& kernel : kThreadedKernels) {
      const auto it = thread_points.find(kernel);
      if (it == thread_points.end()) {
        fail("kernel '" + kernel + "' has no results");
        continue;
      }
      if (it->second.count(1) == 0) {
        fail("kernel '" + kernel + "' lacks a threads=1 baseline");
      }
      if (*it->second.rbegin() <= 1) {
        fail("kernel '" + kernel + "' lacks a threads>1 measurement");
      }
    }
  }
}

/// Fleet-artifact validation: the deterministic columns plus the wall-clock
/// throughput and allocation-rate columns, which must be present and sane.
void check_fleet_schema(const ioc::trace::json::Value& root,
                        const std::string& label,
                        std::vector<std::string>* findings) {
  auto fail = [&](std::string msg) {
    findings->push_back(label + ": " + std::move(msg));
  };

  if (root.str_or("unit") != "resize_p99_ms") {
    fail("unit is '" + root.str_or("unit") + "', expected 'resize_p99_ms'");
  }
  const auto* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    fail("missing 'results' array");
    return;
  }
  if (results->array.empty()) {
    fail("'results' is empty");
    return;
  }
  std::set<long> shard_points;
  std::size_t idx = 0;
  for (const auto& r : results->array) {
    const std::string at = "results[" + std::to_string(idx++) + "]";
    if (!r.is_object()) {
      fail(at + " is not an object");
      continue;
    }
    if (r.str_or("benchmark").empty()) fail(at + " lacks a benchmark name");
    const double shards = r.num_or("shards");
    if (shards < 1 || shards > 4096) fail(at + " shards out of range");
    if (r.num_or("pipelines") < 1) fail(at + " pipelines must be >= 1");
    if (r.num_or("resize_p99_ms") < 0) {
      fail(at + " resize_p99_ms must be >= 0");
    }
    if (r.num_or("events") <= 0) fail(at + " events must be > 0");
    if (r.num_or("events_per_wall_sec") <= 0) {
      fail(at + " events_per_wall_sec must be > 0");
    }
    if (r.find("allocs_per_event") == nullptr ||
        r.num_or("allocs_per_event") < 0) {
      fail(at + " allocs_per_event must be present and >= 0");
    }
    shard_points.insert(static_cast<long>(shards));
  }
  // The scaling story needs both ends: a single-shard reference point and
  // at least one federated (>1 shard) point.
  if (shard_points.count(1) == 0) {
    fail("no shards=1 reference point");
  }
  if (!shard_points.empty() && *shard_points.rbegin() <= 1) {
    fail("no shards>1 federation point");
  }
}

/// DES event-queue artifact validation (ioc.bench.des/v1).
void check_des_schema(const ioc::trace::json::Value& root,
                      const std::string& label,
                      std::vector<std::string>* findings) {
  auto fail = [&](std::string msg) {
    findings->push_back(label + ": " + std::move(msg));
  };

  if (root.str_or("unit") != "ns_per_op") {
    fail("unit is '" + root.str_or("unit") + "', expected 'ns_per_op'");
  }
  static const std::set<std::string> kKnownImpls = {"binary_heap", "ladder"};
  static const std::set<std::string> kKnownWorkloads = {"hold", "equal_burst"};
  const auto* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    fail("missing 'results' array");
    return;
  }
  if (results->array.empty()) {
    fail("'results' is empty");
    return;
  }
  // (workload, pending) -> impls covered; the comparison needs both sides.
  std::map<std::pair<std::string, long>, std::set<std::string>> coverage;
  std::size_t idx = 0;
  for (const auto& r : results->array) {
    const std::string at = "results[" + std::to_string(idx++) + "]";
    if (!r.is_object()) {
      fail(at + " is not an object");
      continue;
    }
    if (r.str_or("benchmark").empty()) fail(at + " lacks a benchmark name");
    const std::string impl = r.str_or("impl");
    if (kKnownImpls.count(impl) == 0) {
      fail(at + " has unknown impl '" + impl + "'");
      continue;
    }
    const std::string workload = r.str_or("workload");
    if (kKnownWorkloads.count(workload) == 0) {
      fail(at + " has unknown workload '" + workload + "'");
      continue;
    }
    const double pending = r.num_or("pending");
    if (pending < 1) fail(at + " pending must be >= 1");
    if (r.num_or("ns_per_op") <= 0) fail(at + " ns_per_op must be > 0");
    if (r.num_or("iterations") < 1) fail(at + " iterations must be >= 1");
    coverage[{workload, static_cast<long>(pending)}].insert(impl);
  }
  for (const auto& [point, impls] : coverage) {
    if (impls.size() < kKnownImpls.size()) {
      fail("workload '" + point.first + "' pending=" +
           std::to_string(point.second) +
           " does not cover both implementations");
    }
  }
}

/// Live-service artifact validation (ioc.bench.svc/v1, emitted by
/// tools/ioc_loadgen): every row is one load-generation run against the
/// HTTP control API. Rows must report their concurrency, a positive
/// request count and throughput, ordered latency quantiles, and zero
/// dropped responses (a drop is a correctness failure, not a slow run);
/// at least one row must demonstrate >= 256 concurrent connections.
void check_svc_schema(const ioc::trace::json::Value& root,
                      const std::string& label,
                      std::vector<std::string>* findings) {
  auto fail = [&](std::string msg) {
    findings->push_back(label + ": " + std::move(msg));
  };

  if (root.str_or("unit") != "p99_ms") {
    fail("unit is '" + root.str_or("unit") + "', expected 'p99_ms'");
  }
  const auto* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    fail("missing 'results' array");
    return;
  }
  if (results->array.empty()) {
    fail("'results' is empty");
    return;
  }
  double max_connections = 0;
  std::size_t idx = 0;
  for (const auto& r : results->array) {
    const std::string at = "results[" + std::to_string(idx++) + "]";
    if (!r.is_object()) {
      fail(at + " is not an object");
      continue;
    }
    if (r.str_or("benchmark").empty()) fail(at + " lacks a benchmark name");
    const double conns = r.num_or("connections");
    if (conns < 1 || conns > 65536) fail(at + " connections out of range");
    if (r.num_or("requests") < 1) fail(at + " requests must be >= 1");
    if (r.num_or("requests_per_sec") <= 0) {
      fail(at + " requests_per_sec must be > 0");
    }
    const double p50 = r.num_or("p50_ms");
    const double p99 = r.num_or("p99_ms");
    if (p50 < 0) fail(at + " p50_ms must be >= 0");
    if (p99 <= 0) fail(at + " p99_ms must be > 0");
    if (p99 < p50) fail(at + " p99_ms must be >= p50_ms");
    if (r.find("dropped") == nullptr || r.num_or("dropped") != 0) {
      fail(at + " dropped must be present and 0");
    }
    max_connections = std::max(max_connections, conns);
  }
  if (max_connections < 256) {
    fail("no results row with >= 256 concurrent connections");
  }
}

/// Dispatch on the artifact's schema tag; tags are first checked against the
/// shared bench_schemas.h table, so a typo'd or future schema never silently
/// passes (and doc_check cross-checks the docs against the same table).
void check_schema(const ioc::trace::json::Value& root, const std::string& label,
                  std::vector<std::string>* findings) {
  if (!root.is_object()) {
    findings->push_back(label + ": top level is not an object");
    return;
  }
  const std::string schema = root.str_or("schema");
  if (!ioc::benchschema::is_known_schema(schema)) {
    findings->push_back(label + ": unknown schema '" + schema + "'");
    return;
  }
  if (schema == "ioc.bench.kernels/v1") {
    check_kernels_schema(root, label, findings);
  } else if (schema == "ioc.bench.fleet/v2") {
    check_fleet_schema(root, label, findings);
  } else if (schema == "ioc.bench.des/v1") {
    check_des_schema(root, label, findings);
  } else if (schema == "ioc.bench.svc/v1") {
    check_svc_schema(root, label, findings);
  }
}

/// A metric the per-row regression gate compares, with its direction: for
/// latency-style metrics growth is the regression, for throughput-style
/// metrics shrinkage is. Wall-clock metrics are machine-dependent and get
/// skipped under --sim-only (the default-ctest mode; the full comparison is
/// the manual/CI-perf step).
struct GatedMetric {
  const char* name;
  bool higher_is_worse;
  bool wall_clock;
  /// Absolute allowance used when the baseline value is exactly zero, where
  /// the percentage gate is undefined (any nonzero fresh value is an
  /// infinite relative regression). A zero baseline is legal — e.g. a fleet
  /// point that performed no resizes reports resize_p99_ms 0.0 — and used
  /// to slip through the gate entirely; now the fresh value must stay
  /// within this absolute delta instead.
  double zero_allowance = 0;
};

/// The metrics the per-row regression gate compares for a given schema.
/// fleet/v2 gates both directions at once: resize_p99_ms must not grow and
/// events_per_wall_sec must not collapse — the pairing that catches "made
/// the control plane faster by doing less of its job" as well as plain
/// slowdowns.
std::vector<GatedMetric> gated_metrics(const std::string& schema) {
  if (schema == "ioc.bench.fleet/v2") {
    return {{"resize_p99_ms", true, false, 1.0},
            {"events_per_wall_sec", false, true, 0}};
  }
  if (schema == "ioc.bench.des/v1") return {{"ns_per_op", true, true, 1.0}};
  if (schema == "ioc.bench.svc/v1") {
    return {{"p99_ms", true, true, 1.0},
            {"requests_per_sec", false, true, 0}};
  }
  return {{"ns_per_atom", true, true, 1.0}};
}

/// Per-row regression gate: every baseline row must still exist and must
/// not have slowed past the allowance on the schema's gated metric.
void compare_to_baseline(const ioc::trace::json::Value& fresh,
                         const ioc::trace::json::Value& baseline,
                         double max_regression_pct, bool sim_only,
                         std::vector<std::string>* findings) {
  const std::string schema = fresh.str_or("schema");
  if (baseline.str_or("schema") != schema) {
    findings->push_back("baseline schema '" + baseline.str_or("schema") +
                        "' does not match fresh artifact schema '" + schema +
                        "'");
    return;
  }
  const std::vector<GatedMetric> metrics = gated_metrics(schema);
  std::map<std::string, const ioc::trace::json::Value*> fresh_rows;
  if (const auto* results = fresh.find("results");
      results != nullptr && results->is_array()) {
    for (const auto& r : results->array) {
      if (r.is_object() && !r.str_or("benchmark").empty()) {
        fresh_rows[r.str_or("benchmark")] = &r;
      }
    }
  }
  const auto* base_results = baseline.find("results");
  if (base_results == nullptr || !base_results->is_array()) return;
  const double allowance = 1.0 + max_regression_pct / 100.0;
  for (const auto& r : base_results->array) {
    if (!r.is_object()) continue;
    const std::string name = r.str_or("benchmark");
    if (name.empty()) continue;
    const auto it = fresh_rows.find(name);
    if (it == fresh_rows.end()) {
      findings->push_back("baseline row '" + name +
                          "' is missing from the fresh run (coverage lost)");
      continue;
    }
    for (const GatedMetric& metric : metrics) {
      if (sim_only && metric.wall_clock) continue;
      // A metric the baseline row never carried is not gateable; a metric
      // present with value 0 is a real measurement and must still gate
      // (num_or cannot tell the two apart, so check presence explicitly).
      if (r.find(metric.name) == nullptr) continue;
      const double base = r.num_or(metric.name);
      const double got = it->second->num_or(metric.name);
      if (base <= 0) {
        // The percentage gate is undefined at zero; fall back to an
        // absolute-delta gate. Only meaningful in the higher-is-worse
        // direction — a throughput of zero has nothing left to collapse.
        if (metric.higher_is_worse && got > metric.zero_allowance) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "'%s' regressed from a zero baseline: 0 -> %.1f %s "
                        "(allowed absolute delta %.1f)",
                        name.c_str(), got, metric.name,
                        metric.zero_allowance);
          findings->push_back(buf);
        }
        continue;
      }
      const bool regressed = metric.higher_is_worse
                                 ? got > base * allowance
                                 : got * allowance < base;
      if (regressed) {
        char buf[160];
        std::snprintf(
            buf, sizeof(buf),
            "'%s' regressed %.1f%%: %.1f -> %.1f %s (allowed %.0f%%)",
            name.c_str(),
            metric.higher_is_worse ? (got / base - 1.0) * 100.0
                                   : (1.0 - got / base) * 100.0,
            base, got, metric.name, max_regression_pct);
        findings->push_back(buf);
      }
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_check [--baseline FILE] [--max-regression PCT] "
               "[--sim-only] [--update-baseline] <BENCH_*.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fresh_path;
  std::string baseline_path;
  double max_regression_pct = 15.0;
  bool update_baseline = false;
  bool sim_only = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(arg, "--max-regression") == 0 && i + 1 < argc) {
      max_regression_pct = std::atof(argv[++i]);
      if (max_regression_pct <= 0) return usage();
    } else if (std::strcmp(arg, "--sim-only") == 0) {
      sim_only = true;
    } else if (std::strcmp(arg, "--update-baseline") == 0) {
      update_baseline = true;
    } else if (arg[0] == '-') {
      return usage();
    } else if (fresh_path.empty()) {
      fresh_path = arg;
    } else {
      return usage();
    }
  }
  if (fresh_path.empty()) return usage();
  if (update_baseline && baseline_path.empty()) {
    std::fprintf(stderr,
                 "bench_check: --update-baseline needs --baseline FILE\n");
    return 2;
  }

  std::string text;
  if (!read_file(fresh_path, &text)) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", fresh_path.c_str());
    return 1;
  }
  ioc::trace::json::Value root;
  std::string error;
  if (!ioc::trace::json::parse(text, &root, &error)) {
    std::fprintf(stderr, "bench_check: %s: %s\n", fresh_path.c_str(),
                 error.c_str());
    return 1;
  }

  std::vector<std::string> findings;
  check_schema(root, fresh_path, &findings);

  if (!baseline_path.empty() && !update_baseline) {
    std::string base_text;
    ioc::trace::json::Value base_root;
    if (!read_file(baseline_path, &base_text)) {
      findings.push_back("cannot read baseline " + baseline_path);
    } else if (!ioc::trace::json::parse(base_text, &base_root, &error)) {
      findings.push_back("baseline " + baseline_path + ": " + error);
    } else {
      compare_to_baseline(root, base_root, max_regression_pct, sim_only,
                          &findings);
    }
  }

  for (const auto& f : findings) {
    std::fprintf(stderr, "bench_check: %s: %s\n", fresh_path.c_str(),
                 f.c_str());
  }
  if (!findings.empty()) return 1;

  if (update_baseline) {
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "bench_check: cannot write baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::printf("bench_check: baseline %s updated from %s\n",
                baseline_path.c_str(), fresh_path.c_str());
    return 0;
  }

  const auto* n = root.find("results");
  std::printf("bench_check: %s ok (%zu results%s)\n", fresh_path.c_str(),
              n != nullptr ? n->array.size() : 0,
              baseline_path.empty() ? "" : ", baseline compared");
  return 0;
}
