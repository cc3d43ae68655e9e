// The bench-artifact schemas, one row per `schema` tag: the single source of
// truth for what tools/bench_check validates and gates, and for the tags
// doc_check accepts in the docs — so a schema rename (or a doc typo) fails
// CI instead of silently rotting either side. A new schema is one more row.
//
// bench_check applies a row in this order: the artifact's `unit`, its root
// bounds, then per `results` row its name (kNameColumn), the `names` (a row
// naming an unknown value gets one finding and no other column checks),
// the column bounds and the ordering rule; last the row's coverage rule.
// With --baseline it then compares every row's `gates`, or under
// --sim-only its `simulated` columns for equality.
#pragma once

#include <limits>
#include <span>
#include <string_view>

namespace ioc::benchschema {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// The column that names every row of every schema; the baseline gate keys
/// rows by it.
inline constexpr std::string_view kNameColumn = "benchmark";

/// A numeric field and its legal range; `lo_open`/`hi_open` exclude that
/// end. A bounded field must be present and numeric: an absent column is a
/// finding, never a 0.
struct Bound {
  std::string_view column;
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
};

/// A string column that must name one of `values`.
struct Names {
  std::string_view column;
  std::span<const std::string_view> values;
};

/// Within each row, `column` must be >= `floor`.
struct NotBelow {
  std::string_view column;
  std::string_view floor;
};

/// A row the artifact must contain: its `bound.column` lies in `bound`'s
/// range or, when `name` is set, names `name`.
struct Need {
  Bound bound;
  std::string_view name = {};
};

/// The rows grouped by their values of `group_by` (one group when empty)
/// must each hold a row for every one of `needs`. When `groups` is set it
/// lists the values of the single group column that are checked, and each
/// of them must appear; otherwise every group the rows form is checked.
struct Coverage {
  std::span<const std::string_view> group_by = {};
  std::span<const std::string_view> groups = {};
  std::span<const Need> needs = {};
};

/// A metric the baseline gate compares row by row, keyed by the rows'
/// `benchmark` names. A fresh value more than --max-regression percent
/// worse than the baseline's is a finding, as is a baseline row the fresh
/// run no longer covers; rows only the fresh run has are fine. Gates are
/// the full, manual/CI-perf comparison: --sim-only skips them all.
struct Gate {
  std::string_view metric;
  bool higher_is_worse;  // latency-style; false: throughput-style
  /// Absolute delta a higher-is-worse metric may reach over a baseline of
  /// exactly 0, where a percentage is undefined (a fleet point that
  /// performed no resizes reports resize_p99_ms 0.0).
  double zero_allowance;
};

struct Schema {
  std::string_view tag;
  std::string_view unit;
  std::span<const Bound> root = {};
  std::span<const Names> names = {};
  std::span<const Bound> columns = {};
  std::span<const NotBelow> ordered = {};
  std::span<const Gate> gates = {};
  /// Columns a fixed seed reproduces bit for bit on any host: --sim-only
  /// compares them for equality in every baseline row, which is what the
  /// default ctest entries run. Each is a bounded column, so it is present.
  std::span<const std::string_view> simulated = {};
  Coverage coverage = {};
};

// ioc.bench.kernels/v1 (bench/kernel_microbench -> BENCH_kernels.json).
// Each threaded kernel reports a threads=1 baseline and a threads>1 point,
// so the speedup trajectory is always present.
inline constexpr std::string_view kKernelNames[] = {
    "lj_force", "bonds", "bonds_naive", "csym", "cna"};
inline constexpr std::string_view kThreadedKernels[] = {"lj_force", "bonds",
                                                        "csym", "cna"};
inline constexpr std::string_view kByKernel[] = {"kernel"};
inline constexpr Names kKernelsNames[] = {{"kernel", kKernelNames}};
inline constexpr Bound kKernelsRoot[] = {{"threads_available", 1}};
inline constexpr Bound kKernelsColumns[] = {
    {"atoms", 0, kInf, true},       {"size", 0, kInf, true},
    {"ns_per_atom", 0, kInf, true}, {"iterations", 1},
    {"threads", 1, 1024},
};
inline constexpr Need kSerialAndThreaded[] = {{{"threads", 1, 1}},
                                              {{"threads", 1, kInf, true}}};
inline constexpr Gate kKernelsGates[] = {{"ns_per_atom", true, 1.0}};

// ioc.bench.fleet/v2 (bench/fleet_scale -> BENCH_fleet.json). The scaling
// story needs a single-shard reference point and a federated one.
// resize_p99_ms, resizes, trades_committed and events come from the
// simulation under a fixed seed, so they reproduce bit for bit on any host
// and --sim-only holds them equal to the baseline's (a default ctest
// entry); a change that moves one re-records the baseline on purpose.
// events_per_wall_sec is the best sustained chunk rate over a large
// steady-state window; its gate catches reintroduced per-message costs and
// "faster by doing less of its job" alongside plain slowdowns.
inline constexpr Bound kFleetColumns[] = {
    {"shards", 1, 4096},
    {"pipelines", 1},
    {"resize_p99_ms", 0},
    {"resizes", 0},
    {"trades_committed", 0},
    {"events", 0, kInf, true},
    {"events_per_wall_sec", 0, kInf, true},
    {"allocs_per_event", 0},
};
inline constexpr Need kSingleAndSharded[] = {{{"shards", 1, 1}},
                                             {{"shards", 1, kInf, true}}};
inline constexpr Gate kFleetGates[] = {
    {"resize_p99_ms", true, 1.0},
    {"events_per_wall_sec", false, 0},
};
inline constexpr std::string_view kFleetSimulated[] = {
    "resize_p99_ms", "resizes", "trades_committed", "events"};

// ioc.bench.des/v1 (bench/des_queue_bench -> BENCH_des.json). Every
// (workload, pending) point covers both queue implementations, so the
// ladder-vs-heap comparison never silently loses a side.
inline constexpr std::string_view kImpls[] = {"binary_heap", "ladder"};
inline constexpr std::string_view kWorkloads[] = {"hold", "equal_burst"};
inline constexpr std::string_view kByPoint[] = {"workload", "pending"};
inline constexpr Names kDesNames[] = {{"impl", kImpls},
                                      {"workload", kWorkloads}};
inline constexpr Bound kDesColumns[] = {
    {"pending", 1},
    {"ns_per_op", 0, kInf, true},
    {"iterations", 1},
};
inline constexpr Need kBothImpls[] = {{{"impl"}, "binary_heap"},
                                      {{"impl"}, "ladder"}};
inline constexpr Gate kDesGates[] = {{"ns_per_op", true, 1.0}};

// ioc.bench.svc/v1 (tools/ioc_loadgen -> BENCH_svc.json): one row per load
// run against the live HTTP control API. A dropped response is a
// correctness failure, not a slow run; some row must hold >= 256
// concurrent connections.
inline constexpr Bound kSvcColumns[] = {
    {"connections", 1, 65536},
    {"requests", 1},
    {"requests_per_sec", 0, kInf, true},
    {"p50_ms", 0},
    {"p99_ms", 0, kInf, true},
    {"dropped", 0, 0},
};
inline constexpr NotBelow kSvcOrdered[] = {{"p99_ms", "p50_ms"}};
inline constexpr Need kManyConnections[] = {{{"connections", 256}}};
inline constexpr Gate kSvcGates[] = {
    {"p99_ms", true, 1.0},
    {"requests_per_sec", false, 0},
};

inline constexpr Schema kSchemas[] = {
    {.tag = "ioc.bench.kernels/v1",
     .unit = "ns_per_atom",
     .root = kKernelsRoot,
     .names = kKernelsNames,
     .columns = kKernelsColumns,
     .gates = kKernelsGates,
     .coverage = {kByKernel, kThreadedKernels, kSerialAndThreaded}},
    {.tag = "ioc.bench.fleet/v2",
     .unit = "resize_p99_ms",
     .columns = kFleetColumns,
     .gates = kFleetGates,
     .simulated = kFleetSimulated,
     .coverage = {.needs = kSingleAndSharded}},
    {.tag = "ioc.bench.des/v1",
     .unit = "ns_per_op",
     .names = kDesNames,
     .columns = kDesColumns,
     .gates = kDesGates,
     .coverage = {.group_by = kByPoint, .needs = kBothImpls}},
    {.tag = "ioc.bench.svc/v1",
     .unit = "p99_ms",
     .columns = kSvcColumns,
     .ordered = kSvcOrdered,
     .gates = kSvcGates,
     .coverage = {.needs = kManyConnections}},
};

/// The row for `tag`, or nullptr for a typo'd or future schema.
inline constexpr const Schema* find_schema(std::string_view tag) {
  for (const Schema& s : kSchemas) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

inline constexpr bool is_known_schema(std::string_view tag) {
  return find_schema(tag) != nullptr;
}

}  // namespace ioc::benchschema
