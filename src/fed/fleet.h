// Fleet topology builder + soak driver for the federation layer: N GM
// shards (each with a private staging pool and the consistent-hash slice of
// P pipelines), one thin root, an optional chaos injector, and a seeded
// workload that keeps revising pipeline demand. One object owns the whole
// simulation, so tests and benches construct a fleet, schedule faults, call
// run(), and assert on the Result.
//
// The fleet-level conservation invariant this exists to check:
//
//     sum over shards of pool().total()  +  pool().escrowed()
//         == shards * staging_per_shard          (at quiesce)
//
// It is asserted at quiesce, not continuously: between the donor-side
// commit apply (escrow dropped) and the recipient-side attach of a
// cross-shard trade there is a legal transient where the moving nodes are
// counted nowhere — the root's in-process settle closes that window within
// one simulation instant, but a mid-instant observer would see it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/process.h"
#include "des/simulator.h"
#include "des/time.h"
#include "ev/bus.h"
#include "fault/injector.h"
#include "fed/pipeline.h"
#include "fed/root.h"
#include "fed/shard.h"
#include "net/cluster.h"
#include "net/network.h"
#include "trace/metrics.h"
#include "trace/sink.h"

namespace ioc::fed {

class Fleet {
 public:
  struct Options {
    std::size_t shards = 8;
    std::size_t pipelines = 64;
    std::size_t staging_per_shard = 16;
    /// Demand targets are drawn from [0, max_pipeline_width].
    std::size_t max_pipeline_width = 4;
    des::SimTime horizon = 20 * des::kSecond;
    /// Post-horizon quiet window letting in-flight rounds, trades, and
    /// failovers finish before the invariants are read.
    des::SimTime settle = 3 * des::kSecond;
    des::SimTime demand_interval = 50 * des::kMillisecond;
    std::size_t demand_events = 400;
    std::uint64_t seed = 1;
    bool faults_enabled = false;
    fault::FaultConfig faults;
    Shard::Options shard;
    trace::TraceSink* trace = nullptr;
  };

  /// Everything a soak asserts on, equality-comparable so determinism is
  /// one EXPECT_EQ of two same-seed runs.
  struct Result {
    des::SimTime end = 0;
    bool conserved = false;
    std::size_t open_escrow = 0;
    std::size_t live_shards = 0;
    std::size_t live_pipelines = 0;
    std::size_t converged_pipelines = 0;  ///< live and width == target
    std::uint64_t resizes = 0;
    std::uint64_t failovers = 0;
    std::uint64_t pipelines_reassigned = 0;
    std::uint64_t trades_committed = 0;
    std::uint64_t trades_aborted = 0;
    std::uint64_t trades_fenced = 0;
    std::uint64_t trades_denied = 0;
    std::vector<des::SimTime> resize_latencies;  ///< live pipelines only
    std::uint64_t events = 0;
    std::uint64_t digest = 0;  ///< FNV fold of every observable above + more
    bool operator==(const Result&) const = default;
  };

  explicit Fleet(Options opt);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Drive the whole soak: start everything, run to the horizon, settle,
  /// snapshot the Result, then tear the control plane down and drain.
  /// Equivalent to start_soak(); advance_to(horizon + settle); snapshot().
  Result run();

  /// Phase-split soak driver for benchmarks that need to observe the
  /// simulation mid-flight (e.g. fleet_scale measures wall-clock and
  /// allocation counts over a steady-state window, excluding construction
  /// and cold-start effects). Call start_soak() once, advance_to() any
  /// number of times with non-decreasing targets, then snapshot() after the
  /// settle point. run() composes exactly these three.
  void start_soak();
  void advance_to(des::SimTime t);
  /// Throws what ended a root or shard loop, if one died: a dead loop
  /// must fail the run, not silently stop trades or failovers.
  Result snapshot();

  des::Simulator& sim() { return sim_; }
  ev::Bus& bus() { return bus_; }
  /// Null unless Options::faults_enabled.
  fault::Injector* injector() { return injector_.get(); }
  Root& root() { return *root_; }
  std::size_t shard_count() const { return shards_.size(); }
  Shard& shard(std::size_t i) { return *shards_[i]; }
  /// Bus node hosting shard `i` — the argument for injector crashes and
  /// partitions.
  net::NodeId shard_node(std::size_t i) const { return shards_[i]->node(); }
  FedPipeline& pipeline(std::size_t i) { return *pipelines_[i]; }

  bool conserved() const;
  std::size_t open_escrow() const;

  /// Snapshot the fleet's health into a metrics registry: per-shard gauges
  /// (pool size, spares, escrow, pipelines, liveness), fleet-wide counters
  /// (failovers, reassignments, trades by outcome, resizes), and the
  /// resize-latency histogram — scrapeable via
  /// trace::MetricsRegistry::to_prometheus().
  void publish_metrics(trace::MetricsRegistry& reg) const;

 private:
  des::Process workload();
  std::uint64_t digest() const;

  Options opt_;
  des::Simulator sim_;
  net::Cluster cluster_;
  net::Network net_;
  ev::Bus bus_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<Root> root_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<FedPipeline>> pipelines_;
  std::size_t initial_nodes_ = 0;
  std::size_t demand_cap_ = 0;
  /// Bumped by any pipeline transitioning to fenced; the workload's
  /// incremental demand-cap sum rebuilds when it moves.
  std::uint64_t fence_ticks_ = 0;
};

}  // namespace ioc::fed
