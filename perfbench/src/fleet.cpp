// fleet: the fed::Fleet soak at 16 shards x 2048 pipelines with 1 ms demand
// and heartbeat ticks and no faults. One operation is a demand revision (one
// per simulated millisecond). The benchmark advances the soak one 100 ms
// control slice per call (100 revisions plus the heartbeats and rounds they
// trigger, about a millisecond of wall time) and times each call;
// latency_floor_ms is the floor of those slice times. Slices this short fit
// between a neighbour's bursts on a shared host, so the floor repeats where
// the median slice does not. des, ev, net and fed do almost all of the work.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "des/time.h"
#include "fed/fleet.h"

namespace perfbench {
namespace {

using ioc::des::kMillisecond;
using ioc::des::kSecond;
using ioc::des::SimTime;
using ioc::fed::Fleet;

// Demand ticks this host simulates per wall second at 16x2048 (the window
// is sized from it, so a run measures about --seconds of soak).
constexpr double kTicksPerWallSecond = 60000;
constexpr SimTime kTick = 1 * kMillisecond;
constexpr SimTime kSlice = 100 * kTick;
/// Throwaway set-ups timed during an untraced run, about 45 ms each.
constexpr std::size_t kSetups = 31;

struct Shape {
  std::size_t shards = 16;
  std::size_t pipelines = 2048;
  /// Convergence prefix: pipelines start at width 0 and reach their first
  /// targets here; it belongs to set-up, not to the window.
  SimTime prefix = 4 * kSecond;
};

Fleet::Options options(const Shape& s, std::uint64_t seed, SimTime window) {
  Fleet::Options opt;
  opt.shards = s.shards;
  opt.pipelines = s.pipelines;
  opt.staging_per_shard = 8;
  opt.demand_interval = kTick;
  opt.horizon = s.prefix + window;
  opt.settle = 3 * kSecond;
  opt.demand_events = static_cast<std::size_t>(opt.horizon / kTick) + 1;
  opt.shard.heartbeat_interval = kTick;
  opt.seed = seed;
  return opt;
}

struct Window {
  std::uint64_t ticks = 0;
  double wall_s = 0;
  std::vector<double> slice_ms;
  std::vector<double> slice_ns_per_event;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t msgs[4] = {0, 0, 0, 0};
  std::uint64_t bytes = 0;
  std::uint64_t transfers = 0;
};

/// Build a fleet, start its soak and run the convergence prefix; returns
/// the wall seconds that took.
double set_up(std::unique_ptr<Fleet>& fleet, const Fleet::Options& opt,
              SimTime prefix) {
  fleet.reset();
  const double t0 = now_s();
  fleet = std::make_unique<Fleet>(opt);
  fleet->start_soak();
  fleet->advance_to(prefix);
  return now_s() - t0;
}

/// Advance one slice per call from the end of the prefix to the horizon.
/// With `setups`, also time kSetups throwaway set-ups between slices.
Window measure(Fleet& f, const Fleet::Options& opt, SimTime prefix,
               const WallSpans& spans, std::vector<double>* setups) {
  Window w;
  auto& bus = f.bus();
  const std::uint64_t ev0 = f.sim().events_processed();
  const std::uint64_t a0 = allocs();
  std::uint64_t m0[4];
  std::uint64_t b0 = 0;
  for (int c = 0; c < 4; ++c) {
    const auto& st = bus.stats(static_cast<ioc::ev::TrafficClass>(c));
    m0[c] = st.messages;
    b0 += st.bytes;
  }
  const std::uint64_t x0 = bus.network().transfer_count();
  const SimTime start = f.sim().now();
  const auto slices = static_cast<std::size_t>((opt.horizon - start) / kSlice);
  w.slice_ms.reserve(slices);
  w.slice_ns_per_event.reserve(slices);
  std::size_t i = 0;
  for (SimTime t = start + kSlice; t <= opt.horizon; t += kSlice, ++i) {
    if (setups != nullptr && setup_due(i, slices, kSetups)) {
      std::unique_ptr<Fleet> spare;
      setups->push_back(set_up(spare, opt, prefix));
    }
    const std::uint64_t e0 = f.sim().events_processed();
    const double t0 = now_s();
    {
      auto s = spans("fed", "Fleet::advance_to");
      f.advance_to(t);
    }
    const double dt = now_s() - t0;
    const std::uint64_t events = f.sim().events_processed() - e0;
    w.wall_s += dt;
    w.slice_ms.push_back(dt * 1e3);
    w.slice_ns_per_event.push_back(
        dt * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, events)));
  }
  w.ticks = w.slice_ms.size() * (kSlice / kTick);
  w.events = f.sim().events_processed() - ev0;
  w.allocs = allocs() - a0;
  for (int c = 0; c < 4; ++c) {
    const auto& st = bus.stats(static_cast<ioc::ev::TrafficClass>(c));
    w.msgs[c] = st.messages - m0[c];
    w.bytes += st.bytes;
  }
  w.bytes -= b0;
  w.transfers = bus.network().transfer_count() - x0;
  return w;
}

/// Settle to quiesce and check the fleet invariants.
Fleet::Result finish(Fleet& f, const Fleet::Options& opt, Report& r) {
  f.advance_to(opt.horizon + opt.settle);
  Fleet::Result res = f.snapshot();
  r.gate(res.conserved, "fleet: nodes not conserved at quiesce");
  r.gate(res.open_escrow == 0, "fleet: open escrow at quiesce");
  r.gate(res.converged_pipelines == res.live_pipelines,
         "fleet: " +
             std::to_string(res.live_pipelines - res.converged_pipelines) +
             " live pipelines not converged at quiesce");
  r.gate(res.live_pipelines == opt.pipelines,
         "fleet: pipelines fenced in a fault-free soak");
  return res;
}

}  // namespace

Report run_fleet(const Args& a) {
  Report r;
  Shape shape;
  double rate = kTicksPerWallSecond;
  if (a.smoke) {
    shape.shards = 2;
    shape.pipelines = 64;
    shape.prefix = 1 * kSecond;
    rate = 2000;
  }
  // Untraced runs measure one window of --seconds; the traced run measures
  // an untraced and a traced window of half that each.
  const double window_s = a.trace ? a.seconds / 2 : a.seconds;
  const SimTime window =
      static_cast<SimTime>(window_s * rate / (kSlice / kTick)) * kSlice;
  const Fleet::Options opt = options(shape, a.seed, window);

  // Determinism gate: a short same-shape, same-seed soak twice.
  {
    const Fleet::Options twin = options(shape, a.seed, 1 * kSecond);
    const Fleet::Result x = Fleet(twin).run();
    const Fleet::Result y = Fleet(twin).run();
    r.gate(x == y, "fleet: same seed gave two different Result digests");
  }

  std::unique_ptr<Fleet> fleet;
  if (!a.trace) {
    std::vector<double> setups{set_up(fleet, opt, shape.prefix)};
    const Window w = measure(*fleet, opt, shape.prefix, WallSpans(), &setups);
    const Fleet::Result res = finish(*fleet, opt, r);
    r.attempted = w.ticks;
    r.set_floor("latency_floor_ms", w.slice_ms, "ms");
    std::vector<double> sim_ms;
    sim_ms.reserve(res.resize_latencies.size());
    for (SimTime t : res.resize_latencies) {
      sim_ms.push_back(static_cast<double>(t) / kMillisecond);
    }
    r.gate(!sim_ms.empty(), "fleet: no resize completed");
    r.set_latency("sim_latency_p50_ms", "sim_latency_tail_ms", sim_ms,
                  "sim_ms");
    r.set_floor("setup_s", setups, "s");
    r.note_wall(w.slice_ms, static_cast<double>(w.ticks) / w.wall_s, setups);
    r.record["window_ticks"] = std::to_string(w.ticks);
    r.record["window_events"] = std::to_string(w.events);
    r.record["resizes"] = std::to_string(res.resizes);
    r.record["shape"] = std::to_string(shape.shards) + "x" +
                        std::to_string(shape.pipelines);
    return r;
  }

  // Traced run: the same window untraced, then traced.
  set_up(fleet, opt, shape.prefix);
  const Window plain = measure(*fleet, opt, shape.prefix, WallSpans(), nullptr);
  finish(*fleet, opt, r);

  ioc::trace::TraceSink prog;  // the fleet's own spans (virtual time)
  ioc::trace::TraceSink wall;  // the benchmark's spans (wall-clock ns)
  Fleet::Options traced = opt;
  traced.trace = &prog;
  set_up(fleet, traced, shape.prefix);
  count_allocs(true);
  const Window w =
      measure(*fleet, traced, shape.prefix, WallSpans(&wall), nullptr);
  count_allocs(false);
  const Fleet::Result res = finish(*fleet, traced, r);
  r.attempted = plain.ticks + w.ticks;

  const double ops = static_cast<double>(w.ticks);
  const double events = static_cast<double>(w.events);
  r.set("des.events_per_op", events / ops, "count");
  r.set("des.ns_per_event", floor_of(w.slice_ns_per_event), "ns");
  r.set("des.allocs_per_event", static_cast<double>(w.allocs) / events,
        "count");
  const char* cls[] = {"ev.control_msgs_per_op", "ev.metadata_msgs_per_op",
                       "ev.monitoring_msgs_per_op", "ev.data_msgs_per_op"};
  for (int c = 0; c < 4; ++c) {
    r.set(cls[c], static_cast<double>(w.msgs[c]) / ops, "count");
  }
  r.set("ev.bytes_per_op", static_cast<double>(w.bytes) / ops, "B");
  r.set("ev.dropped", static_cast<double>(fleet->bus().dropped()), "count");
  r.set("net.transfers_per_op", static_cast<double>(w.transfers) / ops,
        "count");
  r.set("net.contention_wait_sim_ms",
        fleet->bus().network().contention_wait().mean() * 1e3, "sim_ms");
  std::uint64_t trade_requests = 0;
  std::uint64_t escalations = 0;
  for (std::size_t i = 0; i < fleet->shard_count(); ++i) {
    trade_requests += fleet->shard(i).stats().trade_requests;
    escalations += fleet->shard(i).stats().escalations;
  }
  const auto& root = fleet->root().stats();
  const std::uint64_t trades = root.trades_committed + root.trades_aborted +
                               root.trades_fenced + root.trades_denied;
  r.set("fed.resize_rounds", static_cast<double>(res.resizes), "count");
  r.set("fed.trade_requests", static_cast<double>(trade_requests), "count");
  r.set("fed.trade_commit_ratio",
        trades > 0 ? static_cast<double>(root.trades_committed) /
                         static_cast<double>(trades)
                   : 0.0,
        "ratio");
  r.set("fed.escalations", static_cast<double>(escalations), "count");
  r.set("trace.spans_per_op",
        static_cast<double>(prog.recorded() + wall.recorded()) / ops,
        "count");
  r.set("trace.dropped", static_cast<double>(prog.dropped() + wall.dropped()),
        "count");
  r.set("trace.overhead_pct",
        (floor_of(w.slice_ms) / floor_of(plain.slice_ms) - 1.0) * 100.0, "%");
  write_trace(a.trace_out, {&wall});
  fleet.reset();  // its teardown drain may still write into `prog`
  return r;
}

}  // namespace perfbench
