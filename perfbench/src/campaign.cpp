// campaign: back-to-back managed Fig. 7 campaigns. Each operation builds a
// core::StagedPipeline from examples/configs/lammps_256x13.ini (256 sim
// nodes, 13 staging, no spares; steps raised to 720), runs it to drained
// and tears it down. A run does a fixed number of campaigns, sized from
// --seconds; the seed goes to the pipeline's batch scheduler and changes
// no sizes. This is the only workload where the container managers, the
// GlobalManager policy, dt backpressure, sio and mon sampling run in
// steady state, with a few hundred events pending in des.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/runtime.h"
#include "core/spec.h"
#include "des/time.h"
#include "mon/metric.h"
#include "util/config.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using ioc::core::PipelineSpec;
using ioc::core::StagedPipeline;

constexpr double kCampaignsPerWallSecond = 130;
/// Throwaway set-ups timed during an untraced run, about 50 us each.
constexpr std::size_t kSetups = 2001;

struct Outcome {
  std::vector<double> e2e_ms;  ///< per-step end-to-end latency, sim ms
  std::uint64_t digest = 0;
};

/// Check one finished campaign and fold what it observed into a digest.
Outcome check(StagedPipeline& p, Report& r, std::uint64_t* failed) {
  Outcome o;
  std::uint64_t h = ioc::util::kFnvOffset;
  for (const auto& s : p.hub().history()) {
    if (s.kind != ioc::mon::MetricKind::kEndToEnd) continue;
    o.e2e_ms.push_back(s.value * 1e3);
    h = ioc::util::fnv1a_value(static_cast<std::uint64_t>(s.at), h);
  }
  bool helper_down = false;
  bool bonds_up = false;
  for (const auto& e : p.events()) {
    helper_down |= e.action == "decrease" && e.container == "helper";
    bonds_up |= e.action == "increase" && e.container == "bonds";
    h = ioc::util::fnv1a_value(static_cast<std::uint64_t>(e.at), h);
  }
  h = ioc::util::fnv1a_value(p.sim().events_processed(), h);
  o.digest = h;
  const std::size_t before = r.gate_failures.size();
  r.gate(p.pool().conserved(), "campaign: staging pool not conserved");
  r.gate(p.all_done(), "campaign: a container did not drain");
  r.gate(helper_down && bonds_up,
         "campaign: Fig. 7 actions missing (decrease helper, increase bonds)");
  r.gate(o.e2e_ms.size() == p.spec().steps,
         "campaign: " + std::to_string(o.e2e_ms.size()) +
             " end-to-end samples for " + std::to_string(p.spec().steps) +
             " steps");
  if (r.gate_failures.size() != before) ++*failed;
  return o;
}

PipelineSpec load_spec(const Args& a) {
  PipelineSpec spec = PipelineSpec::from_config(ioc::util::Config::load(
      a.repo + "/examples/configs/lammps_256x13.ini"));
  spec.steps = a.smoke ? 24 : 720;
  spec.validate();
  return spec;
}

}  // namespace

Report run_campaign(const Args& a) {
  Report r;
  StagedPipeline::Options opt;
  opt.seed = a.seed;

  // Set-up: read and validate the spec, build the first pipeline. It is
  // not started: a started pipeline torn down before it runs leaks its
  // completion watcher's coroutine frame.
  PipelineSpec spec;
  const auto set_up = [&] {
    const double t0 = now_s();
    spec = load_spec(a);
    const StagedPipeline first(spec, opt);
    return now_s() - t0;
  };
  std::vector<double> setups{set_up()};

  std::uint64_t reference = 0;
  bool have_reference = false;
  std::vector<double> sim_e2e;
  // One campaign: deploy -> drain -> teardown. Same spec and seed every
  // time, so every campaign must reproduce the first one's digest.
  auto campaign = [&] {
    const std::uint64_t failed = r.failed;
    auto p = std::make_unique<StagedPipeline>(spec, opt);
    p->run();
    const Outcome out = check(*p, r, &r.failed);
    if (!have_reference) {
      reference = out.digest;
      sim_e2e = out.e2e_ms;
      have_reference = true;
    } else if (out.digest != reference) {
      r.gate(false, "campaign: same spec and seed, different outcome");
      ++r.failed;
    }
    p.reset();
    ++r.attempted;
    return r.failed == failed;
  };

  // Campaigns per run: fixed work, so every run of a seed does the same.
  const auto campaigns = [&](double seconds) -> std::size_t {
    if (a.smoke) return 20;
    return std::max<std::size_t>(
        20, static_cast<std::size_t>(seconds * kCampaignsPerWallSecond));
  };

  if (!a.trace) {
    const std::size_t n = campaigns(a.seconds);
    std::vector<double> lat_ms;
    lat_ms.reserve(n);
    double busy_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (setup_due(i, n, kSetups)) setups.push_back(set_up());
      const double t0 = now_s();
      const bool ok = campaign();
      const double dt = now_s() - t0;
      busy_s += dt;
      // A failed campaign misses every latency limit.
      lat_ms.push_back(ok ? dt * 1e3 : kMissed);
    }
    r.set_floor("latency_floor_ms", lat_ms, "ms");
    r.set_latency("sim_latency_p50_ms", "sim_latency_tail_ms", sim_e2e,
                  "sim_ms");
    r.set_floor("setup_s", setups, "s");
    r.note_wall(lat_ms, static_cast<double>(n) / busy_s, setups);
    r.record["steps"] = std::to_string(spec.steps);
    return r;
  }

  // Traced run: a fixed number of campaigns untraced, then traced. Tracing
  // overhead compares the floors of deploy + run time of the two passes.
  const std::size_t n = a.smoke ? 3 : campaigns(a.seconds / 2);
  std::vector<double> plain_ms;
  for (std::size_t i = 0; i < n; ++i) {
    const double t0 = now_s();
    auto p = std::make_unique<StagedPipeline>(spec, opt);
    p->run();
    plain_ms.push_back((now_s() - t0) * 1e3);
    check(*p, r, &r.failed);
    ++r.attempted;
  }

  ioc::trace::TraceSink prog;  // pipeline spans (virtual time)
  ioc::trace::TraceSink wall;  // the benchmark's spans (wall-clock ns)
  WallSpans spans(&wall);
  StagedPipeline::Options traced = opt;
  traced.trace = &prog;
  double events = 0, alloc_n = 0, msgs[4] = {0, 0, 0, 0}, bytes = 0,
         transfers = 0, contention_ms = 0, rounds = 0, retries = 0,
         block_s = 0, delivery_ms = 0, objects = 0, samples = 0,
         prog_spans = 0, dropped = 0;
  std::vector<double> deploy_ms, round_ms, render_us, ns_per_event, traced_ms;
  double render_kb = 0;
  count_allocs(true);
  for (std::size_t i = 0; i < n; ++i) {
    prog.clear();
    const double d0 = now_s();
    std::unique_ptr<StagedPipeline> p;
    {
      auto s = spans("core", "StagedPipeline::StagedPipeline");
      p = std::make_unique<StagedPipeline>(spec, traced);
    }
    deploy_ms.push_back((now_s() - d0) * 1e3);
    const std::uint64_t a0 = allocs();
    const double r0 = now_s();
    {
      auto s = spans("des", "StagedPipeline::run");
      p->run();
    }
    const double r1 = now_s();
    traced_ms.push_back((r1 - d0) * 1e3);
    alloc_n += static_cast<double>(allocs() - a0);
    check(*p, r, &r.failed);
    const auto ev = static_cast<double>(p->sim().events_processed());
    events += ev;
    ns_per_event.push_back((r1 - r0) * 1e9 / ev);
    for (int c = 0; c < 4; ++c) {
      const auto& st = p->bus().stats(static_cast<ioc::ev::TrafficClass>(c));
      msgs[c] += static_cast<double>(st.messages);
      bytes += static_cast<double>(st.bytes);
    }
    dropped += static_cast<double>(p->bus().dropped());
    transfers += static_cast<double>(p->network().transfer_count());
    contention_ms += p->network().contention_wait().mean() * 1e3;
    block_s += p->sim_blocked_seconds();
    delivery_ms += p->source_stream().delivery_latency().mean() * 1e3;
    objects += static_cast<double>(p->fs().objects().size());
    samples += static_cast<double>(p->hub().samples_seen());
    prog_spans += static_cast<double>(prog.recorded());
    for (const auto& sp : prog.spans()) {
      if (sp.category() != "control") continue;
      if (sp.name() == "timeout" || sp.name() == "retry") {
        ++retries;
      } else if (sp.name() != "escalate") {
        ++rounds;
        round_ms.push_back(static_cast<double>(sp.duration()) /
                           ioc::des::kMillisecond);
      }
    }
    if (i == 0) {
      for (int k = 0; k < 20; ++k) {
        auto s = spans("mon", "MonitoringHub::prometheus");
        const double m0 = now_s();
        const std::string text = p->hub().prometheus();
        render_us.push_back((now_s() - m0) * 1e6);
        render_kb = static_cast<double>(text.size()) / 1024.0;
      }
    }
    {
      auto s = spans("core", "StagedPipeline::~StagedPipeline");
      p.reset();
    }
    ++r.attempted;
  }
  count_allocs(false);
  const double ops = static_cast<double>(n);
  r.set("des.events_per_op", events / ops, "count");
  r.set("des.ns_per_event", floor_of(ns_per_event), "ns");
  r.set("des.allocs_per_event", alloc_n / events, "count");
  const char* cls[] = {"ev.control_msgs_per_op", "ev.metadata_msgs_per_op",
                       "ev.monitoring_msgs_per_op", "ev.data_msgs_per_op"};
  for (int c = 0; c < 4; ++c) r.set(cls[c], msgs[c] / ops, "count");
  r.set("ev.bytes_per_op", bytes / ops, "B");
  r.set("ev.dropped", dropped, "count");
  r.set("net.transfers_per_op", transfers / ops, "count");
  r.set("net.contention_wait_sim_ms", contention_ms / ops, "sim_ms");
  r.set("core.rounds_per_op", rounds / ops, "count");
  r.set("core.round_retry_ratio", rounds > 0 ? retries / rounds : 0, "ratio");
  r.set("core.round_sim_ms", median(round_ms), "sim_ms");
  r.set("core.deploy_ms", median(deploy_ms), "ms");
  r.set("dt.block_sim_s", block_s / ops, "sim_s");
  r.set("dt.delivery_sim_ms", delivery_ms / ops, "sim_ms");
  r.set("sio.objects_per_op", objects / ops, "count");
  r.set("mon.samples_per_op", samples / ops, "count");
  r.set("mon.render_us", median(render_us), "us");
  r.set("mon.render_kb", render_kb, "KiB");
  r.set("trace.spans_per_op",
        (prog_spans + static_cast<double>(wall.recorded())) / ops, "count");
  r.set("trace.dropped", static_cast<double>(wall.dropped()), "count");
  r.set("trace.overhead_pct",
        (floor_of(traced_ms) / floor_of(plain_ms) - 1.0) * 100.0, "%");
  write_trace(a.trace_out, {&wall});
  return r;
}

}  // namespace perfbench
