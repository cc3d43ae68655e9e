#include "fed/fleet.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace ioc::fed {

namespace {
/// Staging nodes are ledger entries, never bus endpoints; keep their ids far
/// above any bus node so a misuse (posting to one) is unmistakable.
constexpr net::NodeId kStagingBase = 1'000'000;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2))) *
         0x100000001b3ull;
}
}  // namespace

Fleet::Fleet(Options opt)
    : opt_(opt),
      cluster_(sim_, 1 + opt.shards + opt.pipelines),
      net_(cluster_),
      bus_(net_) {
  // Every pipeline is placed on the slot the ring names.
  if (opt_.shards == 0) throw std::invalid_argument("fed::Fleet: no shards");
  if (opt_.faults_enabled) {
    injector_ = std::make_unique<fault::Injector>(bus_, opt_.faults);
    if (opt_.trace != nullptr) injector_->set_trace(opt_.trace);
  }
  root_ = std::make_unique<Root>(bus_, /*node=*/0, opt_.trace);

  Shard::Options sopt = opt_.shard;
  sopt.trace = opt_.trace;
  for (std::size_t i = 0; i < opt_.shards; ++i) {
    std::vector<net::NodeId> staging;
    staging.reserve(opt_.staging_per_shard);
    for (std::size_t j = 0; j < opt_.staging_per_shard; ++j) {
      staging.push_back(kStagingBase +
                        static_cast<net::NodeId>(i * opt_.staging_per_shard +
                                                 j));
    }
    auto s = std::make_unique<Shard>(bus_, "s" + std::to_string(i),
                                     static_cast<net::NodeId>(1 + i),
                                     staging, sopt);
    root_->add_shard(s.get());
    shards_.push_back(std::move(s));
  }
  initial_nodes_ = opt_.shards * opt_.staging_per_shard;
  // Keep total demand below the fleet's capacity (with slack), so every
  // demand is globally satisfiable and quiesce means convergence.
  demand_cap_ = (initial_nodes_ * 4) / 5;

  for (std::size_t i = 0; i < opt_.pipelines; ++i) {
    auto p = std::make_unique<FedPipeline>(
        bus_, static_cast<net::NodeId>(1 + opt_.shards + i),
        "pipe-" + std::to_string(i));
    p->set_fence_tick(&fence_ticks_);
    // The root registered shards_[i] as slot i.
    shards_[root_->ring().owner(p->name())]->add_pipeline(p.get());
    pipelines_.push_back(std::move(p));
  }
}

Fleet::~Fleet() {
  root_->shutdown();
  for (auto& s : shards_) s->fence();
  for (auto& p : pipelines_) p->fence();
  // Close-then-drain, per the des/process.h lifetime rules: every loop
  // blocked on a mailbox observes end-of-stream and finishes.
  while (sim_.step()) {
  }
}

des::Process Fleet::workload() {
  util::Rng rng(opt_.seed);
  // Raising demand must keep the fleet-wide sum under the cap; a raise that
  // would overshoot is skipped (the draw still consumed RNG state, so the
  // schedule stays seed-stable regardless of fleet health). The sum of
  // unfenced targets is maintained incrementally — the obvious rescan per
  // raise attempt is O(pipelines) and dominated the 16x2048 bench tier's
  // wall clock — and rebuilt in full only when fence_ticks_ shows a
  // pipeline was fenced since the sum was last trusted, so the cap decision
  // is identical to what the rescan would have computed.
  std::size_t sum = 0;
  std::uint64_t fences_seen = fence_ticks_;
  auto rebuild = [this, &sum] {
    sum = 0;
    for (const auto& q : pipelines_) {
      if (!q->fenced()) sum += q->target();
    }
  };
  for (std::size_t e = 0; e < opt_.demand_events; ++e) {
    co_await des::delay(sim_, opt_.demand_interval);
    if (sim_.now() >= opt_.horizon) break;
    FedPipeline* p = pipelines_[rng.below(pipelines_.size())].get();
    const std::size_t want = rng.below(opt_.max_pipeline_width + 1);
    if (p->fenced()) continue;
    if (want > p->target()) {
      if (fences_seen != fence_ticks_) {
        rebuild();
        fences_seen = fence_ticks_;
      }
      if (sum - p->target() + want > demand_cap_) continue;
    }
    // `p` is live, so its current target is part of the maintained sum.
    sum = sum - p->target() + want;
    p->set_target(want);
  }
}

Fleet::Result Fleet::run() {
  start_soak();
  advance_to(opt_.horizon);
  advance_to(opt_.horizon + opt_.settle);
  return snapshot();
}

void Fleet::start_soak() {
  root_->start();
  for (auto& s : shards_) s->start();
  spawn(sim_, workload());
}

void Fleet::advance_to(des::SimTime t) { sim_.run_until(t); }

Fleet::Result Fleet::snapshot() {
  root_->rethrow_if_failed();
  for (const auto& s : shards_) s->rethrow_if_failed();
  Result r;
  r.end = sim_.now();
  r.conserved = conserved();
  r.open_escrow = open_escrow();
  for (const auto& s : shards_) {
    if (!s->failed()) ++r.live_shards;
    r.resizes += s->stats().resizes;
  }
  for (const auto& p : pipelines_) {
    if (p->fenced()) continue;
    ++r.live_pipelines;
    if (p->width() == p->target()) ++r.converged_pipelines;
    r.resize_latencies.insert(r.resize_latencies.end(),
                              p->resize_latencies().begin(),
                              p->resize_latencies().end());
  }
  const Root::Stats& rs = root_->stats();
  r.failovers = rs.failovers;
  r.pipelines_reassigned = rs.pipelines_reassigned;
  r.trades_committed = rs.trades_committed;
  r.trades_aborted = rs.trades_aborted;
  r.trades_fenced = rs.trades_fenced;
  r.trades_denied = rs.trades_denied;
  r.events = sim_.events_processed();
  r.digest = digest();
  return r;
}

bool Fleet::conserved() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->pool().total();
  return total + open_escrow() == initial_nodes_;
}

std::size_t Fleet::open_escrow() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->pool().escrowed();
  return n;
}

std::uint64_t Fleet::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& s : shards_) {
    h = mix(h, s->pool().total());
    h = mix(h, s->pool().spare_count());
    h = mix(h, s->pool().escrowed());
    h = mix(h, s->failed() ? 1 : 0);
    h = mix(h, s->stats().resizes);
    h = mix(h, s->stats().escalations);
    h = mix(h, s->stats().trade_requests);
    h = mix(h, s->stats().nodes_donated);
    h = mix(h, s->stats().nodes_received);
    h = mix(h, s->pipelines().size());
  }
  for (const auto& p : pipelines_) {
    h = mix(h, p->width());
    h = mix(h, p->target());
    h = mix(h, p->fenced() ? 1 : 0);
    h = mix(h, p->resizes_applied());
    h = mix(h, p->stale_owner_drops());
    for (des::SimTime t : p->resize_latencies()) {
      h = mix(h, static_cast<std::uint64_t>(t));
    }
  }
  const Root::Stats& rs = root_->stats();
  h = mix(h, rs.failovers);
  h = mix(h, rs.pipelines_reassigned);
  h = mix(h, rs.trades_committed);
  h = mix(h, rs.trades_aborted);
  h = mix(h, rs.trades_fenced);
  h = mix(h, rs.trades_denied);
  h = mix(h, root_->control_trace().size());
  h = mix(h, sim_.events_processed());
  if (injector_ != nullptr) {
    const auto& st = injector_->stats();
    h = mix(h, st.dropped);
    h = mix(h, st.duplicated);
    h = mix(h, st.delayed);
    h = mix(h, st.partition_drops);
    h = mix(h, st.crash_drops);
    h = mix(h, st.crashes);
    h = mix(h, st.restarts);
  }
  return h;
}

void Fleet::publish_metrics(trace::MetricsRegistry& reg) const {
  for (const auto& s : shards_) {
    const std::string label = "shard=\"" + s->manager_id() + "\"";
    reg.gauge("ioc_fed_shard_pool_nodes", label,
              "Staging nodes in the shard's resource pool")
        .set(static_cast<double>(s->pool().total()));
    reg.gauge("ioc_fed_shard_spare_nodes", label,
              "Spare (unowned) staging nodes in the shard's pool")
        .set(static_cast<double>(s->pool().spare_count()));
    reg.gauge("ioc_fed_shard_escrow_nodes", label,
              "Nodes held in cross-shard trade escrow by the shard")
        .set(static_cast<double>(s->pool().escrowed()));
    reg.gauge("ioc_fed_shard_pipelines", label,
              "Pipelines currently owned by the shard")
        .set(static_cast<double>(s->pipelines().size()));
    reg.gauge("ioc_fed_shard_up", label,
              "1 while the shard is live, 0 once crashed or fenced")
        .set(s->failed() ? 0.0 : 1.0);
    reg.counter("ioc_fed_shard_resizes_total", label,
                "Completed pipeline resize rounds driven by the shard")
        .inc(static_cast<double>(s->stats().resizes));
    reg.counter("ioc_fed_shard_escalations_total", label,
                "Pipelines the shard fenced after exhausted retries")
        .inc(static_cast<double>(s->stats().escalations));
  }
  const Root::Stats& rs = root_->stats();
  reg.counter("ioc_fed_failovers_total", "",
              "Shards fenced and failed over by the root")
      .inc(static_cast<double>(rs.failovers));
  reg.counter("ioc_fed_pipelines_reassigned_total", "",
              "Pipelines moved to a surviving shard by failover")
      .inc(static_cast<double>(rs.pipelines_reassigned));
  reg.counter("ioc_fed_trades_total", "outcome=\"commit\"",
              "Cross-shard trades by outcome")
      .inc(static_cast<double>(rs.trades_committed));
  reg.counter("ioc_fed_trades_total", "outcome=\"abort\"", "")
      .inc(static_cast<double>(rs.trades_aborted));
  reg.counter("ioc_fed_trades_total", "outcome=\"fence\"", "")
      .inc(static_cast<double>(rs.trades_fenced));
  reg.counter("ioc_fed_trades_total", "outcome=\"denied\"", "")
      .inc(static_cast<double>(rs.trades_denied));
  auto& h = reg.histogram("ioc_fed_resize_latency_seconds", "",
                          "Demand-to-convergence latency of live pipelines");
  for (const auto& p : pipelines_) {
    if (p->fenced()) continue;
    for (des::SimTime t : p->resize_latencies()) {
      h.observe(static_cast<double>(t) / des::kSecond);
    }
  }
  if (injector_ != nullptr) injector_->publish(reg);
}

}  // namespace ioc::fed
