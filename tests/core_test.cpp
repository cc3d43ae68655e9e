#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/container.h"
#include "core/global.h"
#include "core/protocol.h"
#include "core/resources.h"
#include "core/rounds.h"
#include "core/runtime.h"
#include "core/spec.h"
#include "core/trade.h"
#include "ev/bus.h"
#include "net/cluster.h"
#include "net/network.h"
#include "txn/d2t.h"
#include "util/config.h"
#include "util/hash.h"

namespace ioc::core {
namespace {

TEST(ResourcePool, GrantReclaimConservation) {
  ResourcePool pool({10, 11, 12, 13, 14});
  EXPECT_EQ(pool.total(), 5u);
  EXPECT_EQ(pool.spare_count(), 5u);
  auto a = pool.grant("bonds", 3);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(pool.owned_by("bonds"), 3u);
  EXPECT_EQ(pool.spare_count(), 2u);
  EXPECT_TRUE(pool.conserved());
  pool.reclaim("bonds", {a[0]});
  EXPECT_EQ(pool.owned_by("bonds"), 2u);
  EXPECT_EQ(pool.spare_count(), 3u);
  EXPECT_TRUE(pool.conserved());
  // a[0] is spare now: the call fails as a whole and a[1] stays with bonds.
  EXPECT_THROW(pool.reclaim("bonds", {a[1], a[0]}), std::invalid_argument);
  EXPECT_EQ(pool.owner_of(a[1]), "bonds");
  EXPECT_EQ(pool.spare_count(), 3u);
  EXPECT_THROW(pool.owner_of(99), std::invalid_argument);
}

TEST(ResourcePool, GrantReturnsFewerWhenShort) {
  ResourcePool pool({1, 2});
  auto a = pool.grant("x", 5);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(pool.grant("y", 1).empty());
}

TEST(ReplyCache, KeepsNewestMutatingRepliesOnly) {
  auto request = [](ev::MessageId type, std::uint64_t token) {
    ev::Message m;
    m.type_id = type;
    m.token = token;
    return m;
  };
  auto reply = [](std::uint64_t token) {
    ev::Message m;
    m.type_id = kMidDone;
    m.token = token;
    return m;
  };
  ReplyCache cache;
  // Not cached: a query (it changes nothing) and an untokened request.
  cache.store(request(kMidQueryNeeds, 1), reply(1));
  cache.store(request(kMidIncrease, 0), reply(0));
  EXPECT_EQ(cache.find(request(kMidQueryNeeds, 1)), nullptr);
  EXPECT_EQ(cache.find(request(kMidIncrease, 0)), nullptr);
  // 65 mutating rounds: the oldest falls out, the newest 64 replay.
  for (std::uint64_t t = 1; t <= 65; ++t) {
    cache.store(request(t % 2 != 0 ? kMidIncrease : kMidDecrease, t),
                reply(t));
  }
  EXPECT_EQ(cache.find(request(kMidIncrease, 1)), nullptr);
  for (std::uint64_t t = 2; t <= 65; ++t) {
    const ev::Message* hit =
        cache.find(request(t % 2 != 0 ? kMidIncrease : kMidDecrease, t));
    ASSERT_NE(hit, nullptr) << t;
    EXPECT_EQ(hit->token, t);
  }
}

TEST(Spec, LammpsSmartpointerValid) {
  auto spec = PipelineSpec::lammps_smartpointer(256, 13);
  EXPECT_EQ(spec.containers.size(), 4u);
  EXPECT_EQ(spec.initial_node_demand(), 13u);
  auto spec24 = PipelineSpec::lammps_smartpointer(512, 24);
  EXPECT_EQ(spec24.initial_node_demand(), 20u);  // 4 spares
  EXPECT_EQ(spec24.staging_nodes, 24u);
}

TEST(Spec, DownstreamCascadeOrder) {
  auto spec = PipelineSpec::lammps_smartpointer(256, 13);
  auto down = spec.downstream_of("bonds");
  ASSERT_EQ(down.size(), 2u);
  EXPECT_EQ(down[0], "csym");
  EXPECT_EQ(down[1], "cna");
  EXPECT_TRUE(spec.downstream_of("cna").empty());
}

TEST(Spec, ValidationCatchesErrors) {
  auto spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.containers[1].upstream = "nope";
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.containers[0].model = sp::ComputeModel::kParallel;  // helper != tree
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.staging_nodes = 5;  // demand 13 > 5
  EXPECT_THROW(spec.validate(), std::runtime_error);
}

TEST(Spec, FromConfigRoundTrip) {
  auto cfg = util::Config::parse(R"(
[pipeline]
output_interval_s = 10
sim_nodes = 64
staging_nodes = 6
steps = 12
overflow_backlog = 4

[container]
name = helper
kind = helper
model = tree
nodes = 3
min_nodes = 2
essential = true

[container]
name = bonds
kind = bonds
model = parallel
nodes = 3
upstream = helper
output_ratio = 1.5
)");
  auto spec = PipelineSpec::from_config(cfg);
  EXPECT_DOUBLE_EQ(spec.output_interval_s, 10);
  EXPECT_DOUBLE_EQ(spec.latency_sla_s, 10);  // defaults to interval
  EXPECT_EQ(spec.sim_nodes, 64u);
  ASSERT_EQ(spec.containers.size(), 2u);
  EXPECT_EQ(spec.containers[0].min_nodes, 2u);
  EXPECT_TRUE(spec.containers[0].essential);
  EXPECT_EQ(spec.containers[1].model, sp::ComputeModel::kParallel);
  EXPECT_DOUBLE_EQ(spec.containers[1].output_ratio, 1.5);
}

// --- end-to-end pipeline runs -------------------------------------------

PipelineSpec tiny_spec(bool management) {
  // Small enough to drain in well under a virtual hour.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.steps = 6;
  spec.management_enabled = management;
  return spec;
}

TEST(StagedPipeline, UnmanagedRunDeliversAllSteps) {
  StagedPipeline p(tiny_spec(false));
  p.run();
  EXPECT_EQ(p.steps_emitted(), 6u);
  EXPECT_EQ(p.container("helper")->steps_processed(), 6u);
  EXPECT_EQ(p.container("bonds")->steps_processed(), 6u);
  EXPECT_EQ(p.container("csym")->steps_processed(), 6u);
  EXPECT_EQ(p.container("cna")->steps_processed(), 0u);  // dormant
  EXPECT_TRUE(p.events().empty());
  EXPECT_TRUE(p.pool().conserved());
}

TEST(StagedPipeline, DestroyedAfterStartWithoutRun) {
  // A live host calls start() and may be torn down before the pipeline
  // drains. Every loop start() spawned must still finish during the
  // destructor's drain: a coroutine left suspended leaks its frame, which
  // LeakSanitizer reports in the asan tree.
  const auto spec = PipelineSpec::from_config(util::Config::load(
      std::string(IOC_SOURCE_DIR) + "/examples/configs/lammps_256x13.ini"));
  StagedPipeline p(spec);
  p.start();
  EXPECT_FALSE(p.all_done());
}

TEST(StagedPipeline, CampaignMonitoringOutputIsPinned) {
  // The managed Fig. 7 campaign (256x13, 720 steps) that perfbench's
  // `campaign` workload runs. Its scrape text, its sample history and its
  // event count are pinned, so a change to how the hub ingests samples
  // must leave every series and every sample exactly as they were.
  PipelineSpec spec = PipelineSpec::from_config(util::Config::load(
      std::string(IOC_SOURCE_DIR) + "/examples/configs/lammps_256x13.ini"));
  spec.steps = 720;
  spec.validate();
  StagedPipeline::Options opt;
  opt.seed = 21;
  StagedPipeline p(spec, opt);
  p.run();
  ASSERT_TRUE(p.all_done());

  const std::string prom = p.hub().prometheus();
  const std::uint64_t prom_fold = util::fnv1a(prom.data(), prom.size());
  std::uint64_t history_fold = util::kFnvOffset;
  for (const auto& s : p.hub().history()) {
    history_fold = util::fnv1a_value(s.at, history_fold);
    history_fold = util::fnv1a_value(s.kind, history_fold);
    history_fold = util::fnv1a_value(s.step, history_fold);
    history_fold = util::fnv1a_value(s.value, history_fold);
    history_fold = util::fnv1a(s.source.data(), s.source.size(), history_fold);
  }
  EXPECT_EQ(p.hub().samples_seen(), 5040u);
  EXPECT_EQ(p.hub().history().size(), 5040u);
  EXPECT_EQ(p.sim().events_processed(), 32872u);
  EXPECT_EQ(prom_fold, 0xbf5fca2ebdf7b1f5ull) << std::hex << prom_fold;
  EXPECT_EQ(history_fold, 0x9a8c8e42c1902f88ull) << std::hex << history_fold;
}

TEST(StagedPipeline, SinkEmitsEndToEndSamples) {
  StagedPipeline p(tiny_spec(false));
  p.run();
  auto e2e = p.hub().history_for("pipeline", mon::MetricKind::kEndToEnd);
  EXPECT_EQ(e2e.size(), 6u);
  for (const auto& s : e2e) EXPECT_GT(s.value, 0.0);
}

TEST(StagedPipeline, MonitoringSeesAllOnlineContainers) {
  StagedPipeline p(tiny_spec(false));
  p.run();
  EXPECT_TRUE(p.hub().avg_latency("helper").has_value());
  EXPECT_TRUE(p.hub().avg_latency("bonds").has_value());
  EXPECT_TRUE(p.hub().avg_latency("csym").has_value());
  EXPECT_FALSE(p.hub().avg_latency("cna").has_value());
  // Bonds (parallel O(n^2) on 2 nodes) is the bottleneck by far.
  EXPECT_EQ(p.hub().bottleneck().value(), "bonds");
}

TEST(StagedPipeline, ManagementImprovesBondsLatency) {
  // The Fig. 7 situation: 256-rank workload, 13 staging nodes, no spares.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.steps = 30;
  StagedPipeline p(std::move(spec));
  p.run();
  // Management stole nodes from helper for bonds.
  bool bonds_increase = false;
  bool helper_decrease = false;
  for (const auto& e : p.events()) {
    if (e.action == "increase" && e.container == "bonds") {
      bonds_increase = true;
    }
    if (e.action == "decrease" && e.container == "helper") {
      helper_decrease = true;
    }
  }
  EXPECT_TRUE(bonds_increase);
  EXPECT_TRUE(helper_decrease);
  EXPECT_GT(p.container("bonds")->width(), 2u);
  EXPECT_LT(p.container("helper")->width(), 8u);
  EXPECT_TRUE(p.pool().conserved());

  // Latency converges below the unmanaged steady state: the last samples
  // are better than the worst observed.
  auto hist = p.hub().history_for("bonds", mon::MetricKind::kLatency);
  ASSERT_GE(hist.size(), 8u);
  double worst = 0;
  for (const auto& s : hist) worst = std::max(worst, s.value);
  const double final_lat = hist.back().value;
  EXPECT_LT(final_lat, worst * 0.8);
  EXPECT_LT(final_lat, spec.latency_sla_s * 1.2);
}

TEST(StagedPipeline, OverflowTriggersOfflineCascadeWithProvenance) {
  // The Fig. 9 situation: 1024-rank workload on 24 staging nodes — bonds
  // can never meet the SLA, spares run out, backlog crosses the threshold,
  // and bonds+csym go offline while helper switches to disk.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(1024, 24);
  spec.steps = 24;
  StagedPipeline p(std::move(spec));
  p.run();

  bool bonds_offline = false, csym_offline = false;
  for (const auto& e : p.events()) {
    if (e.action == "offline" && e.container == "bonds") bonds_offline = true;
    if (e.action == "offline" && e.container == "csym") csym_offline = true;
  }
  EXPECT_TRUE(bonds_offline);
  EXPECT_TRUE(csym_offline);
  EXPECT_FALSE(p.container("bonds")->online());
  EXPECT_FALSE(p.container("csym")->online());
  EXPECT_TRUE(p.container("helper")->online());
  EXPECT_TRUE(p.container("helper")->disk_mode());

  // Helper wrote the remaining steps to disk with provenance labels.
  ASSERT_FALSE(p.fs().objects().empty());
  const auto& obj = p.fs().objects().back();
  EXPECT_EQ(obj.attributes.at(sio::kAttrProvenance), "helper");
  EXPECT_EQ(obj.attributes.at(sio::kAttrPending), "bonds,csym,cna");
  EXPECT_TRUE(p.pool().conserved());
}

TEST(StagedPipeline, EndToEndLatencyDropsAfterPruning) {
  // Fig. 10: e2e latency climbs while the queue grows, then drops sharply
  // once the bottleneck is pruned from the data path.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(1024, 24);
  spec.steps = 24;
  StagedPipeline p(std::move(spec));
  p.run();
  auto e2e = p.hub().history_for("pipeline", mon::MetricKind::kEndToEnd);
  ASSERT_GE(e2e.size(), 6u);
  double peak = 0;
  for (const auto& s : e2e) peak = std::max(peak, s.value);
  EXPECT_LT(e2e.back().value, peak / 4);  // sharp decrease
}

// --- direct protocol exercises -------------------------------------------

struct ProtoFixture {
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  StagedPipeline p;
  ProtoFixture() : p([this] {
        spec.management_enabled = false;
        spec.steps = 4;
        return spec;
      }()) {}
};

des::Process drive(des::Task<ProtocolReport> t, ProtocolReport* out) {
  *out = co_await std::move(t);
}

TEST(Protocols, IncreaseReportsPhaseBreakdown) {
  ProtoFixture f;
  f.p.run();  // drain first so the protocol runs on an idle pipeline
  ProtocolReport rep;
  // csym is round-robin: increase spawns replicas without a pause.
  // (No spares: first free some from helper.)
  ProtocolReport dec;
  spawn(f.p.sim(), drive(f.p.gm().decrease("helper", 2), &dec));
  f.p.sim().run();
  ASSERT_TRUE(dec.ok);
  EXPECT_EQ(dec.delta, -2);
  EXPECT_GT(dec.pause_wait, -1);  // present (may be zero when idle)

  spawn(f.p.sim(), drive(f.p.gm().increase("csym", 2), &rep));
  f.p.sim().run();
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(rep.delta, 2);
  EXPECT_GT(rep.aprun, 3 * des::kSecond);
  EXPECT_GT(rep.metadata_exchange, 0);
  EXPECT_GT(rep.metadata_messages, 0u);
  EXPECT_EQ(rep.pause_wait, 0);  // round-robin grow needs no pause
  // aprun dominates but is factored out of the comparable total.
  EXPECT_LT(rep.total_without_aprun(), rep.aprun);
  // GM<->CM messaging is nearly negligible versus metadata exchange.
  EXPECT_LT(rep.gm_cm_messaging, rep.total_without_aprun());
  EXPECT_EQ(f.p.container("csym")->width(), 5u);
  EXPECT_TRUE(f.p.pool().conserved());
}

TEST(Protocols, IncreaseWithNoSparesFails) {
  ProtoFixture f;
  f.p.run();
  ProtocolReport rep;
  spawn(f.p.sim(), drive(f.p.gm().increase("csym", 1), &rep));
  f.p.sim().run();
  EXPECT_FALSE(rep.ok);  // 13 nodes, all allocated
  EXPECT_EQ(f.p.container("csym")->width(), 3u);
}

TEST(Protocols, DecreaseFreesNodesToSpare) {
  ProtoFixture f;
  f.p.run();
  ProtocolReport rep;
  spawn(f.p.sim(), drive(f.p.gm().decrease("csym", 2), &rep));
  f.p.sim().run();
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(f.p.container("csym")->width(), 1u);
  EXPECT_EQ(f.p.pool().spare_count(), 2u);
  EXPECT_TRUE(f.p.pool().conserved());
}

TEST(Protocols, ActivateBringsDormantContainerOnline) {
  ProtoFixture f;
  f.p.run();
  ProtocolReport dec, act;
  spawn(f.p.sim(), drive(f.p.gm().decrease("helper", 2), &dec));
  f.p.sim().run();
  spawn(f.p.sim(), drive(f.p.gm().activate("cna", 2), &act));
  f.p.sim().run();
  ASSERT_TRUE(act.ok);
  EXPECT_TRUE(f.p.container("cna")->online());
  EXPECT_EQ(f.p.container("cna")->width(), 2u);
}

std::uint64_t fold_report(const ProtocolReport& r, std::uint64_t h) {
  h = util::fnv1a(r.action.data(), r.action.size(), h);
  h = util::fnv1a(r.container.data(), r.container.size(), h);
  h = util::fnv1a_value(r.delta, h);
  h = util::fnv1a_value(r.total, h);
  h = util::fnv1a_value(r.gm_cm_messaging, h);
  h = util::fnv1a_value(r.aprun, h);
  h = util::fnv1a_value(r.metadata_exchange, h);
  h = util::fnv1a_value(r.pause_wait, h);
  h = util::fnv1a_value(r.endpoint_update, h);
  h = util::fnv1a_value(r.state_migration, h);
  h = util::fnv1a_value(r.metadata_messages, h);
  return util::fnv1a_value(r.ok, h);
}

// Runs one resize of every kind against a live pipeline. After each step it
// folds the step's report, the reports of the events the step logged, every
// container's node count and the simulator's event count into `*fold`.
des::Process resize_every_path(StagedPipeline& p, std::uint64_t* fold) {
  co_await des::delay(p.sim(), 40 * des::kSecond);
  std::size_t logged = 0;
  auto note = [&](const ProtocolReport& r) {
    std::uint64_t h = fold_report(r, *fold);
    for (; logged < p.events().size(); ++logged) {
      h = fold_report(p.events()[logged].report, h);
    }
    for (const auto& c : p.spec().containers) {
      h = util::fnv1a_value(p.pool().owned_by(c.name), h);
    }
    *fold = util::fnv1a_value(p.sim().events_processed(), h);
  };
  // Tree decrease: helper 8 -> 4 frees the spares the rest draws on.
  auto helper_down = p.gm().decrease("helper", 4);
  note(co_await helper_down);
  // Parallel (MPI-style) relaunches: bonds 2 -> 4, then 4 -> 3 (keep > 0).
  auto bonds_up = p.gm().increase("bonds", 2);
  note(co_await bonds_up);
  auto bonds_down = p.gm().decrease("bonds", 1);
  note(co_await bonds_down);
  // Round-robin resizes of a stateful component migrate its state.
  auto csym_up = p.gm().increase("csym", 1);
  note(co_await csym_up);
  auto csym_down = p.gm().decrease("csym", 2);
  note(co_await csym_down);
  auto cna_on = p.gm().activate("cna", 2);
  note(co_await cna_on);
  // The cascade switches helper to disk and takes bonds (a parallel
  // decrease to zero), csym and cna offline.
  auto cascade = p.gm().offline_cascade("bonds", "resize pin");
  note(co_await cascade);
}

TEST(Protocols, EveryResizePathIsPinned) {
  // Every report field (the Figs. 4-5 phase split included), the ledger
  // and the event count after each step: a change to how a container
  // manager resizes that moves any awaited step or any reported instant
  // fails here.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.management_enabled = false;
  spec.steps = 24;
  for (auto& c : spec.containers) c.stateful = c.name == "csym";
  StagedPipeline::Options opt;
  // Taking cna offline waits for its step in progress, and one CNA step of
  // this workload on two nodes takes about 7.6 virtual hours.
  opt.horizon = 12 * 3600 * des::kSecond;
  StagedPipeline p(std::move(spec), opt);
  std::uint64_t fold = util::kFnvOffset;
  spawn(p.sim(), resize_every_path(p, &fold));
  p.run();
  ASSERT_TRUE(p.all_done());
  EXPECT_EQ(p.events().size(), 4u);  // activate + three offline
  EXPECT_FALSE(p.container("bonds")->online());
  EXPECT_TRUE(p.container("helper")->disk_mode());
  EXPECT_TRUE(p.pool().conserved());
  EXPECT_EQ(fold, 0xb4878fc6b2e489a6ull) << std::hex << fold;
}

des::Process fence_at(Container* c, des::Simulator& sim, des::SimTime at) {
  co_await des::delay(sim, at);
  c->fence();
}

TEST(Protocols, FenceDuringParallelRelaunchReleasesTheInput) {
  // bonds is fenced while its relaunch waits in aprun. The manager must
  // not resurrect the cohort, and it must resume the input it paused; the
  // GM's round times out on the closed endpoint and escalates, which
  // returns every node bonds held or was granted.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.management_enabled = false;
  spec.steps = 4;
  StagedPipeline::Options opt;
  opt.gm.round.timeout = 30 * des::kSecond;
  opt.gm.round.retries = 1;
  opt.gm.round.backoff = des::kSecond;
  StagedPipeline p(std::move(spec), opt);
  p.run();
  ProtocolReport dec, inc;
  spawn(p.sim(), drive(p.gm().decrease("helper", 2), &dec));
  p.sim().run();
  ASSERT_TRUE(dec.ok);

  Container* bonds = p.container("bonds");
  const des::SimTime t0 = p.sim().now();
  spawn(p.sim(), drive(p.gm().increase("bonds", 2), &inc));
  // aprun costs 3-27 s; the pause and the teardown of a drained pipeline
  // take microseconds, so 1 s in the relaunch is inside aprun.
  spawn(p.sim(), fence_at(bonds, p.sim(), des::kSecond));
  // Past aprun, before the round times out: the manager has seen the
  // fence, left the cohort down and released its input.
  p.sim().run_until(t0 + 29 * des::kSecond);
  EXPECT_EQ(bonds->width(), 0u);
  EXPECT_FALSE(bonds->input()->paused());
  p.sim().run();
  EXPECT_FALSE(inc.ok);
  EXPECT_FALSE(bonds->online());
  EXPECT_EQ(bonds->width(), 0u);
  EXPECT_FALSE(bonds->input()->paused());
  EXPECT_EQ(p.pool().owned_by("bonds"), 0u);
  EXPECT_TRUE(p.pool().conserved());
  bool fenced = false;
  for (const auto& e : p.events()) fenced |= e.action == "fence";
  EXPECT_TRUE(fenced);
}

// Fences `c` the first microsecond its relaunch has replicas again: the
// cohort went to width 0 for the teardown, and the new replicas join just
// before their metadata exchange starts. Records the width it fenced at.
des::Process fence_when_relaunched(Container* c, des::Simulator& sim,
                                   std::uint32_t* fenced_at_width) {
  const des::SimTime give_up = sim.now() + 60 * des::kSecond;
  while (c->width() != 0 && sim.now() < give_up) {
    co_await des::delay(sim, des::kMicrosecond);
  }
  while (c->width() == 0 && sim.now() < give_up) {
    co_await des::delay(sim, des::kMicrosecond);
  }
  *fenced_at_width = c->width();
  c->fence();
}

TEST(Protocols, FenceDuringMetadataExchangeReleasesTheInput) {
  // bonds is fenced while its relaunch exchanges metadata with the new
  // replicas, and fence() empties the cohort under the exchange. The
  // manager must stop the exchange and resume the input it paused; the
  // GM's round times out and escalates, which returns every node.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.management_enabled = false;
  spec.steps = 4;
  StagedPipeline::Options opt;
  opt.gm.round.timeout = 60 * des::kSecond;
  opt.gm.round.retries = 1;
  opt.gm.round.backoff = des::kSecond;
  StagedPipeline p(std::move(spec), opt);
  p.run();
  ProtocolReport dec, inc;
  spawn(p.sim(), drive(p.gm().decrease("helper", 2), &dec));
  p.sim().run();
  ASSERT_TRUE(dec.ok);

  Container* bonds = p.container("bonds");
  std::uint32_t fenced_at_width = 0;
  spawn(p.sim(), drive(p.gm().increase("bonds", 2), &inc));
  spawn(p.sim(), fence_when_relaunched(bonds, p.sim(), &fenced_at_width));
  p.sim().run();
  EXPECT_EQ(fenced_at_width, 4u);
  EXPECT_FALSE(inc.ok);
  EXPECT_FALSE(bonds->online());
  EXPECT_EQ(bonds->width(), 0u);
  EXPECT_FALSE(bonds->input()->paused());
  EXPECT_EQ(p.pool().owned_by("bonds"), 0u);
  EXPECT_TRUE(p.pool().conserved());
}

// csym (round-robin) loses all three replicas at 40 s and gets two back at
// 70 s.
des::Process csym_to_zero_and_back(StagedPipeline& p, ProtocolReport* dec,
                                   ProtocolReport* inc) {
  co_await des::delay(p.sim(), 40 * des::kSecond);
  auto down = p.gm().decrease("csym", 3);
  *dec = co_await down;
  co_await des::delay(
      p.sim(), std::max<des::SimTime>(0, 70 * des::kSecond - p.sim().now()));
  auto up = p.gm().increase("csym", 2);
  *inc = co_await up;
}

TEST(Protocols, IncreaseAfterDecreaseToZeroResumesTheInput) {
  // The decrease to width 0 leaves csym's input paused. The replicas the
  // increase brings back must read it: the pipeline drains and csym
  // processes every step.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.management_enabled = false;
  spec.steps = 12;
  StagedPipeline p(std::move(spec));
  ProtocolReport dec, inc;
  spawn(p.sim(), csym_to_zero_and_back(p, &dec, &inc));
  p.run();
  ASSERT_TRUE(dec.ok);
  ASSERT_TRUE(inc.ok);
  EXPECT_TRUE(p.all_done());
  Container* csym = p.container("csym");
  EXPECT_EQ(csym->width(), 2u);
  EXPECT_FALSE(csym->input()->paused());
  EXPECT_EQ(csym->steps_processed(), 12u);
  EXPECT_TRUE(p.pool().conserved());
}

// --- transactional trades -------------------------------------------------

struct TradeFixture {
  des::Simulator sim;
  net::Cluster cluster{sim, 8};
  net::Network net{cluster};
  ev::Bus bus{net};
  ResourcePool pool{{100, 101, 102, 103}};

  TradeFixture() {
    (void)pool.grant("viz", 2);
    (void)pool.grant("analytics", 2);
  }
};

des::Process run_trade(txn::TxnHarness& h, txn::TxnResult* out) {
  *out = co_await h.run();
}

TEST(TransactionalTrade, CommitMovesNodes) {
  TradeFixture f;
  txn::TxnConfig cfg;
  cfg.writers = 2;
  cfg.readers = 2;
  txn::TxnHarness h(f.bus, cfg);
  DonorTradeOp donor(f.pool, /*txn=*/1, "viz", 2);
  RecipientTradeOp recipient(f.pool, /*txn=*/1, "analytics", 2);
  h.set_operation(0, &donor);
  h.set_operation(2, &recipient);
  txn::TxnResult r;
  spawn(f.sim, run_trade(h, &r));
  f.sim.run_until(30 * des::kSecond);
  EXPECT_EQ(r.outcome, txn::Outcome::kCommitted);
  EXPECT_EQ(f.pool.owned_by("viz"), 0u);
  EXPECT_EQ(f.pool.owned_by("analytics"), 4u);
  EXPECT_TRUE(f.pool.conserved());
}

class TradeFailures : public ::testing::TestWithParam<txn::FailureSpec> {};

TEST_P(TradeFailures, NodesNeverLostOrDuplicated) {
  TradeFixture f;
  txn::TxnConfig cfg;
  cfg.writers = 2;
  cfg.readers = 2;
  cfg.round.timeout = des::kSecond;
  cfg.failure = GetParam();
  txn::TxnHarness h(f.bus, cfg);
  DonorTradeOp donor(f.pool, /*txn=*/1, "viz", 2);
  RecipientTradeOp recipient(f.pool, /*txn=*/1, "analytics", 2);
  h.set_operation(0, &donor);
  h.set_operation(2, &recipient);
  txn::TxnResult r;
  spawn(f.sim, run_trade(h, &r));
  f.sim.run_until(60 * des::kSecond);
  // Atomic either way: both moved or both stayed.
  if (r.outcome == txn::Outcome::kCommitted) {
    EXPECT_EQ(f.pool.owned_by("analytics"), 4u);
    EXPECT_EQ(f.pool.owned_by("viz"), 0u);
  } else {
    EXPECT_EQ(f.pool.owned_by("analytics"), 2u);
    EXPECT_EQ(f.pool.owned_by("viz"), 2u);
  }
  EXPECT_EQ(f.pool.escrowed(), 0u);  // nothing stranded
  EXPECT_TRUE(f.pool.conserved());
}

INSTANTIATE_TEST_SUITE_P(
    Phases, TradeFailures,
    ::testing::Values(txn::FailureSpec{0, txn::Phase::kBegin},
                      txn::FailureSpec{0, txn::Phase::kVote},
                      txn::FailureSpec{0, txn::Phase::kDecide},
                      txn::FailureSpec{2, txn::Phase::kBegin},
                      txn::FailureSpec{2, txn::Phase::kVote},
                      txn::FailureSpec{2, txn::Phase::kDecide},
                      txn::FailureSpec{3, txn::Phase::kVote}));

}  // namespace
}  // namespace ioc::core
