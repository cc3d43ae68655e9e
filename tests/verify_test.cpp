// Tests for the control-plane model checker (src/verify): the clean model
// verifies exhaustively, each re-introduced historical bug yields a
// counterexample the lint trace replayer flags, partial-order reduction
// preserves verdicts while shrinking the state count, and every trace the
// model emits replays cleanly through lint::check_trace on violation-free
// paths.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "lint/trace.h"
#include "verify/checker.h"
#include "verify/model.h"

namespace {

using ioc::lint::check_trace;
using ioc::verify::CheckOptions;
using ioc::verify::CheckReport;
using ioc::verify::Model;
using ioc::verify::Property;
using ioc::verify::Scenario;

ioc::core::PipelineSpec spec_of(const Scenario& sc) {
  ioc::core::PipelineSpec spec;
  spec.staging_nodes = static_cast<std::size_t>(sc.total_nodes());
  for (const auto& c : sc.containers) {
    ioc::core::ContainerSpec cs;
    cs.name = c.name;
    cs.initial_nodes = static_cast<std::uint32_t>(c.width);
    spec.containers.push_back(cs);
  }
  return spec;
}

bool has_code(const ioc::lint::LintResult& r, const std::string& code) {
  for (const auto& d : r.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(VerifyModel, CleanTwoContainerScenarioVerifiesExhaustively) {
  // The acceptance scenario: two containers, full D2T trade, one control
  // conversation each, one drop + one duplicate + one crash.
  const Model model(Scenario::two_container());
  const CheckReport rep = ioc::verify::run_check(model);
  EXPECT_TRUE(rep.ok()) << (rep.violation
                                ? rep.violation->message
                                : std::string("state cap hit"));
  EXPECT_FALSE(rep.capped);
  // Exact counts: a refactor of the model or the explorer that changes the
  // explored graph, however slightly, shows up here.
  EXPECT_EQ(rep.states, 1765058u);
  EXPECT_EQ(rep.edges, 6296711u);
  EXPECT_EQ(rep.terminals, 308u);
  EXPECT_EQ(rep.depth, 34u);
}

TEST(VerifyModel, SharedTokenBugYieldsConservationCounterexample) {
  // PR 4 bug, re-introduced: the vote gather counts duplicate replies
  // without per-member dedupe, so a duplicated YES stands in for the donor
  // and the trade commits without a prepared node.
  Scenario sc = Scenario::two_container();
  sc.bugs.shared_token = true;
  const CheckReport rep = ioc::verify::run_check(Model(sc));
  ASSERT_TRUE(rep.violation.has_value());
  EXPECT_EQ(rep.violation->property, Property::kConservation);
  EXPECT_EQ(rep.states, 18641u);
  EXPECT_EQ(rep.edges, 53612u);
  EXPECT_EQ(rep.terminals, 0u);
  EXPECT_EQ(rep.depth, 8u);
  ASSERT_FALSE(rep.counterexample.empty());
  EXPECT_EQ(rep.counterexample.size(), 9u);
  // The counterexample trace is in the control-trace vocabulary, and the
  // offline replayer convicts it: the recipient's grant has no matching
  // donor decrease, so widths exceed the staging allocation (IOC103).
  const auto lint = check_trace(spec_of(sc), rep.trace);
  EXPECT_TRUE(has_code(lint, "IOC103")) << ioc::lint::to_text(lint);
}

TEST(VerifyModel, StaleTimeoutBugYieldsOrphanTimeoutCounterexample) {
  // PR 4 bug, re-introduced: a completed round's gather timer stays armed;
  // its stale firing makes the GM abandon the next conversation without
  // RETRY or ESCALATE.
  Scenario sc = Scenario::two_container();
  sc.bugs.stale_timeout = true;
  const CheckReport rep = ioc::verify::run_check(Model(sc));
  ASSERT_TRUE(rep.violation.has_value());
  EXPECT_EQ(rep.violation->property, Property::kTimeoutOrphan);
  EXPECT_EQ(rep.states, 9898u);
  EXPECT_EQ(rep.edges, 27852u);
  EXPECT_EQ(rep.terminals, 0u);
  EXPECT_EQ(rep.depth, 7u);
  EXPECT_EQ(rep.counterexample.size(), 8u);
  const auto lint = check_trace(spec_of(sc), rep.trace);
  EXPECT_TRUE(has_code(lint, "IOC105")) << ioc::lint::to_text(lint);
  EXPECT_TRUE(has_code(lint, "IOC102")) << ioc::lint::to_text(lint);
}

TEST(VerifyModel, PartialOrderReductionPreservesVerdicts) {
  // Same scenario with and without ample sets: identical verdict and
  // terminal count, fewer or equal stored states under reduction. A small
  // adversary keeps the full-interleaving run cheap.
  Scenario sc = Scenario::two_container();
  sc.faults.crashes = 0;
  CheckOptions with_por;
  CheckOptions without_por;
  without_por.por = false;
  const CheckReport reduced = ioc::verify::run_check(Model(sc), with_por);
  const CheckReport full = ioc::verify::run_check(Model(sc), without_por);
  EXPECT_TRUE(reduced.ok());
  EXPECT_TRUE(full.ok());
  EXPECT_LE(reduced.states, full.states);
  EXPECT_EQ(reduced.terminals, full.terminals);

  for (const bool shared : {true, false}) {
    Scenario bug = Scenario::two_container();
    bug.faults.crashes = 0;
    bug.bugs.shared_token = shared;
    bug.bugs.stale_timeout = !shared;
    const CheckReport r1 = ioc::verify::run_check(Model(bug), with_por);
    const CheckReport r2 = ioc::verify::run_check(Model(bug), without_por);
    ASSERT_TRUE(r1.violation.has_value());
    ASSERT_TRUE(r2.violation.has_value());
    EXPECT_EQ(r1.violation->property, r2.violation->property);
  }
}

TEST(VerifyModel, EmittedTracesReplayCleanlyOnViolationFreePaths) {
  // Bridge between the model and the offline replayer: walk the model to
  // quiescence under many deterministic schedules and replay every emitted
  // control trace through lint::check_trace — a clean run must produce a
  // clean trace (no false IOC10x from the model's event emission rules).
  const Scenario sc = Scenario::two_container();
  const Model model(sc);
  const auto spec = spec_of(sc);
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    std::uint64_t rng = seed;
    ioc::verify::State s = model.initial();
    std::vector<ioc::core::ControlTraceEvent> trace;
    std::vector<ioc::verify::Action> actions;
    for (int steps = 0; steps < 500; ++steps) {
      model.enabled(s, &actions);
      if (actions.empty()) break;
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      ioc::verify::Step step;
      s = model.apply(s, actions[(rng >> 33) % actions.size()], &step);
      for (auto& ev : step.events) {
        ev.at = static_cast<ioc::des::SimTime>(trace.size() + 1);
        trace.push_back(ev);
      }
      ASSERT_FALSE(model.check(s).has_value())
          << "seed " << seed << ": " << model.check(s)->message;
    }
    model.enabled(s, &actions);
    ASSERT_TRUE(actions.empty()) << "seed " << seed << " did not quiesce";
    EXPECT_FALSE(model.stuck(s).has_value()) << "seed " << seed;
    const auto lint = check_trace(spec, trace);
    EXPECT_TRUE(lint.ok() && lint.warnings() == 0)
        << "seed " << seed << ":\n"
        << ioc::lint::to_text(lint);
  }
}

TEST(VerifyModel, ScenarioFromSpecPicksOnlineContainers) {
  ioc::core::PipelineSpec spec;
  spec.staging_nodes = 13;
  ioc::core::ContainerSpec a;
  a.name = "helper";
  a.initial_nodes = 8;
  ioc::core::ContainerSpec dormant;
  dormant.name = "cna";
  dormant.initial_nodes = 3;
  dormant.starts_offline = true;
  ioc::core::ContainerSpec b;
  b.name = "bonds";
  b.initial_nodes = 2;
  spec.containers = {a, dormant, b};
  const Scenario sc = Scenario::from_spec(spec, 2);
  ASSERT_EQ(sc.containers.size(), 2u);
  EXPECT_EQ(sc.containers[0].name, "helper");
  EXPECT_EQ(sc.containers[1].name, "bonds");  // dormant stage skipped
  EXPECT_EQ(sc.total_nodes(), 13);
  EXPECT_TRUE(sc.trade);
}

TEST(VerifyModel, NoTradeScenarioStillVerifies) {
  Scenario sc = Scenario::two_container();
  sc.trade = false;
  const CheckReport rep = ioc::verify::run_check(Model(sc));
  EXPECT_TRUE(rep.ok());
  EXPECT_GT(rep.terminals, 0u);
}

TEST(VerifyModel, StateEncodingDistinguishesLedgerMoves) {
  const Model model(Scenario::two_container());
  const auto s0 = model.initial();
  auto s1 = s0;
  s1.spares += 1;
  auto s2 = s0;
  s2.escrow += 1;
  const std::size_t n = model.num_containers();
  const std::set<std::string> keys = {s0.encode(n), s1.encode(n),
                                      s2.encode(n)};
  EXPECT_EQ(keys.size(), 3u);
}

}  // namespace
