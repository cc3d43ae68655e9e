// ioc-lint coverage: one failing and one passing spec per diagnostic code,
// protocol-trace replays (a recorded increase round and corrupted
// variants), and the Fig. 3 state machine itself.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol.h"
#include "core/protocol_fsm.h"
#include "core/runtime.h"
#include "core/spec.h"
#include "lint/diagnostics.h"
#include "lint/rules.h"
#include "lint/trace.h"
#include "trace/json.h"
#include "util/config.h"
#include "util/intern.h"

namespace ioc::lint {
namespace {

using core::ControlTraceEvent;
using core::PipelineSpec;

std::set<std::string> codes(const LintResult& r) {
  std::set<std::string> out;
  for (const auto& d : r.diagnostics) out.insert(d.code);
  return out;
}

PipelineSpec base_spec() { return PipelineSpec::lammps_smartpointer(256, 13); }

// --- spec rules: passing baseline then one failing spec per code ----------

TEST(LintRules, PaperPresetsAreClean) {
  for (const auto& spec :
       {PipelineSpec::lammps_smartpointer(256, 13),
        PipelineSpec::lammps_smartpointer(512, 24),
        PipelineSpec::s3d_fronttracking(512, 12)}) {
    const LintResult r = lint_spec(spec);
    EXPECT_TRUE(r.ok()) << to_text(r);
    EXPECT_EQ(r.warnings(), 0u) << to_text(r);
  }
}

TEST(LintRules, IOC001UnknownUpstream) {
  auto spec = base_spec();
  spec.containers[2].upstream = "missing";
  const auto c = codes(lint_spec(spec));
  EXPECT_TRUE(c.count("IOC001"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC001"));
}

TEST(LintRules, IOC002DependencyCycle) {
  auto spec = base_spec();
  // bonds -> csym -> bonds; helper merely feeds the cycle and is not
  // reported itself.
  spec.containers[1].upstream = "csym";
  const LintResult r = lint_spec(spec);
  EXPECT_TRUE(codes(r).count("IOC002"));
  for (const auto& d : r.diagnostics) {
    if (d.code == "IOC002") {
      EXPECT_NE(d.container, "helper");
    }
  }
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC002"));
}

TEST(LintRules, IOC003DuplicateName) {
  auto spec = base_spec();
  spec.containers[2].name = "bonds";
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC003"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC003"));
}

TEST(LintRules, IOC004MultipleRoots) {
  auto spec = base_spec();
  spec.containers[1].upstream.clear();  // bonds now also fed by the source
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC004"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC004"));
}

TEST(LintRules, IOC005MinAboveInitial) {
  auto spec = base_spec();
  spec.containers[1].min_nodes = spec.containers[1].initial_nodes + 1;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC005"));
  // A dormant container's floor does not count against its (zero) initial
  // allocation.
  auto dormant = base_spec();
  dormant.containers[3].min_nodes = 2;  // cna: starts_offline, 0 nodes
  EXPECT_FALSE(codes(lint_spec(dormant)).count("IOC005"));
}

TEST(LintRules, IOC006DemandExceedsAllocation) {
  auto spec = base_spec();
  spec.staging_nodes = 7;  // demand is 13
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC006"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC006"));
}

TEST(LintRules, IOC007EssentialCannotGrow) {
  auto spec = base_spec();
  // Pin every online container to its current width: no spares (13 = 13)
  // and no donor headroom anywhere.
  for (auto& c : spec.containers) c.min_nodes = c.initial_nodes;
  const LintResult r = lint_spec(spec);
  EXPECT_TRUE(codes(r).count("IOC007"));
  // base: helper sits above its floor, so a donor exists.
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC007"));
}

TEST(LintRules, IOC008EssentialBehindOfflineableAncestor) {
  auto spec = base_spec();
  spec.containers[2].essential = true;  // csym essential, bonds is not
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC008"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC008"));
}

TEST(LintRules, IOC009DeadlinesExceedEndToEndSla) {
  auto spec = base_spec();
  spec.e2e_sla_s = 30;
  spec.containers[0].deadline_s = 12;
  spec.containers[1].deadline_s = 12;
  spec.containers[2].deadline_s = 12;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC009"));
  spec.e2e_sla_s = 40;  // now they fit
  EXPECT_FALSE(codes(lint_spec(spec)).count("IOC009"));
}

TEST(LintRules, IOC010DeadlineAboveStageSla) {
  auto spec = base_spec();
  spec.containers[1].deadline_s = spec.latency_sla_s + 5;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC010"));
  spec.containers[1].deadline_s = spec.latency_sla_s - 5;
  EXPECT_FALSE(codes(lint_spec(spec)).count("IOC010"));
}

TEST(LintRules, IOC011NonPositiveOutputRatio) {
  auto spec = base_spec();
  spec.containers[1].output_ratio = 0.0;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC011"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC011"));
}

TEST(LintRules, IOC012MonitorNever) {
  auto spec = base_spec();
  spec.containers[0].monitor_every = 0;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC012"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC012"));
}

TEST(LintRules, IOC013StatefulWithoutState) {
  auto spec = base_spec();
  spec.containers[1].stateful = true;
  spec.containers[1].state_bytes = 0;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC013"));
  spec.containers[1].state_bytes = 1024;
  EXPECT_FALSE(codes(lint_spec(spec)).count("IOC013"));
}

TEST(LintRules, IOC014UnsupportedModel) {
  auto spec = base_spec();
  spec.containers[0].model = sp::ComputeModel::kParallel;  // helper != tree
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC014"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC014"));
}

TEST(LintRules, IOC015OnlineZeroNodes) {
  auto spec = base_spec();
  spec.containers[2].initial_nodes = 0;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC015"));
  // cna has zero nodes but starts offline — legal in the base spec.
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC015"));
}

TEST(LintRules, IOC016DormantWithNodes) {
  auto spec = base_spec();
  spec.containers[3].initial_nodes = 2;  // cna is dormant
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC016"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC016"));
}

TEST(LintRules, IOC017NonPositiveIntervals) {
  auto spec = base_spec();
  spec.output_interval_s = 0;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC017"));
  auto spec2 = base_spec();
  spec2.latency_sla_s = -1;
  EXPECT_TRUE(codes(lint_spec(spec2)).count("IOC017"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC017"));
}

TEST(LintRules, IOC018ZeroOverflowBacklog) {
  auto spec = base_spec();
  spec.overflow_backlog = 0;
  EXPECT_TRUE(codes(lint_spec(spec)).count("IOC018"));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC018"));
}

// --- static feasibility (IOC2xx) -------------------------------------------

core::ContainerSpec feas_container(const std::string& name,
                                   sp::ComponentKind kind,
                                   sp::ComputeModel model,
                                   std::uint32_t nodes, std::uint32_t min,
                                   const std::string& upstream) {
  core::ContainerSpec c;
  c.name = name;
  c.kind = kind;
  c.model = model;
  c.initial_nodes = nodes;
  c.min_nodes = min;
  c.upstream = upstream;
  return c;
}

TEST(LintRules, IOC201InfeasibleSla) {
  // The 1024-rank regime: an O(n^2) bonds step takes ~64 s even with the
  // whole 13-node allocation, so no width holds the 15 s interval.
  auto spec = base_spec();
  spec.sim_nodes = 1024;
  const auto c = codes(lint_spec(spec));
  EXPECT_TRUE(c.count("IOC201")) << to_text(lint_spec(spec));
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC201"));
}

TEST(LintRules, IOC202AggregateOversubscription) {
  // Individually feasible stages whose predicted widths (2 + 10 + 1) do
  // not fit in 10 staging nodes. Two spares keep IOC203 quiet.
  PipelineSpec spec;
  spec.sim_nodes = 450;
  spec.staging_nodes = 10;
  spec.containers = {
      feas_container("helper", sp::ComponentKind::kHelper,
                     sp::ComputeModel::kTree, 2, 2, ""),
      feas_container("bonds", sp::ComponentKind::kBonds,
                     sp::ComputeModel::kParallel, 5, 1, "helper"),
      feas_container("csym", sp::ComponentKind::kCsym,
                     sp::ComputeModel::kRoundRobin, 1, 1, "bonds")};
  const auto c = codes(lint_spec(spec));
  EXPECT_TRUE(c.count("IOC202")) << to_text(lint_spec(spec));
  EXPECT_FALSE(c.count("IOC201"));
  EXPECT_FALSE(c.count("IOC203"));
  spec.staging_nodes = 14;  // enough for the predicted widths
  EXPECT_FALSE(codes(lint_spec(spec)).count("IOC202"));
  spec.staging_nodes = 10;
  spec.management_enabled = false;  // nobody will ask for the widths
  EXPECT_FALSE(codes(lint_spec(spec)).count("IOC202"));
}

TEST(LintRules, IOC203TradeDeadlock) {
  // No spares and both donors are themselves under their predicted width:
  // each grow trade needs a node from the other needy stage.
  PipelineSpec spec;
  spec.sim_nodes = 350;
  spec.staging_nodes = 10;
  spec.containers = {
      feas_container("helper", sp::ComponentKind::kHelper,
                     sp::ComputeModel::kTree, 2, 2, ""),
      feas_container("bonds", sp::ComponentKind::kBonds,
                     sp::ComputeModel::kParallel, 4, 1, "helper"),
      feas_container("bonds_replica", sp::ComponentKind::kBonds,
                     sp::ComputeModel::kParallel, 4, 1, "bonds")};
  const auto r = lint_spec(spec);
  EXPECT_TRUE(codes(r).count("IOC203")) << to_text(r);
  // One diagnostic per cycle member.
  std::size_t hits = 0;
  for (const auto& d : r.diagnostics) {
    if (d.code == "IOC203") ++hits;
  }
  EXPECT_EQ(hits, 2u);
  auto spared = spec;
  spared.staging_nodes = 13;  // a spare pool breaks the cycle
  EXPECT_FALSE(codes(lint_spec(spared)).count("IOC203"));
  auto donated = spec;
  donated.containers[0].min_nodes = 1;  // helper becomes a safe donor
  EXPECT_FALSE(codes(lint_spec(donated)).count("IOC203"));
}

TEST(LintRules, IOC204UnreachableCapability) {
  // Management disabled: the dormant CNA stage can never be activated.
  auto spec = base_spec();
  spec.management_enabled = false;
  const auto r = lint_spec(spec);
  EXPECT_TRUE(codes(r).count("IOC204")) << to_text(r);
  // A stateful container is similarly cut off from the resizing state.
  auto stateful = base_spec();
  stateful.management_enabled = false;
  stateful.containers[1].stateful = true;
  stateful.containers[1].state_bytes = 4096;
  std::size_t hits = 0;
  for (const auto& d : lint_spec(stateful).diagnostics) {
    if (d.code == "IOC204") ++hits;
  }
  EXPECT_EQ(hits, 2u);  // dormant cna + stateful container
  EXPECT_FALSE(codes(lint_spec(base_spec())).count("IOC204"));
}

// --- lenient config loading ------------------------------------------------

constexpr const char* kGoodConfig = R"(
[pipeline]
output_interval_s = 15
staging_nodes = 13

[container]
name = helper
kind = helper
model = tree
nodes = 8
min_nodes = 4
essential = true

[container]
name = bonds
kind = bonds
model = parallel
nodes = 5
upstream = helper
)";

TEST(LintConfig, CleanConfigProducesNoDiagnostics) {
  const auto r = lint_config(util::Config::parse(kGoodConfig), "good.ini");
  EXPECT_TRUE(r.ok()) << to_text(r);
  EXPECT_EQ(r.diagnostics.size(), 0u);
}

TEST(LintConfig, IOC019UnknownKind) {
  const auto r = lint_config(util::Config::parse(R"(
[pipeline]
staging_nodes = 4
[container]
name = mystery
kind = quantum
nodes = 2
)"));
  EXPECT_TRUE(codes(r).count("IOC019"));
  // The defaulted kind must not also fire the Table I model rule.
  EXPECT_FALSE(codes(r).count("IOC014"));
}

TEST(LintConfig, IOC020UnknownModel) {
  const auto r = lint_config(util::Config::parse(R"(
[pipeline]
staging_nodes = 4
[container]
name = helper
kind = helper
model = quantum
nodes = 2
)"));
  EXPECT_TRUE(codes(r).count("IOC020"));
  EXPECT_FALSE(codes(r).count("IOC014"));
}

TEST(LintConfig, IOC021MissingName) {
  const auto r = lint_config(util::Config::parse(R"(
[pipeline]
staging_nodes = 4
[container]
kind = helper
model = tree
nodes = 2
)"));
  EXPECT_TRUE(codes(r).count("IOC021"));
}

TEST(LintConfig, DiagnosticsCarryConfigLines) {
  const std::string text =
      "[pipeline]\n"            // line 1
      "staging_nodes = 8\n"     // line 2
      "[container]\n"           // line 3
      "name = helper\n"         // line 4
      "kind = helper\n"         // line 5
      "model = tree\n"          // line 6
      "nodes = 4\n"             // line 7
      "essential = true\n"      // line 8
      "[container]\n"           // line 9
      "name = bonds\n"          // line 10
      "kind = bonds\n"          // line 11
      "nodes = 2\n"             // line 12
      "upstream = ghost\n";     // line 13
  const auto r = lint_config(util::Config::parse(text), "lines.ini");
  bool found = false;
  for (const auto& d : r.diagnostics) {
    if (d.code != "IOC001") continue;
    found = true;
    EXPECT_EQ(d.line, 13);
    EXPECT_EQ(d.key, "upstream");
    EXPECT_EQ(d.container, "bonds");
  }
  EXPECT_TRUE(found);
  const std::string rendered = to_text(r);
  EXPECT_NE(rendered.find("lines.ini:13"), std::string::npos) << rendered;
}

TEST(LintConfig, JsonOutputIsWellFormed) {
  auto spec = base_spec();
  spec.containers[1].output_ratio = -1;
  LintResult r = lint_spec(spec);
  r.source = "x.ini";
  const std::string j = to_json(r);
  EXPECT_NE(j.find("\"source\":\"x.ini\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"code\":\"IOC011\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"errors\":1"), std::string::npos) << j;

  // Every character JSON must escape survives the round trip.
  const std::string awkward = std::string("q\"b\\n\nr\rt\tc") + '\x01';
  r.add("IOC999", Severity::kWarning, awkward, "key", 3, "msg " + awkward);
  trace::json::Value v;
  std::string error;
  ASSERT_TRUE(trace::json::parse(to_json(r), &v, &error)) << error;
  const auto* diags = v.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_FALSE(diags->array.empty());
  EXPECT_EQ(diags->array.back().str_or("container"), awkward);
  EXPECT_EQ(diags->array.back().str_or("message"), "msg " + awkward);
}

TEST(LintConfig, RegistryCoversAllEmittedCodes) {
  // Every code the engine can emit is documented in the registry, and
  // codes are unique.
  std::set<std::string> seen;
  for (const auto& r : rules()) {
    EXPECT_TRUE(seen.insert(r.info.code).second)
        << "duplicate rule code " << r.info.code;
  }
  for (const char* code :
       {"IOC001", "IOC019", "IOC101", "IOC102", "IOC103", "IOC900"}) {
    EXPECT_NE(find_rule(code), nullptr) << code;
  }
  EXPECT_GE(seen.size(), 10u);  // the acceptance floor, with headroom
}

// --- the Fig. 3 state machine ---------------------------------------------

TEST(ProtocolFsm, LegalConversationsAdvance) {
  core::ProtocolFsm m;
  EXPECT_EQ(m.state(), core::CmState::kIdle);
  EXPECT_TRUE(m.advance(core::kMidIncrease));
  EXPECT_EQ(m.state(), core::CmState::kResizing);
  EXPECT_TRUE(m.advance(core::kMidDone));
  EXPECT_TRUE(m.advance(core::kMidQueryNeeds));
  EXPECT_TRUE(m.advance(core::kMidNeeds));
  EXPECT_TRUE(m.advance(core::kMidOffline));
  EXPECT_EQ(m.state(), core::CmState::kGoingOffline);
  EXPECT_TRUE(m.advance(core::kMidDone));
  EXPECT_EQ(m.state(), core::CmState::kOffline);
  EXPECT_TRUE(m.advance(core::kMidActivate));
  EXPECT_TRUE(m.advance(core::kMidDone));
  EXPECT_EQ(m.state(), core::CmState::kIdle);
}

TEST(ProtocolFsm, IllegalMessagesAreRejectedWithoutMovingState) {
  core::ProtocolFsm m;
  EXPECT_FALSE(m.advance(core::kMidDone));  // DONE with nothing pending
  EXPECT_EQ(m.state(), core::CmState::kIdle);
  EXPECT_TRUE(m.advance(core::kMidOffline));
  EXPECT_FALSE(m.advance(core::kMidOffline));  // double OFFLINE_REQ
  EXPECT_FALSE(m.advance(core::kMidIncrease));  // resize while going offline
  EXPECT_EQ(m.state(), core::CmState::kGoingOffline);
}

TEST(ProtocolFsm, StatelessMessagesAreAlwaysLegal) {
  core::ProtocolFsm m;
  EXPECT_TRUE(m.advance(core::kMidEnableHashes));
  EXPECT_TRUE(m.advance(core::kMidIncrease));
  EXPECT_TRUE(m.advance(core::kMidMetric));  // monitoring flows regardless
  EXPECT_EQ(m.state(), core::CmState::kResizing);
}

TEST(ProtocolFsm, ExhaustiveStateMessageTableCrossProduct) {
  // Every CmState crossed with every protocol.h message id: advance()
  // must accept exactly the cm_transitions() edges plus the stateless
  // messages (which never move the state), and reject everything else
  // without moving — the nine markers and HEARTBEAT are trace annotations
  // respectively liveness chatter, never FSM inputs. Spot checks above show
  // intent; this closes the complement so a new message or edge cannot slip
  // in unexamined.
  const core::CmState kAllStates[] = {
      core::CmState::kIdle,         core::CmState::kResizing,
      core::CmState::kQueried,      core::CmState::kSwitching,
      core::CmState::kGoingOffline, core::CmState::kOffline,
      core::CmState::kActivating,
  };
  std::vector<ev::MessageId> messages = {
      core::kMidIncrease,      core::kMidDecrease,      core::kMidOffline,
      core::kMidQueryNeeds,    core::kMidSwitchToDisk,  core::kMidActivate,
      core::kMidDone,          core::kMidNeeds,         core::kMidReplicaHello,
      core::kMidReplicaConfig, core::kMidEndpointUpdate, core::kMidMetric,
      core::kMidEnableHashes,  core::kMidHeartbeat,
  };
  // The markers, by id: the nine close the canonical vocabulary, TIMEOUT
  // first and TRADE_FENCE last.
  const auto is_mark_id = [](ev::MessageId id) {
    return id >= core::kMidMarkTimeout && id <= core::kMidMarkTradeFence;
  };
  for (ev::MessageId id = core::kMidMarkTimeout;
       id <= core::kMidMarkTradeFence; ++id) {
    messages.push_back(id);
  }
  ASSERT_EQ(messages.size(), 14u + 9u);
  const auto& table = core::cm_transitions();
  std::size_t legal_moves = 0;
  for (core::CmState from : kAllStates) {
    for (ev::MessageId msg : messages) {
      const std::string_view name = ev::type_name(msg);
      // A message is either stateless, a marker, or a (potential) edge —
      // the three classifications must not overlap.
      const bool stateless = core::cm_message_is_stateless(msg);
      const bool marker = core::cm_message_is_marker(msg);
      EXPECT_FALSE(stateless && marker) << name;
      EXPECT_EQ(marker, is_mark_id(msg)) << name;

      const core::CmTransition* edge = nullptr;
      for (const auto& t : table) {
        if (t.from == from && msg == t.message) {
          ASSERT_EQ(edge, nullptr)  // table must be deterministic
              << "duplicate edge from " << core::cm_state_name(from)
              << " on " << name;
          edge = &t;
        }
      }
      if (edge != nullptr) {
        EXPECT_FALSE(stateless) << name << " is both stateless and an edge";
        EXPECT_FALSE(marker) << name << " is both a marker and an edge";
      }

      core::ProtocolFsm m(from);
      const bool accepted = m.advance(msg);
      EXPECT_EQ(accepted, stateless || edge != nullptr)
          << core::cm_state_name(from) << " x " << name;
      if (edge != nullptr) {
        EXPECT_EQ(m.state(), edge->to)
            << core::cm_state_name(from) << " x " << name;
        ++legal_moves;
      } else {
        EXPECT_EQ(m.state(), from)  // rejects and stateless both stay put
            << core::cm_state_name(from) << " x " << name;
      }
    }
  }
  // Every table edge was exercised exactly once by the cross-product (i.e.
  // the table references only states and messages enumerated here).
  EXPECT_EQ(legal_moves, table.size());
}

// --- trace checking --------------------------------------------------------

ControlTraceEvent ev(const char* container, ev::MessageId type, bool to_cm,
                     int delta = 0) {
  return {0, util::intern(container), type, to_cm, delta};
}

TEST(TraceCheck, RecordedIncreaseRoundPasses) {
  // The 512/24 setup has 4 spares: grow bonds by 2, then shrink it back.
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  const std::vector<ControlTraceEvent> trace = {
      ev("bonds", core::kMidIncrease, true),
      ev("bonds", core::kMidDone, false, +2),
      ev("bonds", core::kMidDecrease, true),
      ev("bonds", core::kMidDone, false, -2),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(r.ok()) << to_text(r);
}

TEST(TraceCheck, OutOfOrderOfflineSequenceIsRejected) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  // Corrupted variant: the DONE arrives before any OFFLINE_REQ, then the
  // request follows — both directions of the inversion are illegal.
  const std::vector<ControlTraceEvent> trace = {
      ev("csym", core::kMidDone, false, -2),
      ev("csym", core::kMidOffline, true),
      ev("csym", core::kMidOffline, true),  // duplicate request
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(codes(r).count("IOC101")) << to_text(r);
  // The trace holds ids; the printed type names are the interned bytes,
  // identical to the text from when traces held type strings.
  EXPECT_EQ(to_text(r),
            "<trace>:1: error [IOC101] container 'csym': message DONE is "
            "illegal in state idle (trace event #1)\n"
            "<trace>:3: error [IOC101] container 'csym': message OFFLINE_REQ "
            "is illegal in state going-offline (trace event #3)\n"
            "<trace>:3: error [IOC102] container 'csym': trace ends with the "
            "container manager in state going-offline — a request never got "
            "its reply\n"
            "<trace>: 3 error(s), 0 warning(s)\n");
}

TEST(TraceCheck, DanglingRequestIsReported) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  const std::vector<ControlTraceEvent> trace = {
      ev("bonds", core::kMidIncrease, true),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(codes(r).count("IOC102")) << to_text(r);
}

TEST(TraceCheck, ConservationViolationIsReported) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  // +6 against 4 spares: widths sum past the staging allocation.
  const std::vector<ControlTraceEvent> over = {
      ev("bonds", core::kMidIncrease, true),
      ev("bonds", core::kMidDone, false, +6),
  };
  EXPECT_TRUE(codes(check_trace(spec, over)).count("IOC103"));
  // A decrease below zero width is equally impossible.
  const std::vector<ControlTraceEvent> under = {
      ev("csym", core::kMidDecrease, true),
      ev("csym", core::kMidDone, false, -5),  // csym starts with 2
  };
  EXPECT_TRUE(codes(check_trace(spec, under)).count("IOC103"));
}

TEST(TraceCheck, UnknownContainerIsFlagged) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  const std::vector<ControlTraceEvent> trace = {
      ev("renderer", core::kMidIncrease, true),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(codes(r).count("IOC104"));
  EXPECT_TRUE(r.ok());  // a warning, not an error
}

TEST(TraceCheck, IOC105TimeoutWithoutRecoveryIsFlagged) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  // The round hung, the manager recorded the TIMEOUT — and then nothing:
  // no retry, no escalation. Even a (stale) DONE does not excuse it.
  const std::vector<ControlTraceEvent> trace = {
      ev("bonds", core::kMidIncrease, true),
      ev("bonds", core::kMidMarkTimeout, true),
      ev("bonds", core::kMidDone, false, +2),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(codes(r).count("IOC105")) << to_text(r);
  EXPECT_FALSE(codes(r).count("IOC102"));  // the round itself did complete
}

TEST(TraceCheck, TimeoutAnsweredByRetryIsClean) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  const std::vector<ControlTraceEvent> trace = {
      ev("bonds", core::kMidIncrease, true),
      ev("bonds", core::kMidMarkTimeout, true),
      ev("bonds", core::kMidMarkRetry, true),
      ev("bonds", core::kMidDone, false, +2),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(r.ok()) << to_text(r);
  EXPECT_FALSE(codes(r).count("IOC105"));
}

TEST(TraceCheck, EscalateSettlesTheFencedContainerCleanly) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  // Retries exhausted: the container is fenced mid-round. The ESCALATE
  // marker must settle everything — the open request (no IOC102), the
  // dangling timeout (no IOC105), and the fenced container's width (its
  // nodes returned to the spare set, so no IOC103 either), leaving the
  // FSM offline.
  const std::vector<ControlTraceEvent> trace = {
      ev("csym", core::kMidIncrease, true),
      ev("csym", core::kMidMarkTimeout, true),
      ev("csym", core::kMidMarkRetry, true),
      ev("csym", core::kMidMarkTimeout, true),
      ev("csym", core::kMidMarkEscalate, true, -2),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(r.ok()) << to_text(r);
  EXPECT_FALSE(codes(r).count("IOC102"));
  EXPECT_FALSE(codes(r).count("IOC105"));
  EXPECT_FALSE(codes(r).count("IOC103"));
}

TEST(TraceCheck, IOC106UnterminatedTradeIsFlagged) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  // A cross-shard trade opened its bracket and then vanished: whatever it
  // escrowed is counted by no shard's ledger.
  const std::vector<ControlTraceEvent> trace = {
      ev("trade#1", core::kMidMarkTradeBegin, false, 1),
      ev("trade#1", core::kMidMarkTimeout, false),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(codes(r).count("IOC106")) << to_text(r);
  EXPECT_FALSE(codes(r).count("IOC104"));  // trade ids are not containers
}

TEST(TraceCheck, TerminatedTradesAndFleetMarkersAreClean) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  // Every terminal closes its trade's bracket — a FENCE also answers the
  // retry ladder's dangling TIMEOUT (the fence IS the recovery) — and
  // FAILOVER/REASSIGN are fleet annotations, not spec containers.
  const std::vector<ControlTraceEvent> trace = {
      ev("trade#1", core::kMidMarkTradeBegin, false, 1),
      ev("trade#1", core::kMidMarkTradeCommit, false, 1),
      ev("trade#2", core::kMidMarkTradeBegin, false, 1),
      ev("trade#2", core::kMidMarkTimeout, false),
      ev("trade#2", core::kMidMarkRetry, false),
      ev("trade#2", core::kMidMarkTimeout, false),
      ev("trade#2", core::kMidMarkTradeFence, false),
      ev("trade#3", core::kMidMarkTradeBegin, false, 1),
      ev("trade#3", core::kMidMarkTradeAbort, false),
      ev("shard-3", core::kMidMarkFailover, false),
      ev("pipe-7", core::kMidMarkReassign, false, 2),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(r.ok()) << to_text(r);
  EXPECT_FALSE(codes(r).count("IOC106"));
  EXPECT_FALSE(codes(r).count("IOC105"));
  EXPECT_FALSE(codes(r).count("IOC104"));
}

TEST(TraceCheck, MarkersNeverAdvanceTheProtocolState) {
  const auto spec = PipelineSpec::lammps_smartpointer(512, 24);
  // A retried round is still ONE round: the RETRY marker between request
  // and reply must not be treated as a second request (which would be
  // illegal in kResizing and trip IOC101).
  const std::vector<ControlTraceEvent> trace = {
      ev("bonds", core::kMidDecrease, true),
      ev("bonds", core::kMidMarkTimeout, true),
      ev("bonds", core::kMidMarkRetry, true),
      ev("bonds", core::kMidMarkTimeout, true),
      ev("bonds", core::kMidMarkRetry, true),
      ev("bonds", core::kMidDone, false, -1),
  };
  const LintResult r = check_trace(spec, trace);
  EXPECT_TRUE(r.ok()) << to_text(r);
  EXPECT_FALSE(codes(r).count("IOC101"));
}

TEST(TraceCheck, LiveManagedRunProducesACleanTrace) {
  // End-to-end: a real managed run's recorded control trace replays clean
  // through the same state machine the debug assertions use.
  auto spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.steps = 12;
  core::StagedPipeline p(std::move(spec));
  p.run();
  const auto& trace = p.gm().control_trace();
  ASSERT_FALSE(trace.empty());  // management acted at this sizing
  const LintResult r = check_trace(p.spec(), trace);
  EXPECT_TRUE(r.ok()) << to_text(r);
}

}  // namespace
}  // namespace ioc::lint
