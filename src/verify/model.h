// The verification model: a finite, explicit-state abstraction of the
// control plane that `ioc_verify` explores exhaustively. It is the product
// automaton of
//
//   * one Fig. 3 ProtocolFsm per container (the exact table of
//     core/protocol_fsm.h — the model advances real ProtocolFsm instances,
//     so a table edit changes the model and the runtime checker together),
//   * the GM-side conversation machinery (per-round retries with
//     TIMEOUT / RETRY / ESCALATE markers, fencing on exhaustion), whose
//     "retry or escalate" is the runtime's own ev::ladder_step
//     (ladder_resends below),
//   * the D2T round/token machinery of txn/d2t_model.h (begin / vote /
//     decide gathers, bounded retries, escalation to abort, sub-coordinator
//     recovery), driving a one-node resource trade donor -> recipient
//     through the escrow semantics of core/trade.cpp; each member answers
//     through the runtime's participant step (txn::d2t_step) on a real
//     txn::D2tMemberGuard, the step TxnHarness's members run,
//   * a bounded adversarial network mirroring fault::Injector's classes:
//     each in-flight message can be dropped or duplicated and each
//     container crashed, up to a configurable budget per class.
//
// Asynchrony is modeled by interleaving: a "delayed" message is simply one
// whose delivery action the scheduler defers, so the bounded budgets plus
// free interleaving cover drop/duplicate/delay/crash adversaries.
//
// Every transition optionally emits core::ControlTraceEvent records — the
// same vocabulary the GlobalManager logs — so a counterexample path is a
// control trace that lint::check_trace and `ioc_trace` can replay/display.
//
// MutationFlags re-introduce the two PR 4 D2T bugs (stale-timeout round
// abort; shared-token double-counted vote) behind test-only switches; the
// checker proves both produce invariant violations the lint replayer flags.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/protocol_fsm.h"
#include "core/spec.h"
#include "txn/d2t_model.h"

namespace ioc::verify {

/// Containers the model can compose. The state encoding is fixed-width in
/// this bound; scenarios use the first kMaxContainers of a spec.
inline constexpr std::size_t kMaxContainers = 4;
/// Trade participants (donor, recipient).
inline constexpr std::size_t kMembers = 2;
/// D2T gather rounds carried on the wire (begin, vote, decide). Mirrors the
/// phase offsets of txn/d2t_model.h; in-flight copies are tagged with their
/// round so stale traffic of an earlier round can race the current gather
/// exactly the way token-tagged messages do in the runtime.
inline constexpr std::size_t kTxnRounds = 3;

/// Adversary budget, mirroring fault::Injector's per-message classes plus
/// node crashes. "Up to": the scheduler may also spend none of it.
struct FaultBudget {
  std::uint8_t drops = 1;
  std::uint8_t dups = 1;
  std::uint8_t crashes = 1;
};

/// Test-only switches re-introducing the PR 4 D2T bugs in the model.
struct MutationFlags {
  /// A completed round's gather timer is not cancelled; its stale firing is
  /// mistaken for the next conversation's deadline and the GM abandons that
  /// conversation without RETRY or ESCALATE (the IOC105 property).
  bool stale_timeout = false;
  /// The vote gather does not deduplicate replies per member, so a
  /// duplicated YES can stand in for a member that never voted.
  bool shared_token = false;
};

struct ContainerInit {
  std::string name;
  int width = 2;
  /// Run one QUERY_NEEDS management conversation on this container.
  bool query = true;
};

struct Scenario {
  std::vector<ContainerInit> containers;
  /// Total staging nodes. 0 = sum of container widths (no spares).
  int staging_nodes = 0;
  /// Resend attempts per GM control conversation / per D2T gather round.
  int cm_retries = 1;
  int txn_retries = 1;
  /// Run a one-node D2T trade containers[0] -> containers[1].
  bool trade = true;
  /// Also explore deadlines racing in-flight traffic (a timeout firing
  /// while the answer is already on the wire). Default off: deadlines fire
  /// only for rounds with nothing in flight (message lost / endpoint dead),
  /// which models deadlines long against the message latency; a racing
  /// timeout adds only a spurious resend, which the duplicate budget
  /// already covers. Enabling it explores the full race at a large state
  /// cost.
  bool timeout_races = false;
  FaultBudget faults;
  MutationFlags bugs;

  int total_nodes() const;

  /// The acceptance scenario: two 2-node containers, a trade, one query
  /// conversation each, 1 drop + 1 duplicate + 1 crash.
  static Scenario two_container();
  /// Derive a scenario from a pipeline spec: the first `max_containers`
  /// online containers at their initial widths, spares from staging_nodes,
  /// a trade between the first two (when the donor has a node to give).
  static Scenario from_spec(const core::PipelineSpec& spec,
                            std::size_t max_containers = 2);
};

/// GM-side conversation status per container.
enum class Conv : std::uint8_t {
  kNone = 0,      ///< no conversation scripted (or fenced before start)
  kPending,       ///< scripted, not started yet
  kAwaiting,      ///< request sent, reply or timeout owed
  kDone,          ///< completed (reply received, or fenced by escalation)
  kAbandoned,     ///< bug path: given up without RETRY/ESCALATE
};

/// D2T transaction progress.
enum class TxnPhase : std::uint8_t {
  kIdle = 0,   ///< not started
  kBegin,
  kVote,
  kDecide,
  kDone,       ///< decided + sub-coordinator recovery applied
  kNever,      ///< scenario runs no trade
};

/// One model state. Fixed-width POD-style fields so encode() is a stable
/// byte string usable as the visited-set key.
struct State {
  // Per container.
  std::uint8_t fsm[kMaxContainers] = {};        ///< core::CmState
  std::int8_t width[kMaxContainers] = {};
  bool fenced[kMaxContainers] = {};
  bool crashed[kMaxContainers] = {};
  std::uint8_t conv[kMaxContainers] = {};       ///< Conv
  std::int8_t conv_retries[kMaxContainers] = {};
  bool timeout_pending[kMaxContainers] = {};    ///< TIMEOUT owed RETRY/ESCALATE
  bool stale_timer[kMaxContainers] = {};        ///< bug: uncancelled timer armed
  std::uint8_t req_in[kMaxContainers] = {};     ///< GM->CM copies in flight
  std::uint8_t rep_in[kMaxContainers] = {};     ///< CM->GM copies in flight

  // D2T trade (members 0 = donor = containers[0], 1 = recipient).
  std::uint8_t txn_phase = 0;                   ///< TxnPhase
  std::int8_t round_retries = 0;
  bool escalated = false;
  bool commit = false;                          ///< decision, valid in kDecide+
  /// In-flight copies per member and round (the round tag stands in for the
  /// runtime's round token: gathers ignore replies of other rounds, members
  /// refuse rounds their decision guard already supersedes).
  std::uint8_t treq_in[kMembers][kTxnRounds] = {};
  std::uint8_t trep_in[kMembers][kTxnRounds] = {};
  bool answered[kMembers] = {};
  std::uint8_t pending = 0;                     ///< unanswered members
  std::uint8_t yes_count = 0;                   ///< vote round tally
  /// Each member's at-most-once state: the real guard, driven by the real
  /// participant step on TxnHarness's round tokens.
  txn::D2tMemberGuard guard[kMembers] = {};
  std::uint8_t prepare_count[kMembers] = {};    ///< at-most-once audit
  std::uint8_t apply_count[kMembers] = {};

  // Shared ledger + adversary budget.
  std::int8_t spares = 0;
  std::int8_t escrow = 0;
  std::uint8_t drops = 0;
  std::uint8_t dups = 0;
  std::uint8_t crashes = 0;

  std::string encode(std::size_t n_containers) const;
};

enum class ActionKind : std::uint8_t {
  // Duplicate faults are folded into delivery: a kDup* action delivers one
  // copy and leaves another in flight (budget). A standalone "add a copy"
  // action would only reach states that spend more budget for the same
  // effect — dominated, since unspent budget strictly adds adversary moves.
  kStartConv,     ///< GM opens the QUERY_NEEDS conversation on container c
  kDeliverReq,    ///< network delivers one GM->CM request copy
  kDropReq,       ///< adversary drops one request copy (budget)
  kDupReq,        ///< delivers a request copy, keeps one in flight (budget)
  kDeliverRep,    ///< network delivers one CM->GM reply copy
  kDropRep,
  kDupRep,
  kCmTimeout,     ///< conversation deadline fires: RETRY or ESCALATE
  kStaleTimeout,  ///< bug path: stale timer abandons the conversation
  kCrash,         ///< adversary crashes container c (budget)
  kStartTxn,      ///< coordinator begins the trade transaction
  kDeliverTreq,   ///< delivers one coord->member round message to member m
  kDropTreq,
  kDupTreq,
  kDeliverTrep,   ///< delivers one member->coord reply to the gather
  kDropTrep,
  kDupTrep,
  kTxnTimeout,    ///< gather deadline: resend to unanswered or escalate
};

const char* action_name(ActionKind k);

/// One transition. verify::FedModel uses the trade-channel kinds
/// (kStartTxn, kDeliverTreq .. kDupTrep, kTxnTimeout, kCrash).
struct Action {
  ActionKind kind{};
  /// Container (or member) index for control-plane actions and kCrash;
  /// member * rounds + round for the txn channel actions (kDeliverTreq ..
  /// kDupTrep), with kTxnRounds rounds here and kFedRounds in FedModel.
  std::uint8_t target = 0;
};

/// What one applied action did, for counterexample display.
struct Step {
  std::string label;
  std::vector<core::ControlTraceEvent> events;
};

/// The retry ladder's verdict after a round's deadline fired with `left`
/// of its `retries` resends remaining: true to resend, false to escalate.
/// It is the runtime's own step, ev::ladder_step, asked with the model's
/// inputs: the attempt number is the resends already spent, and a crashed
/// peer is not "gone" to the model (docs/VERIFICATION.md lists the gap).
bool ladder_resends(int retries, int left);

/// Violation classes, mapped to the diagnostics the trace replayer raises
/// when the counterexample is replayed through lint::check_trace.
enum class Property {
  kConservation,    ///< node-count conservation / double ownership (IOC103)
  kAtMostOnce,      ///< >1 prepare or >1 decision application per member
  kFenceResurrect,  ///< fenced container owns nodes or left offline again
  kTimeoutOrphan,   ///< TIMEOUT with no RETRY/ESCALATE (IOC105)
  kStuck,           ///< reachable quiescent-violation: work left undone
  kOrphanEscrow,    ///< trade quiesced with escrowed nodes unowned (IOC106)
};

const char* property_name(Property p);

struct Violation {
  Property property{};
  std::string message;
};

class Model {
 public:
  explicit Model(Scenario s);

  const Scenario& scenario() const { return scenario_; }
  std::size_t num_containers() const { return scenario_.containers.size(); }

  State initial() const;

  /// All actions enabled in `s` (the full successor relation).
  void enabled(const State& s, std::vector<Action>* out) const;
  /// A sound ample subset for partial-order reduction: when one component's
  /// enabled actions are all invisible (no shared-ledger or fault-budget
  /// effect) and confined to that component, exploring just that component
  /// from this state preserves every Property above. Falls back to the full
  /// set otherwise.
  void ample(const State& s, std::vector<Action>* out) const;

  /// Apply `a` to `s`. `step`, when non-null, receives the trace events.
  State apply(const State& s, const Action& a, Step* step) const;

  /// Safety check; nullopt when every invariant holds in `s`.
  std::optional<Violation> check(const State& s) const;
  /// Liveness-at-bound check for states with no enabled action: quiescence
  /// means every scripted conversation resolved and the trade decided.
  std::optional<Violation> stuck(const State& s) const;

 private:
  bool emit_ok(const State& s, std::size_t c) const;
  void emit_event(std::size_t c, ev::MessageId type, bool to_cm,
                  int delta, Step* step) const;
  void emit_pair(State& st, std::size_t c, ev::MessageId req, int delta,
                 Step* step) const;
  void fence(State& st, std::size_t c, Step* step) const;
  void start_round(State& st, TxnPhase phase, Step* step) const;
  void finish_txn(State& st, Step* step) const;
  void deliver_member(State& st, std::size_t m, std::size_t round,
                      Step* step) const;
  bool prepare(State& st, std::size_t m, Step* step) const;
  void gather(State& st, std::size_t m, std::size_t round, Step* step) const;
  void apply_decision(State& st, std::size_t m, Step* step) const;
  bool action_safe(const State& s, const Action& a) const;
  int component_of(const Action& a) const;

  Scenario scenario_;
  int total_ = 0;
};

}  // namespace ioc::verify
