// The federation verification model: a finite abstraction of one
// cross-shard resource trade — two shards (member 0 the donor, member 1
// the recipient) and the thin root coordinator of src/fed/root.cpp —
// explored exhaustively by verify::run_check, the same explorer as the
// control-plane model (without partial-order reduction).
//
// The model follows the runtime's recovery contract exactly:
//
//   * each member answers through the participant step fed::Shard runs
//     (txn::d2t_step) on a real txn::D2tMemberGuard and the per-member
//     round tokens fed::Root sends (txn::kDonorBase / kRecipientBase): a
//     vote request is fresh, replayed or stale, and a decision is applied
//     only by the first copy that finds the trade unsettled — the settled()
//     check the root's recovery settle also asks;
//   * the donor's prepare is the shard's (txn::d2t_donor_prepare): it
//     escrows min(count, spares) nodes and votes YES iff that is nonzero;
//     only a decision moves the escrowed nodes onward (recipient pool on
//     commit, back to the donor on abort);
//   * vote and decide are gather rounds with bounded retries, decided by
//     the runtime's ladder step (ladder_resends, verify/model.h); a round
//     that exhausts its ladder fences the trade, and the root then settles
//     both members in-process — repairing the ledger side of any member
//     that never applied the decision — before emitting the terminal
//     marker;
//   * the adversary may drop and duplicate in-flight messages and crash
//     members, up to a budget per class (asynchrony is interleaving, as in
//     verify/model.h).
//
// Checked properties: node-count conservation (donor + recipient + escrow
// constant at every state), no orphaned escrow at quiescence
// (Property::kOrphanEscrow — the IOC106 invariant), and termination of the
// started trade. Every transition emits the same TRADE_* / TIMEOUT / RETRY
// control-trace markers the runtime root logs, so a counterexample replays
// through lint::check_trace and trips IOC106.
//
// The `leak_escrow` mutation (FedScenario::leak_escrow, `ioc_verify --fed
// --bug=leak-escrow`) re-introduces the bug fed::Root's recovery settle
// exists to prevent: a fenced trade skips the donor-side settle and its
// terminal marker. The checker proves it orphans escrow and the lint
// replayer flags the trace.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "txn/d2t_model.h"
#include "verify/model.h"

namespace ioc::verify {

/// Trade participants: 0 = donor shard, 1 = recipient shard.
inline constexpr std::size_t kFedMembers = 2;
/// Wire gather rounds (vote, decide). Begin is abstracted into the trade
/// start: it carries no ledger effect, so modeling its loss adds only
/// states the vote round's loss already covers.
inline constexpr std::size_t kFedRounds = 2;
inline constexpr std::size_t kVoteRound = 0;
inline constexpr std::size_t kDecideRound = 1;

struct FedScenario {
  /// Spare nodes per shard pool at trade start.
  int donor_spares = 2;
  int recipient_spares = 1;
  /// Nodes the trade moves donor -> recipient.
  int count = 1;
  /// Resend attempts per gather round before the trade is fenced.
  int retries = 1;
  FaultBudget faults;  ///< drops / dups / crashes, as in verify/model.h
  /// Mutation: a fenced trade skips the donor-side recovery settle and the
  /// terminal marker (the historical escrow-leak bug; IOC106).
  bool leak_escrow = false;

  int total_nodes() const { return donor_spares + recipient_spares; }
};

enum class FedPhase : std::uint8_t {
  kIdle = 0,  ///< trade not started
  kVote,      ///< vote gather in progress
  kDecide,    ///< decision chosen, decide gather in progress
  kDone,      ///< settled (terminal marker emitted, unless leaked)
};

struct FedState {
  std::int8_t donor_spares = 0;
  std::int8_t recipient_spares = 0;
  std::int8_t escrow = 0;
  std::uint8_t phase = 0;  ///< FedPhase
  bool commit = false;     ///< decision, valid in kDecide+
  bool fenced = false;     ///< a gather exhausted its ladder
  std::int8_t retries = 0;  ///< resends left in the current gather
  // Per member.
  bool crashed[kFedMembers] = {};
  /// The member's at-most-once state: which vote it recorded and whether
  /// the trade is settled at it.
  txn::D2tMemberGuard guard[kFedMembers] = {};
  bool answered[kFedMembers] = {};   ///< gather got this member's reply
  /// In-flight copies per member and round (root->member, member->root).
  std::uint8_t req_in[kFedMembers][kFedRounds] = {};
  std::uint8_t rep_in[kFedMembers][kFedRounds] = {};
  // Adversary budget spent.
  std::uint8_t drops = 0;
  std::uint8_t dups = 0;
  std::uint8_t crashes = 0;

  std::string encode() const;
};

class FedModel {
 public:
  explicit FedModel(FedScenario s) : scenario_(s) {}

  const FedScenario& scenario() const { return scenario_; }

  FedState initial() const;
  /// Every enabled action: the trade-channel kinds of verify::Action
  /// (target = member * kFedRounds + round for the wire actions, the
  /// member for kCrash).
  void enabled(const FedState& s, std::vector<Action>* out) const;
  FedState apply(const FedState& s, const Action& a, Step* step) const;
  /// Safety check on every state; nullopt when the invariants hold.
  std::optional<Violation> check(const FedState& s) const;
  /// Quiescence check for states with no enabled action.
  std::optional<Violation> stuck(const FedState& s) const;

 private:
  void move_decided(FedState& st, std::size_t m) const;
  void settle(FedState& st, Step* step) const;
  void emit(Step* step, ev::MessageId type, int delta) const;

  FedScenario scenario_;
};

}  // namespace ioc::verify
