// D2T-style control transactions ("doubly distributed transactions"): the
// participants form two groups — writers (client side) and readers (server
// side) — each with a sub-coordinator; a top-level coordinator drives
// begin / vote / decide / finalize rounds across both groups. The container
// runtime wraps resource trades in these so that, under arbitrary
// participant failures, a node removed from one container is either
// successfully added to the other or restored — never lost or duplicated.
//
// Failure model: an injected failure makes a participant stop responding at
// a chosen phase. Failures before the decision force an abort (prepared
// operations roll back). Failures after the decision are recovered by the
// participant's sub-coordinator, which applies the logged decision on its
// behalf — the standard coordinator-side recovery that keeps 2PC atomic.
//
// Message-loss model: every gather round carries its own token (so a stale
// timeout or a late reply from round N can never be miscounted in round
// N+1), filters replies on the exact type the round expects, deduplicates
// per participant, and retries unanswered participants on the retry ladder
// of ev/bus_if.h (TxnConfig::round; ev::ladder_step decides each "retry or
// give up", the same step the control rounds and the model checker use).
// A round that stays incomplete after the retries are exhausted escalates:
// the transaction aborts cleanly (prepared operations roll back,
// sub-coordinator recovery still applies a logged decision). Each member
// answers through the participant step of d2t_model.h, the one fed::Shard
// and both verification models run: a retried or duplicated vote replays
// the recorded answer, a vote request for a settled transaction gets NO
// without preparing, and a decision is applied at most once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "des/process.h"
#include "des/time.h"
#include "ev/bus_if.h"
#include "trace/sink.h"
#include "txn/d2t_model.h"

namespace ioc::txn {

enum class Phase : int { kBegin = 0, kVote = 1, kDecide = 2, kNever = 99 };
enum class Outcome { kCommitted, kAborted };

/// One participant's local piece of a transaction.
class Operation {
 public:
  virtual ~Operation() = default;
  /// Reserve/validate; returning false vetoes the transaction.
  virtual bool prepare() = 0;
  virtual void commit() = 0;
  virtual void abort() = 0;
};

struct FailureSpec {
  int participant = -1;          ///< global index (writers first); -1 = none
  Phase at = Phase::kNever;      ///< stops responding from this phase on
};

struct TxnConfig {
  std::size_t writers = 4;
  std::size_t readers = 2;
  /// Ladder of every gather round: the deadline per attempt, then up to
  /// `retries` resends to the unanswered members, each after a backoff of
  /// backoff * 2^attempt capped at backoff_cap. A gather always arms its
  /// deadline, so round.timeout must be positive (0 does not wait forever
  /// here, unlike a control round's).
  ev::RoundOptions round{2 * des::kSecond, 3, 250 * des::kMillisecond,
                         2 * des::kSecond};
  FailureSpec failure;
  /// When set, every retry and escalation emits a span here.
  trace::TraceSink* trace = nullptr;
};

struct TxnResult {
  Outcome outcome = Outcome::kAborted;
  des::SimTime duration = 0;
  std::uint64_t messages = 0;  ///< control messages this transaction used
  int rounds = 0;
  int retries = 0;      ///< gather resend rounds across all phases
  bool escalated = false;  ///< a round exhausted its retries (forced abort)
};

/// Builds the participant/sub-coordinator overlay on a cluster and executes
/// transactions against it. Each participant may carry an Operation (null =
/// it just votes yes).
class TxnHarness {
 public:
  /// Participants are placed round-robin over the cluster's nodes; the
  /// coordinator and sub-coordinators get their own endpoints on node 0.
  TxnHarness(ev::BusIf& bus, TxnConfig cfg);
  ~TxnHarness();
  TxnHarness(const TxnHarness&) = delete;
  TxnHarness& operator=(const TxnHarness&) = delete;

  /// Assign the local operation of participant `index` (writers first, then
  /// readers). Ownership stays with the caller.
  void set_operation(std::size_t index, Operation* op);

  /// Execute one transaction across all participants.
  des::Task<TxnResult> run();

  struct GatherOutcome {
    std::vector<ev::Message> replies;  ///< one per participant, deduplicated
    int retries = 0;
    bool complete = false;  ///< every participant answered
  };

 private:
  struct Member {
    ev::EndpointId ep = ev::kInvalidEndpoint;
    Operation* op = nullptr;
    Phase dies_at = Phase::kNever;
    bool dead = false;
    bool prepared = false;
    /// At-most-once state of the shared participant step (d2t_model.h): a
    /// retried or duplicated round message must not re-run prepare, commit
    /// or abort; the member just re-sends its reply. Settled once the
    /// member, or the recovery pass on its behalf, applied the decision.
    D2tMemberGuard guard;
  };
  struct SubCoord {
    ev::EndpointId ep = ev::kInvalidEndpoint;
    std::vector<std::size_t> members;  ///< indices into members_
  };

  des::Process member_loop(std::size_t index);
  /// Fan `type` out to a group and gather one reply of an expected type per
  /// member, retrying non-responders with backoff. The per-round `token`
  /// isolates this gather from every other round's traffic; the timeout
  /// timer is cancelled the moment the gather completes.
  des::Task<GatherOutcome> fan_gather(ev::EndpointId from,
                                      const std::vector<std::size_t>& members,
                                      ev::MessageId type,
                                      std::uint64_t token);

  ev::BusIf* bus_;
  TxnConfig cfg_;
  ev::EndpointId coord_ = ev::kInvalidEndpoint;
  SubCoord writer_side_;
  SubCoord reader_side_;
  std::vector<Member> members_;
  std::vector<des::Process> procs_;
  std::uint64_t txn_counter_ = 0;
};

}  // namespace ioc::txn
