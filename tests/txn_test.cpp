#include <gtest/gtest.h>

#include <numeric>

#include "des/process.h"
#include "des/simulator.h"
#include "ev/bus.h"
#include "fault/injector.h"
#include "net/cluster.h"
#include "net/network.h"
#include "txn/d2t.h"

namespace ioc::txn {
namespace {

struct TxnFixture {
  des::Simulator sim;
  net::Cluster cluster{sim, 16};
  net::Network net{cluster};
  ev::Bus bus{net};
};

/// Toy two-account ledger: the transactional op moves one unit from account
/// a to account b. Conservation of the total is the atomicity invariant.
struct Ledger {
  int a = 5;
  int b = 5;
  int total() const { return a + b; }
};

struct DebitOp : Operation {
  Ledger* l;
  bool reserved = false;
  explicit DebitOp(Ledger* l) : l(l) {}
  bool prepare() override {
    if (l->a <= 0) return false;
    l->a -= 1;  // reserve
    reserved = true;
    return true;
  }
  void commit() override { reserved = false; }
  void abort() override {
    if (reserved) l->a += 1;
    reserved = false;
  }
};

struct CreditOp : Operation {
  Ledger* l;
  explicit CreditOp(Ledger* l) : l(l) {}
  bool prepare() override { return true; }
  void commit() override { l->b += 1; }
  void abort() override {}
};

struct VetoOp : Operation {
  bool prepare() override { return false; }
  void commit() override { FAIL() << "vetoed txn must not commit"; }
  void abort() override {}
};

des::Process run_txn(TxnHarness& h, TxnResult* out) {
  *out = co_await h.run();
}

TEST(D2t, CommitsWhenAllHealthy) {
  TxnFixture f;
  TxnConfig cfg;
  cfg.writers = 6;
  cfg.readers = 2;
  TxnHarness h(f.bus, cfg);
  Ledger ledger;
  DebitOp debit(&ledger);
  CreditOp credit(&ledger);
  h.set_operation(0, &debit);
  h.set_operation(6, &credit);  // a reader-side participant
  TxnResult r;
  spawn(f.sim, run_txn(h, &r));
  f.sim.run_until(10 * des::kSecond);
  EXPECT_EQ(r.outcome, Outcome::kCommitted);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_GT(r.duration, 0);
  EXPECT_GT(r.messages, 3u * 8);  // 3 rounds over 8 members, plus overhead
  EXPECT_EQ(ledger.a, 4);
  EXPECT_EQ(ledger.b, 6);
  EXPECT_EQ(ledger.total(), 10);
}

TEST(D2t, VetoAborts) {
  TxnFixture f;
  TxnConfig cfg;
  cfg.writers = 3;
  cfg.readers = 1;
  TxnHarness h(f.bus, cfg);
  Ledger ledger;
  DebitOp debit(&ledger);
  VetoOp veto;
  h.set_operation(0, &debit);
  h.set_operation(1, &veto);
  TxnResult r;
  spawn(f.sim, run_txn(h, &r));
  f.sim.run_until(30 * des::kSecond);
  EXPECT_EQ(r.outcome, Outcome::kAborted);
  EXPECT_EQ(ledger.total(), 10);
  EXPECT_EQ(ledger.a, 5);  // reservation rolled back
}

TEST(D2t, EmptyGroupsCommitTrivially) {
  TxnFixture f;
  TxnConfig cfg;
  cfg.writers = 2;
  cfg.readers = 0;
  TxnHarness h(f.bus, cfg);
  TxnResult r;
  spawn(f.sim, run_txn(h, &r));
  f.sim.run_until(10 * des::kSecond);
  EXPECT_EQ(r.outcome, Outcome::kCommitted);
}

TEST(D2t, SequentialTransactionsReuseHarness) {
  TxnFixture f;
  TxnConfig cfg;
  cfg.writers = 4;
  cfg.readers = 2;
  TxnHarness h(f.bus, cfg);
  Ledger ledger;
  DebitOp debit(&ledger);
  CreditOp credit(&ledger);
  h.set_operation(0, &debit);
  h.set_operation(4, &credit);
  auto seq = [](TxnHarness& h, std::vector<Outcome>* outs) -> des::Process {
    for (int i = 0; i < 3; ++i) {
      TxnResult r = co_await h.run();
      outs->push_back(r.outcome);
    }
  };
  std::vector<Outcome> outs;
  spawn(f.sim, seq(h, &outs));
  f.sim.run_until(60 * des::kSecond);
  ASSERT_EQ(outs.size(), 3u);
  for (auto o : outs) EXPECT_EQ(o, Outcome::kCommitted);
  EXPECT_EQ(ledger.a, 2);
  EXPECT_EQ(ledger.b, 8);
}

// Atomicity under injected failures: for every phase and a writer- and
// reader-side victim, the ledger total is conserved and the two ops agree
// (both applied or neither).
struct FailureCase {
  int participant;
  Phase phase;
  Outcome expected;
};

class D2tFailures : public ::testing::TestWithParam<FailureCase> {};

TEST_P(D2tFailures, AtomicUnderFailure) {
  const auto p = GetParam();
  TxnFixture f;
  TxnConfig cfg;
  cfg.writers = 4;
  cfg.readers = 2;
  cfg.round.timeout = des::kSecond;
  cfg.failure.participant = p.participant;
  cfg.failure.at = p.phase;
  TxnHarness h(f.bus, cfg);
  Ledger ledger;
  DebitOp debit(&ledger);
  CreditOp credit(&ledger);
  h.set_operation(1, &debit);   // writer side
  h.set_operation(4, &credit);  // reader side
  TxnResult r;
  spawn(f.sim, run_txn(h, &r));
  f.sim.run_until(60 * des::kSecond);
  EXPECT_EQ(r.outcome, p.expected);
  if (r.outcome == Outcome::kCommitted) {
    EXPECT_EQ(ledger.a, 4);
    EXPECT_EQ(ledger.b, 6);
  } else {
    EXPECT_EQ(ledger.a, 5);
    EXPECT_EQ(ledger.b, 5);
  }
  EXPECT_EQ(ledger.total(), 10);  // never lost, never duplicated
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, D2tFailures,
    ::testing::Values(
        // Deaths before the decision abort the transaction...
        FailureCase{0, Phase::kBegin, Outcome::kAborted},
        FailureCase{1, Phase::kBegin, Outcome::kAborted},   // op holder dies
        FailureCase{5, Phase::kBegin, Outcome::kAborted},   // reader side
        FailureCase{0, Phase::kVote, Outcome::kAborted},
        FailureCase{4, Phase::kVote, Outcome::kAborted},    // op holder dies
        // ...deaths after the decision are recovered and still commit.
        FailureCase{0, Phase::kDecide, Outcome::kCommitted},
        FailureCase{1, Phase::kDecide, Outcome::kCommitted},
        FailureCase{4, Phase::kDecide, Outcome::kCommitted}));

TEST(D2t, MessagesDerivedFromRoundsExecuted) {
  // Regression for the hardcoded "+ 6" overhead constant: the reported
  // message count must equal the bus's control-class delta plus four
  // coordinator<->sub-coordinator hops per round actually executed.
  TxnFixture f;
  TxnConfig cfg;
  cfg.writers = 6;
  cfg.readers = 2;
  TxnHarness h(f.bus, cfg);
  const std::uint64_t before = f.bus.stats(ev::TrafficClass::kControl).messages;
  TxnResult r;
  spawn(f.sim, run_txn(h, &r));
  f.sim.run_until(10 * des::kSecond);
  const std::uint64_t delta =
      f.bus.stats(ev::TrafficClass::kControl).messages - before;
  EXPECT_EQ(r.outcome, Outcome::kCommitted);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_EQ(r.messages, delta + 4u * 3u);
  // Healthy path, exact: each member gets one request and sends one reply
  // per round (2 * 8 * 3 bus messages) plus the 12 coordinator hops.
  EXPECT_EQ(r.messages, 6u * 8u + 12u);
}

TEST(D2t, StaleTimeoutRegression_SlowNetworkCommitsViaRetries) {
  // The original fan_gather shared ONE token across all three rounds and
  // never cancelled its timeout callback: with replies slower than the
  // gather timeout, round N's stale timeout terminated round N+1 early and
  // the transaction aborted. With per-round tokens, cancellable timers, and
  // resends, the late replies are credited to the right round and the
  // transaction commits. This test aborts on the pre-fix code.
  TxnFixture f;
  net::NetworkConfig slow;
  slow.latency = 500 * des::kMillisecond;  // reply RTT ~1 s
  net::Network slow_net(f.cluster, slow);
  ev::Bus slow_bus(slow_net);
  TxnConfig cfg;
  cfg.writers = 4;
  cfg.readers = 2;
  cfg.round.timeout = 200 * des::kMillisecond;  // far below the RTT
  cfg.round.backoff = 100 * des::kMillisecond;
  cfg.round.retries = 5;
  TxnHarness h(slow_bus, cfg);
  Ledger ledger;
  DebitOp debit(&ledger);
  CreditOp credit(&ledger);
  h.set_operation(0, &debit);
  h.set_operation(4, &credit);
  TxnResult r;
  spawn(f.sim, run_txn(h, &r));
  f.sim.run_until(120 * des::kSecond);
  EXPECT_EQ(r.outcome, Outcome::kCommitted);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_GT(r.retries, 0);  // every round needed at least one resend
  EXPECT_FALSE(r.escalated);
  EXPECT_EQ(ledger.a, 4);
  EXPECT_EQ(ledger.b, 6);
  EXPECT_EQ(ledger.total(), 10);
}

// Fault-injected trades: for every failure phase crossed with message drop,
// delay, and duplication on the control plane, the ledger total is conserved
// and the two operations agree — committed everywhere or aborted everywhere.
enum class FaultKind { kDrop, kDelay, kDuplicate };

struct ChaosCase {
  FaultKind kind;
  int participant;  ///< -1 = no injected death
  Phase phase;
};

class D2tMessageFaults : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(D2tMessageFaults, AtomicUnderMessageFaults) {
  const auto p = GetParam();
  TxnFixture f;
  fault::ClassFaults cf;
  switch (p.kind) {
    case FaultKind::kDrop:
      cf.drop_rate = 0.10;
      break;
    case FaultKind::kDelay:
      cf.delay_rate = 0.5;
      cf.delay_min = 50 * des::kMillisecond;
      cf.delay_max = 400 * des::kMillisecond;
      break;
    case FaultKind::kDuplicate:
      cf.duplicate_rate = 0.25;
      break;
  }
  fault::Injector inj(f.bus, fault::FaultConfig::uniform(
                                 42 + static_cast<std::uint64_t>(p.phase),
                                 cf));
  TxnConfig cfg;
  cfg.writers = 4;
  cfg.readers = 2;
  cfg.round.timeout = des::kSecond;
  cfg.round.retries = 5;
  cfg.round.backoff = 100 * des::kMillisecond;
  cfg.failure.participant = p.participant;
  cfg.failure.at = p.phase;
  TxnHarness h(f.bus, cfg);
  Ledger ledger;
  DebitOp debit(&ledger);
  CreditOp credit(&ledger);
  h.set_operation(1, &debit);   // writer side
  h.set_operation(4, &credit);  // reader side
  TxnResult r;
  spawn(f.sim, run_txn(h, &r));
  f.sim.run_until(300 * des::kSecond);
  // Atomicity: both ops applied, or neither — never a half-applied trade.
  if (r.outcome == Outcome::kCommitted) {
    EXPECT_EQ(ledger.a, 4);
    EXPECT_EQ(ledger.b, 6);
  } else {
    EXPECT_EQ(ledger.a, 5);
    EXPECT_EQ(ledger.b, 5);
  }
  EXPECT_EQ(ledger.total(), 10);
  // A death before the decision always forces an abort; with no injected
  // death an abort can only be the escalation path (retries exhausted).
  if (p.participant >= 0 && p.phase <= Phase::kVote) {
    EXPECT_EQ(r.outcome, Outcome::kAborted);
  }
  if (p.participant < 0 && r.outcome == Outcome::kAborted) {
    EXPECT_TRUE(r.escalated);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PhasesTimesFaults, D2tMessageFaults,
    ::testing::Values(
        // No injected death: the message faults alone.
        ChaosCase{FaultKind::kDrop, -1, Phase::kNever},
        ChaosCase{FaultKind::kDelay, -1, Phase::kNever},
        ChaosCase{FaultKind::kDuplicate, -1, Phase::kNever},
        // Death at each phase x each fault kind.
        ChaosCase{FaultKind::kDrop, 1, Phase::kBegin},
        ChaosCase{FaultKind::kDelay, 1, Phase::kBegin},
        ChaosCase{FaultKind::kDuplicate, 1, Phase::kBegin},
        ChaosCase{FaultKind::kDrop, 4, Phase::kVote},
        ChaosCase{FaultKind::kDelay, 4, Phase::kVote},
        ChaosCase{FaultKind::kDuplicate, 4, Phase::kVote},
        ChaosCase{FaultKind::kDrop, 1, Phase::kDecide},
        ChaosCase{FaultKind::kDelay, 1, Phase::kDecide},
        ChaosCase{FaultKind::kDuplicate, 1, Phase::kDecide}));

// Soak regression for the member-side at-most-once guards (voted_token /
// decided_token): many sequential transactions through ONE harness under
// simultaneous drop and duplication faults. Every duplicated vote request
// must replay the recorded vote (not re-run prepare), every duplicated
// decision must re-ack (not re-apply), and a delayed round from txn N must
// never disturb txn N+1. The per-transaction op counters make any double
// apply visible immediately, and the ledger total catches anything the
// counters miss. Member-side guard state is two scalars per member (token
// monotonicity subsumes history), so the soak also demonstrates that state
// does not grow with transaction count.
struct CountingDebit : Operation {
  Ledger* l;
  int prepares = 0, commits = 0, aborts = 0;
  bool reserved = false;
  explicit CountingDebit(Ledger* l) : l(l) {}
  bool prepare() override {
    ++prepares;
    if (l->a <= 0) return false;
    l->a -= 1;
    reserved = true;
    return true;
  }
  void commit() override {
    ++commits;
    reserved = false;
  }
  void abort() override {
    ++aborts;
    if (reserved) l->a += 1;
    reserved = false;
  }
  void reset() { prepares = commits = aborts = 0; }
};

struct CountingCredit : Operation {
  Ledger* l;
  int prepares = 0, commits = 0, aborts = 0;
  explicit CountingCredit(Ledger* l) : l(l) {}
  bool prepare() override {
    ++prepares;
    return true;
  }
  void commit() override {
    ++commits;
    l->b += 1;
  }
  void abort() override { ++aborts; }
  void reset() { prepares = commits = aborts = 0; }
};

TEST(D2t, SoakSequentialTxnsUnderDropAndDupStayAtMostOnce) {
  constexpr int kTxns = 60;
  TxnFixture f;
  fault::ClassFaults cf;
  cf.drop_rate = 0.05;
  cf.duplicate_rate = 0.25;
  fault::Injector inj(f.bus, fault::FaultConfig::uniform(20260808, cf));
  TxnConfig cfg;
  cfg.writers = 4;
  cfg.readers = 2;
  cfg.round.timeout = 500 * des::kMillisecond;
  cfg.round.retries = 6;
  cfg.round.backoff = 100 * des::kMillisecond;
  TxnHarness h(f.bus, cfg);
  Ledger ledger;
  ledger.a = 1000;
  ledger.b = 1000;
  CountingDebit debit(&ledger);
  CountingCredit credit(&ledger);
  h.set_operation(1, &debit);   // writer side
  h.set_operation(4, &credit);  // reader side
  int committed = 0;
  int done = 0;
  auto soak = [&](TxnHarness& h) -> des::Process {
    for (int i = 0; i < kTxns; ++i) {
      debit.reset();
      credit.reset();
      const int a0 = ledger.a;
      const int b0 = ledger.b;
      TxnResult r = co_await h.run();
      ++done;
      // At-most-once per transaction, no matter how many duplicated or
      // retried round messages the member saw.
      EXPECT_LE(debit.prepares, 1) << "txn " << i;
      EXPECT_LE(debit.commits, 1) << "txn " << i;
      EXPECT_LE(credit.commits, 1) << "txn " << i;
      EXPECT_LE(debit.commits + debit.aborts, 1) << "txn " << i;
      if (r.outcome == Outcome::kCommitted) {
        ++committed;
        EXPECT_EQ(debit.commits, 1) << "txn " << i;
        EXPECT_EQ(credit.commits, 1) << "txn " << i;
        EXPECT_EQ(ledger.a, a0 - 1) << "txn " << i;
        EXPECT_EQ(ledger.b, b0 + 1) << "txn " << i;
      } else {
        EXPECT_EQ(debit.commits, 0) << "txn " << i;
        EXPECT_EQ(credit.commits, 0) << "txn " << i;
        EXPECT_EQ(ledger.a, a0) << "txn " << i;
        EXPECT_EQ(ledger.b, b0) << "txn " << i;
      }
      EXPECT_EQ(ledger.total(), 2000) << "txn " << i;
    }
  };
  spawn(f.sim, soak(h));
  f.sim.run_until(3600 * des::kSecond);
  ASSERT_EQ(done, kTxns);
  // The faults are survivable (drops are retried, duplicates deduplicated),
  // so the soak must make real forward progress, not abort its way through.
  EXPECT_GE(committed, kTxns / 2);
  EXPECT_EQ(ledger.a, 1000 - committed);
  EXPECT_EQ(ledger.b, 1000 + committed);
}

TEST(D2t, DurationGrowsModeratelyWithWriters) {
  // The Fig. 6 property: completion time scales gracefully with the
  // writer:reader core ratio.
  auto measure = [](std::size_t writers, std::size_t readers) {
    TxnFixture f;
    TxnConfig cfg;
    cfg.writers = writers;
    cfg.readers = readers;
    TxnHarness h(f.bus, cfg);
    TxnResult r;
    spawn(f.sim, run_txn(h, &r));
    f.sim.run_until(120 * des::kSecond);
    return des::to_seconds(r.duration);
  };
  const double t128 = measure(128, 2);
  const double t512 = measure(512, 4);
  const double t2048 = measure(2048, 16);
  EXPECT_GT(t512, t128);
  EXPECT_GT(t2048, t512);
  // Sub-linear or ~linear in writers, definitely not quadratic.
  EXPECT_LT(t2048 / t128, 32.0);
}

TEST(D2tStep, EveryKindOfRoundRequestOnOneGuard) {
  // The participant step every trade member runs (d2t_model.h), driven row
  // by row through one guard. `settle` first plays a coordinator's
  // recovery settle of that transaction; `vote` is what prepare() returns
  // if the step runs it.
  struct Row {
    const char* what;
    std::uint64_t settle;
    ev::MessageId type;
    std::uint64_t token;
    bool vote;
    ev::MessageId reply;
    bool replay;
    bool apply;
    bool prepared;
  };
  const Row rows[] = {
      {"begin", 0, kMidBegin, d2t_token(1, kPhaseBegin), true, kMidBegun,
       false, false, false},
      {"fresh vote", 0, kMidVote, d2t_token(1, kPhaseVote), true,
       kMidVoteYes, false, false, true},
      {"replayed vote keeps the recorded YES", 0, kMidVote,
       d2t_token(1, kPhaseVote), false, kMidVoteYes, true, false, false},
      {"first decision", 0, kMidCommit, d2t_token(1, kPhaseDecide), true,
       kMidFinal, false, true, false},
      {"duplicate decision", 0, kMidCommit, d2t_token(1, kPhaseDecide),
       true, kMidFinal, false, false, false},
      {"stale vote of the decided transaction", 0, kMidVote,
       d2t_token(1, kPhaseVote), true, kMidVoteNo, false, false, false},
      {"fresh NO vote of the next transaction", 0, kMidVote,
       d2t_token(2, kPhaseVote), false, kMidVoteNo, false, false, true},
      {"an older transaction's decision", 0, kMidAbort,
       d2t_token(1, kPhaseDecide), true, kMidFinal, false, false, false},
      {"decision after a recovery settle", 2, kMidAbort,
       d2t_token(2, kPhaseDecide), true, kMidFinal, false, false, false},
      // A federation recipient votes and decides on its own tokens
      // (kRecipientBase + phase); fed::Root's recovery settle records
      // kPhaseDecide. The late decision is still settled, not re-applied.
      {"recipient vote", 0, kMidVote, d2t_token(3, kRecipientBase + kPhaseVote),
       true, kMidVoteYes, false, false, true},
      {"recipient decision after a recovery settle", 3, kMidCommit,
       d2t_token(3, kRecipientBase + kPhaseDecide), true, kMidFinal, false,
       false, false},
      // Nothing was prepared, so applying it moves nothing, and a late vote
      // request for the transaction is stale from here on.
      {"decision of a transaction this member never voted in", 0, kMidAbort,
       d2t_token(4, kPhaseDecide), true, kMidFinal, false, true, false},
      {"a reply is no round request", 0, kMidFinal,
       d2t_token(5, kPhaseDecide), true, ev::kNoMessageId, false, false,
       false},
  };
  D2tMemberGuard guard;
  for (const Row& r : rows) {
    SCOPED_TRACE(r.what);
    if (r.settle != 0) guard.settle(r.settle);
    bool prepared = false;
    const D2tStep step = d2t_step(guard, r.type, r.token, [&] {
      prepared = true;
      return r.vote;
    });
    EXPECT_EQ(step.reply, r.reply);
    EXPECT_EQ(step.replay, r.replay);
    EXPECT_EQ(step.apply, r.apply);
    EXPECT_EQ(prepared, r.prepared);
  }
}

}  // namespace
}  // namespace ioc::txn
