// Reliable control: trading staging nodes between a visualization container
// and an analytics container under failure injection. The D2T control
// transaction guarantees that a node removed from the donor is either
// successfully added to the recipient or restored — never lost — for every
// failure the harness can inject.
#include <cstdio>

#include "core/resources.h"
#include "core/trade.h"
#include "des/simulator.h"
#include "ev/bus.h"
#include "net/cluster.h"
#include "net/network.h"
#include "txn/d2t.h"
#include "util/table.h"

namespace {

using namespace ioc;

des::Process run_txn(txn::TxnHarness& h, txn::TxnResult* out) {
  *out = co_await h.run();
}

const char* phase_name(txn::Phase p) {
  switch (p) {
    case txn::Phase::kBegin: return "begin";
    case txn::Phase::kVote: return "vote";
    case txn::Phase::kDecide: return "decide";
    default: return "none";
  }
}

}  // namespace

int main() {
  struct Scenario {
    const char* label;
    txn::FailureSpec failure;
  };
  const Scenario scenarios[] = {
      {"healthy", {-1, txn::Phase::kNever}},
      {"donor-side writer dies at begin", {0, txn::Phase::kBegin}},
      {"donor-side writer dies at vote", {0, txn::Phase::kVote}},
      {"donor-side writer dies after decide", {0, txn::Phase::kDecide}},
      {"recipient-side reader dies at vote", {4, txn::Phase::kVote}},
      {"recipient-side reader dies after decide", {4, txn::Phase::kDecide}},
  };

  util::Table t({"scenario", "failure phase", "outcome", "viz nodes",
                 "analytics nodes", "total"});
  bool all_conserved = true;
  for (const auto& sc : scenarios) {
    des::Simulator sim;
    net::Cluster cluster(sim, 16);
    net::Network net(cluster);
    ev::Bus bus(net);

    // Two containers share 8 staging nodes; viz donates 2 to analytics.
    core::ResourcePool pool({0, 1, 2, 3, 4, 5, 6, 7});
    (void)pool.grant("viz", 4);
    (void)pool.grant("analytics", 4);

    txn::TxnConfig cfg;
    cfg.writers = 4;
    cfg.readers = 2;
    cfg.round.timeout = des::kSecond;
    cfg.failure = sc.failure;
    txn::TxnHarness h(bus, cfg);
    core::DonorTradeOp donor(pool, /*txn=*/1, "viz", 2);
    core::RecipientTradeOp recipient(pool, /*txn=*/1, "analytics", 2);
    h.set_operation(1, &donor);       // a writer-side participant
    h.set_operation(4, &recipient);   // a reader-side participant

    txn::TxnResult res;
    spawn(sim, run_txn(h, &res));
    sim.run_until(60 * des::kSecond);

    const bool conserved =
        pool.conserved() && pool.escrowed() == 0 &&
        pool.owned_by("viz") + pool.owned_by("analytics") == 8;
    all_conserved = all_conserved && conserved;
    t.add_row({sc.label, phase_name(sc.failure.at),
               res.outcome == txn::Outcome::kCommitted ? "committed"
                                                       : "aborted",
               util::Table::num(static_cast<long long>(pool.owned_by("viz"))),
               util::Table::num(
                   static_cast<long long>(pool.owned_by("analytics"))),
               conserved ? "8 (conserved)" : "VIOLATED"});
  }
  t.print("transactional resource trades under failure injection:");
  std::printf("\n%s\n", all_conserved
                            ? "every scenario kept the resource inventory "
                              "consistent (no loss, no duplication)"
                            : "INVENTORY VIOLATION DETECTED");
  return all_conserved ? 0 : 1;
}
