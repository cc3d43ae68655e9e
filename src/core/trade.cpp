#include "core/trade.h"

#include "util/check.h"

namespace ioc::core {

bool DonorTradeOp::prepare() {
  if (pool_->owned_by(donor_) < count_) return false;
  pool_->escrow(txn_, donor_, count_);
  IOC_CHECK(pool_->conserved()) << "escrow reservation corrupted the pool";
  return true;
}

void DonorTradeOp::abort() {
  pool_->attach(donor_, pool_->take_escrow(txn_));
  IOC_CHECK(pool_->conserved()) << "trade abort corrupted the pool";
}

void RecipientTradeOp::commit() {
  const auto nodes = pool_->take_escrow(txn_);
  pool_->attach(recipient_, nodes);
  // Commit is the point where escrowed nodes must land with the recipient;
  // audited on every trade in debug builds.
  IOC_CHECK(nodes.size() == count_ && pool_->conserved())
      << "trade commit claimed " << nodes.size() << " of " << count_
      << " escrowed nodes";
}

}  // namespace ioc::core
