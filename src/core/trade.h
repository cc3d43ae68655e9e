// Transactional resource trade: wraps a ResourcePool node move in D2T
// operations so that, under arbitrary participant failures, the donor and
// recipient views stay consistent — a node removed from one container is
// either successfully given to the other or restored, never lost. The
// nodes in flight wait in the pool's escrow under the trade's transaction
// key (ResourcePool::escrow), the same escrow fed::Shard's trades use.
#pragma once

#include <cstdint>
#include <string>

#include "core/resources.h"
#include "txn/d2t.h"

namespace ioc::core {

/// Donor-side operation: escrows `count` of the donor's nodes at prepare
/// (voting NO unless it owns that many), leaves them for the recipient at
/// commit, restores them to the donor at abort.
class DonorTradeOp : public txn::Operation {
 public:
  DonorTradeOp(ResourcePool& pool, std::uint64_t txn, std::string donor,
               std::size_t count)
      : pool_(&pool), txn_(txn), donor_(std::move(donor)), count_(count) {}

  bool prepare() override;
  void commit() override {}
  void abort() override;

 private:
  ResourcePool* pool_;
  std::uint64_t txn_;
  std::string donor_;
  std::size_t count_;
};

/// Recipient-side operation: claims the trade's `count` escrowed nodes at
/// commit.
class RecipientTradeOp : public txn::Operation {
 public:
  RecipientTradeOp(ResourcePool& pool, std::uint64_t txn,
                   std::string recipient, std::size_t count)
      : pool_(&pool),
        txn_(txn),
        recipient_(std::move(recipient)),
        count_(count) {}

  /// The recipient can always accept; real validation (enough memory on
  /// the nodes, etc.) would go here.
  bool prepare() override { return true; }
  void commit() override;
  void abort() override {}

 private:
  ResourcePool* pool_;
  std::uint64_t txn_;
  std::string recipient_;
  std::size_t count_;
};

}  // namespace ioc::core
