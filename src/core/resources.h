// Staging-area resource inventory. Under the batch-scheduler model the job
// owns a fixed set of staging nodes for its whole run; containers carve it
// up, and every grant/reclaim goes through this ledger so conservation can
// be asserted at any time (the property the control transactions protect).
// The ledger also holds the trades' escrow, keyed by transaction: the one
// place a node removed from one owner waits until the trade's decision
// gives it to another or restores it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/cluster.h"

namespace ioc::core {

class ResourcePool {
 public:
  /// `nodes`: the staging nodes the job was allocated.
  explicit ResourcePool(const std::vector<net::NodeId>& nodes);

  /// Nodes on the ledger; escrowed nodes are off it until a decision.
  std::size_t total() const { return owner_.size(); }
  /// O(1): maintained incrementally by every mutation below. The shard
  /// heartbeat and policy loops read this every tick, and the former
  /// scan-the-ledger implementation was a per-beat O(nodes) string walk.
  std::size_t spare_count() const { return spares_; }
  std::size_t owned_by(const std::string& owner) const;
  std::vector<net::NodeId> nodes_of(const std::string& owner) const;
  /// "" when spare; throws if the node is not in the pool.
  const std::string& owner_of(net::NodeId n) const;

  /// Take up to `n` spare nodes for `owner`; returns the nodes granted
  /// (possibly fewer than requested, possibly none).
  std::vector<net::NodeId> grant(const std::string& owner, std::size_t n);
  /// Like grant(), but prefers spare nodes closest (by node-id distance) to
  /// `near` — locality-aware placement reduces simulation-to-analytics data
  /// movement on topologies where distance costs latency.
  std::vector<net::NodeId> grant_near(const std::string& owner, std::size_t n,
                                      net::NodeId near);
  /// Return specific nodes to the spare set. Throws if `owner` does not own
  /// one of them.
  void reclaim(const std::string& owner,
               const std::vector<net::NodeId>& nodes);
  /// Return everything `owner` holds to the spare set, whatever that is —
  /// the fencing path, where the owner can no longer say what it owns.
  /// Returns the reclaimed nodes (possibly none).
  std::vector<net::NodeId> reclaim_all(const std::string& owner);
  /// Re-sync the ledger with `owner`'s ground truth (`actual`, the node
  /// list the container really holds): ledger entries for `owner` missing
  /// from `actual` return to the spare set, and spare nodes present in
  /// `actual` are re-credited. The GM-failover path uses this — a manager
  /// crash mid-round can strand a resize the CM applied but the DONE never
  /// reported. Nodes the ledger assigns to a different owner are left
  /// untouched. Returns {reclaimed, claimed}.
  std::pair<std::size_t, std::size_t> reconcile(
      const std::string& owner, const std::vector<net::NodeId>& actual);

  // --- cross-pool moves (the federation layer) ------------------------------
  // A fleet runs one ResourcePool per GM shard; failover and cross-shard
  // trades move nodes between pools. The moving node leaves the source pool
  // entirely (detach, or a trade's escrow) and enters the destination pool
  // as a new entry (attach), so each pool's conservation invariant keeps
  // holding locally while the fleet-level invariant is the sum over pools
  // of total() plus escrowed().

  /// Add nodes this pool has never seen, owned by `owner` ("" = spare).
  /// Throws if any of them is already present (double ownership across the
  /// shard boundary is the bug this must surface, not absorb).
  void attach(const std::string& owner, const std::vector<net::NodeId>& nodes);
  /// Remove every node `owner` holds from the pool entirely (they stop
  /// counting toward total()). Returns the removed nodes.
  std::vector<net::NodeId> detach_all(const std::string& owner);

  // --- trade escrow ----------------------------------------------------------
  // A D2T trade's donor prepare sets nodes aside under the transaction's key;
  // the decision then takes them out again, and the caller attach()es them
  // where the decision sends them: to the recipient on commit, back to the
  // donor on abort, into a live pool when the donor's own is fenced.

  /// Set aside up to `n` of `owner`'s nodes ("" = spares), lowest ids first,
  /// under transaction `txn`: they leave the ledger (total() stops counting
  /// them) and join whatever `txn` already holds. Returns the nodes set
  /// aside now (possibly fewer than `n`).
  std::vector<net::NodeId> escrow(std::uint64_t txn, const std::string& owner,
                                  std::size_t n);
  /// Remove and return everything escrowed under `txn` (empty if nothing).
  std::vector<net::NodeId> take_escrow(std::uint64_t txn);
  /// Nodes held in escrow across all open transactions.
  std::size_t escrowed() const;

  /// True iff every node has exactly one owner entry (the map structure
  /// enforces this) and the per-owner counts add up to the pool size.
  bool conserved() const;

 private:
  std::map<net::NodeId, std::string> owner_;  // "" = spare
  std::size_t spares_ = 0;  // count of "" entries, kept in lockstep
  std::map<std::uint64_t, std::vector<net::NodeId>> escrow_;  // txn -> nodes
};

}  // namespace ioc::core
