#include "core/resources.h"

#include <algorithm>
#include <stdexcept>

namespace ioc::core {

ResourcePool::ResourcePool(const std::vector<net::NodeId>& nodes) {
  for (net::NodeId n : nodes) owner_[n] = "";
  spares_ = owner_.size();
}

std::size_t ResourcePool::owned_by(const std::string& owner) const {
  std::size_t n = 0;
  for (const auto& [node, o] : owner_) {
    if (o == owner) ++n;
  }
  return n;
}

std::vector<net::NodeId> ResourcePool::nodes_of(
    const std::string& owner) const {
  std::vector<net::NodeId> out;
  for (const auto& [node, o] : owner_) {
    if (o == owner) out.push_back(node);
  }
  return out;
}

const std::string& ResourcePool::owner_of(net::NodeId n) const {
  auto it = owner_.find(n);
  if (it == owner_.end()) {
    throw std::invalid_argument("ResourcePool: unknown node " +
                                std::to_string(n));
  }
  return it->second;
}

std::vector<net::NodeId> ResourcePool::grant(const std::string& owner,
                                             std::size_t n) {
  std::vector<net::NodeId> out;
  for (auto& [node, o] : owner_) {
    if (out.size() == n) break;
    if (o.empty()) {
      o = owner;
      out.push_back(node);
    }
  }
  spares_ -= out.size();
  return out;
}

std::vector<net::NodeId> ResourcePool::grant_near(const std::string& owner,
                                                  std::size_t n,
                                                  net::NodeId near) {
  std::vector<net::NodeId> spare;
  for (const auto& [node, o] : owner_) {
    if (o.empty()) spare.push_back(node);
  }
  std::sort(spare.begin(), spare.end(), [near](net::NodeId a, net::NodeId b) {
    const auto da = a > near ? a - near : near - a;
    const auto db = b > near ? b - near : near - b;
    if (da != db) return da < db;
    return a < b;
  });
  if (spare.size() > n) spare.resize(n);
  for (net::NodeId node : spare) owner_[node] = owner;
  spares_ -= spare.size();
  return spare;
}

void ResourcePool::reclaim(const std::string& owner,
                           const std::vector<net::NodeId>& nodes) {
  // Validate everything before mutating anything, so a bad call cannot leave
  // a half-applied reclaim.
  for (net::NodeId n : nodes) {
    if (owner_of(n) != owner) {
      throw std::invalid_argument("ResourcePool: node " + std::to_string(n) +
                                  " not owned by '" + owner + "'");
    }
  }
  for (net::NodeId n : nodes) owner_[n] = "";
  if (!owner.empty()) spares_ += nodes.size();
}

std::vector<net::NodeId> ResourcePool::reclaim_all(const std::string& owner) {
  std::vector<net::NodeId> out = nodes_of(owner);
  for (net::NodeId n : out) owner_[n] = "";
  if (!owner.empty()) spares_ += out.size();
  return out;
}

std::pair<std::size_t, std::size_t> ResourcePool::reconcile(
    const std::string& owner, const std::vector<net::NodeId>& actual) {
  std::size_t reclaimed = 0;
  std::size_t claimed = 0;
  // Ledger credits `owner` does not actually hold -> back to the spare set.
  for (auto& [node, o] : owner_) {
    if (o == owner &&
        std::find(actual.begin(), actual.end(), node) == actual.end()) {
      o = "";
      ++reclaimed;
      if (!owner.empty()) ++spares_;
    }
  }
  // Nodes actually held that the ledger lost to the spare set. A node the
  // ledger assigns to a *different* owner is left alone: that would be a
  // double-ownership bug reconciliation must surface, not paper over.
  for (net::NodeId n : actual) {
    auto it = owner_.find(n);
    if (it != owner_.end() && it->second.empty()) {
      it->second = owner;
      ++claimed;
      if (!owner.empty()) --spares_;
    }
  }
  return {reclaimed, claimed};
}

void ResourcePool::attach(const std::string& owner,
                          const std::vector<net::NodeId>& nodes) {
  // Validate everything before mutating anything (as reclaim() does).
  for (net::NodeId n : nodes) {
    if (owner_.count(n) > 0) {
      throw std::invalid_argument("ResourcePool: node " + std::to_string(n) +
                                  " already present (attach would create "
                                  "double ownership)");
    }
  }
  for (net::NodeId n : nodes) owner_[n] = owner;
  if (owner.empty()) spares_ += nodes.size();
}

std::vector<net::NodeId> ResourcePool::detach_all(const std::string& owner) {
  std::vector<net::NodeId> out = nodes_of(owner);
  for (net::NodeId n : out) owner_.erase(n);
  if (owner.empty()) spares_ -= out.size();
  return out;
}

std::vector<net::NodeId> ResourcePool::escrow(std::uint64_t txn,
                                              const std::string& owner,
                                              std::size_t n) {
  std::vector<net::NodeId> out;
  for (const auto& [node, o] : owner_) {
    if (out.size() == n) break;
    if (o == owner) out.push_back(node);
  }
  for (net::NodeId node : out) owner_.erase(node);
  if (owner.empty()) spares_ -= out.size();
  auto& held = escrow_[txn];
  held.insert(held.end(), out.begin(), out.end());
  return out;
}

std::vector<net::NodeId> ResourcePool::take_escrow(std::uint64_t txn) {
  auto it = escrow_.find(txn);
  if (it == escrow_.end()) return {};
  auto nodes = std::move(it->second);
  escrow_.erase(it);
  return nodes;
}

std::size_t ResourcePool::escrowed() const {
  std::size_t n = 0;
  for (const auto& [txn, nodes] : escrow_) n += nodes.size();
  return n;
}

bool ResourcePool::conserved() const {
  std::map<std::string, std::size_t> counts;
  for (const auto& [node, o] : owner_) ++counts[o];
  std::size_t sum = 0;
  for (const auto& [o, c] : counts) sum += c;
  // The incremental spare counter must agree with the ledger it shadows;
  // a drift here means some mutation forgot to maintain it.
  auto spare_it = counts.find("");
  const std::size_t scanned = spare_it == counts.end() ? 0 : spare_it->second;
  return sum == owner_.size() && scanned == spares_;
}

}  // namespace ioc::core
