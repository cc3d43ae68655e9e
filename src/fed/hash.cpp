#include "fed/hash.h"

#include <string>

namespace ioc::fed {

namespace {
/// Points per shard. More points = smoother key distribution at O(points)
/// memory per shard; 64 keeps the max/min owned-arc ratio low for
/// single-digit shard counts.
constexpr std::size_t kVnodes = 64;
}  // namespace

std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  // splitmix64 finalizer: raw FNV-1a of short, similar keys ("s0#17",
  // "pipe-42") barely diffuses into the high bits, and the ring orders by
  // the full 64-bit value — without the avalanche, points cluster and a
  // handful of shards own almost every arc.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

void HashRing::add(Slot slot, std::string_view name) {
  auto [member, added] = points_.try_emplace(slot);
  if (!added) return;
  for (std::size_t i = 0; i < kVnodes; ++i) {
    const std::uint64_t p =
        stable_hash(std::string(name) + "#" + std::to_string(i));
    member->second.push_back(p);
    // On a (astronomically unlikely) point collision the smaller slot wins,
    // so ownership never depends on add() order.
    auto [it, inserted] = ring_.emplace(p, slot);
    if (!inserted && slot < it->second) it->second = slot;
  }
}

void HashRing::remove(Slot slot) {
  if (points_.erase(slot) == 0) return;
  std::erase_if(ring_, [slot](const auto& point) {
    return point.second == slot;
  });
  // Re-add surviving shards' points a removed collision winner shadowed.
  for (const auto& [s, points] : points_) {
    for (const std::uint64_t p : points) ring_.emplace(p, s);
  }
}

Slot HashRing::owner(std::string_view key) const {
  if (ring_.empty()) return kNoSlot;
  auto it = ring_.lower_bound(stable_hash(key));
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

Slot HashRing::successor(Slot slot) const {
  const auto member = points_.find(slot);
  if (member == points_.end() || points_.size() < 2) return kNoSlot;
  // Walk clockwise from the shard's first point to the next distinct shard.
  auto it = ring_.lower_bound(member->second.front());
  for (std::size_t steps = 0; steps <= ring_.size(); ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (it->second != slot) return it->second;
    ++it;
  }
  return kNoSlot;
}

}  // namespace ioc::fed
