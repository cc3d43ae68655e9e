#include "fed/hash.h"

namespace ioc::fed {

namespace {
/// Points per shard. More points = smoother key distribution at O(points)
/// memory per shard; 64 keeps the max/min owned-arc ratio low for
/// single-digit shard counts.
constexpr std::size_t kVnodes = 64;
}  // namespace

std::uint64_t stable_hash(const std::string& s) {
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

std::uint64_t HashRing::point(const std::string& shard,
                              std::size_t replica) const {
  return stable_hash(shard + "#" + std::to_string(replica));
}

void HashRing::add(const std::string& shard) {
  if (shards_.count(shard) > 0) return;
  shards_[shard] = true;
  for (std::size_t i = 0; i < kVnodes; ++i) {
    // On a (astronomically unlikely) point collision the lexicographically
    // smaller shard name wins, so ownership never depends on add() order.
    auto [it, inserted] = ring_.emplace(point(shard, i), shard);
    if (!inserted && shard < it->second) it->second = shard;
  }
}

void HashRing::remove(const std::string& shard) {
  if (shards_.erase(shard) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == shard) {
      it = ring_.erase(it);
    } else {
      ++it;
    }
  }
  // Re-add surviving shards' points a removed collision winner shadowed.
  for (const auto& [s, unused] : shards_) {
    for (std::size_t i = 0; i < kVnodes; ++i) {
      ring_.emplace(point(s, i), s);
    }
  }
}

bool HashRing::contains(const std::string& shard) const {
  return shards_.count(shard) > 0;
}

const std::string& HashRing::owner(const std::string& key) const {
  static const std::string kEmpty;
  if (ring_.empty()) return kEmpty;
  auto it = ring_.lower_bound(stable_hash(key));
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::string HashRing::successor(const std::string& shard) const {
  if (shards_.count(shard) == 0 || shards_.size() < 2) return "";
  // Walk clockwise from the shard's first point to the next distinct shard.
  auto it = ring_.lower_bound(point(shard, 0));
  for (std::size_t steps = 0; steps <= ring_.size(); ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (it->second != shard) return it->second;
    ++it;
  }
  return "";
}

}  // namespace ioc::fed
