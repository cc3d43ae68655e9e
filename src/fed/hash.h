// Consistent-hash ring assigning pipelines (and any other string key) to GM
// shards, known by slot. Each shard contributes 64 points on a 64-bit ring,
// hashed from its name; a key belongs to the shard owning the first point
// at or after the key's hash.
// Properties the federation layer leans on, covered by tests/fed_test.cpp:
//
//  * deterministic: the hash is FNV-1a over the bytes, no pointer values,
//    no process state — the same fleet layout on every run and platform;
//  * stable under membership change: adding or removing one shard moves
//    only the keys whose arc it owned (~K/N of them), so a failover
//    reshuffles the dead shard's pipelines and nothing else.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

namespace ioc::fed {

/// A shard's index in the root's shard list.
using Slot = std::uint32_t;
/// No shard: an empty ring's owner, a lone shard's successor.
inline constexpr Slot kNoSlot = ~Slot{0};

/// Deterministic 64-bit FNV-1a. Exposed for tests and for callers that want
/// to pre-bucket keys the way the ring will.
std::uint64_t stable_hash(std::string_view s);

class HashRing {
 public:
  /// Put shard `slot` on the ring at the points its `name` hashes to.
  void add(Slot slot, std::string_view name);
  void remove(Slot slot);
  bool contains(Slot slot) const { return points_.count(slot) > 0; }

  /// The shard owning `key`; kNoSlot when the ring is empty.
  Slot owner(std::string_view key) const;
  /// The next distinct shard clockwise from `slot`'s first point — the heir
  /// that adopts its spare nodes on failover. kNoSlot when `slot` is absent
  /// or alone on the ring.
  Slot successor(Slot slot) const;

 private:
  std::map<std::uint64_t, Slot> ring_;                // point -> shard
  std::map<Slot, std::vector<std::uint64_t>> points_;  // shard -> its points
};

}  // namespace ioc::fed
