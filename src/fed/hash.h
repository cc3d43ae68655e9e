// Consistent-hash ring assigning pipelines (and any other string key) to GM
// shards. Each shard contributes 64 points on a 64-bit ring; a key belongs
// to the shard owning the first point at or after the key's hash.
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
#include <string>

namespace ioc::fed {

/// Deterministic 64-bit FNV-1a. Exposed for tests and for callers that want
/// to pre-bucket keys the way the ring will.
std::uint64_t stable_hash(const std::string& s);

class HashRing {
 public:
  void add(const std::string& shard);
  void remove(const std::string& shard);
  bool contains(const std::string& shard) const;
  /// Distinct shards on the ring.
  std::size_t size() const { return shards_.size(); }

  /// The shard owning `key`. Empty string when the ring is empty.
  const std::string& owner(const std::string& key) const;
  /// The next distinct shard clockwise from `shard`'s first point — the
  /// heir that adopts its spare nodes on failover. Empty when `shard` is
  /// absent or alone on the ring.
  std::string successor(const std::string& shard) const;

 private:
  std::uint64_t point(const std::string& shard, std::size_t replica) const;

  std::map<std::uint64_t, std::string> ring_;  // point -> shard
  std::map<std::string, bool> shards_;
};

}  // namespace ioc::fed
