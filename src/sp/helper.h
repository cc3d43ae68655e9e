// LAMMPS Helper: the aggregation tree that accepts the parallel simulation's
// per-rank output chunks and assembles the global atom set the downstream
// analytics consume (Table I: O(n), Tree compute model, no branching).
#pragma once

#include <cstddef>
#include <vector>

#include "md/atoms.h"

namespace ioc::sp {

class AggregationTree {
 public:
  explicit AggregationTree(std::size_t fanin = 2);

  std::size_t fanin() const { return fanin_; }

  /// Tree depth needed to combine `leaves` inputs.
  std::size_t depth_for(std::size_t leaves) const;

  /// Combine per-rank chunks into one AtomData. All chunks must share the
  /// same box; atom order is chunk order (stable). The chunks are taken by
  /// value, so a temporary or moved-from vector is merged without a copy.
  md::AtomData aggregate(std::vector<md::AtomData> chunks) const;

  /// Split an atom set into `parts` contiguous chunks (the inverse, used by
  /// tests and by the example that emulates parallel ranks).
  static std::vector<md::AtomData> scatter(const md::AtomData& atoms,
                                           std::size_t parts);

 private:
  std::size_t fanin_;
};

}  // namespace ioc::sp
