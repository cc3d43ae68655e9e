// Common Neighbor Analysis (CNA): the expensive structural-labeling stage
// of the SmartPointer pipeline. For every bonded pair it computes the
// classic (ncn, nb, lcb) signature — number of common neighbors, bonds
// among them, and the longest bond chain — and classifies each atom's local
// crystal structure (FCC / HCP / BCC / other). The paper starts this stage
// only after CSym confirms a break, because of its cost.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "md/atoms.h"
#include "sp/adjacency.h"
#include "trace/sink.h"

namespace ioc::sp {

enum class CnaLabel : std::uint8_t { kOther = 0, kFcc, kHcp, kBcc };
const char* cna_label_name(CnaLabel l);

struct CnaSignature {
  int common = 0;       ///< ncn: common neighbors of the pair
  int bonds = 0;        ///< nb: bonds among the common neighbors
  int longest_chain = 0;///< lcb: longest continuous bond chain
  bool operator==(const CnaSignature&) const = default;
};

struct CnaConfig {
  /// Neighbor cutoff. For FCC the conventional choice lies midway between
  /// the first and second shells: (1/sqrt(2) + 1)/2 * a = 0.854 a.
  double cutoff = 1.32;
  /// Worker threads. Labels are per-atom independent, so any thread count
  /// produces identical labels; <= 1 runs inline on the caller.
  unsigned threads = 1;
  /// Optional sink for kernel.compute spans (not owned).
  trace::TraceSink* sink = nullptr;
};

struct CnaResult {
  std::vector<CnaLabel> labels;
  std::size_t count(CnaLabel l) const {
    std::size_t n = 0;
    for (auto v : labels) {
      if (v == l) ++n;
    }
    return n;
  }
};

class CommonNeighborAnalysis {
 public:
  explicit CommonNeighborAnalysis(CnaConfig cfg = CnaConfig{}) : cfg_(cfg) {}

  const CnaConfig& config() const { return cfg_; }

  /// Classify all atoms.
  CnaResult classify(const md::AtomData& atoms) const;
  /// Classify only a subset (the crack region), against full neighborhoods.
  /// Neighbour rows are built for the subset and its neighbours only, not
  /// for the whole crystal. Subset entries must be distinct
  /// (BreakDetector::region emits them so); duplicates would make
  /// concurrent label writes race.
  CnaResult classify_subset(const md::AtomData& atoms,
                            const std::vector<std::uint32_t>& subset) const;

  /// Signature of one bonded pair within an adjacency graph (exposed for
  /// tests and for downstream tools that want raw signatures).
  static CnaSignature pair_signature(const Adjacency& adj, std::uint32_t i,
                                     std::uint32_t j);

 private:
  CnaConfig cfg_;
};

}  // namespace ioc::sp
