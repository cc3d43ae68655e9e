#include "sp/cna.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <span>

#include "md/cells.h"
#include "par/thread_pool.h"
#include "trace/kernel_span.h"

namespace ioc::sp {

const char* cna_label_name(CnaLabel l) {
  switch (l) {
    case CnaLabel::kOther: return "other";
    case CnaLabel::kFcc: return "fcc";
    case CnaLabel::kHcp: return "hcp";
    case CnaLabel::kBcc: return "bcc";
  }
  return "?";
}

namespace {

/// Reusable buffers for pair signatures, so labelling allocates nothing
/// per pair once they have grown to the largest neighbourhood seen.
struct SignatureScratch {
  std::vector<std::uint32_t> common;
  std::vector<std::uint64_t> edges;  ///< bit-set rows of the common subgraph
  std::vector<std::uint64_t> used;   ///< vertices on the current path
};

/// Longest simple path (in edges) starting at v through vertices not yet
/// `used`, in a subgraph stored as bit-set rows of `words` words each.
/// Exhaustive DFS — CNA common-neighbor sets are tiny (<= 6 for the
/// structures of interest, <= 13 at the degrees label_atom inspects).
int longest_from(const std::uint64_t* edges, std::size_t words,
                 std::uint64_t* used, std::size_t v) {
  int best = 0;
  const std::uint64_t* row = edges + v * words;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t m = row[w] & ~used[w]; m != 0; m &= m - 1) {
      const std::uint64_t bit = m & -m;
      used[w] |= bit;
      const std::size_t u =
          w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      best = std::max(best, 1 + longest_from(edges, words, used, u));
      used[w] &= ~bit;
    }
  }
  return best;
}

CnaSignature signature(const Adjacency& adj, std::uint32_t i, std::uint32_t j,
                       SignatureScratch& s) {
  CnaSignature sig;
  auto ni = adj.neighbors_of(i);
  auto nj = adj.neighbors_of(j);
  s.common.clear();
  std::set_intersection(ni.begin(), ni.end(), nj.begin(), nj.end(),
                        std::back_inserter(s.common));
  // The pair atoms themselves are excluded by construction (no self-bonds).
  const std::size_t n = s.common.size();
  sig.common = static_cast<int>(n);
  const std::size_t words = (n + 63) / 64;
  s.edges.assign(n * words, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (adj.bonded(s.common[a], s.common[b])) {
        s.edges[a * words + b / 64] |= std::uint64_t{1} << (b % 64);
        s.edges[b * words + a / 64] |= std::uint64_t{1} << (a % 64);
        ++sig.bonds;
      }
    }
  }
  s.used.assign(words, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    s.used[v / 64] |= bit;
    sig.longest_chain =
        std::max(sig.longest_chain,
                 longest_from(s.edges.data(), words, s.used.data(), v));
    s.used[v / 64] &= ~bit;
  }
  return sig;
}

CnaLabel label_atom(const Adjacency& adj, std::uint32_t i,
                    SignatureScratch& scratch) {
  const auto neigh = adj.neighbors_of(i);
  const std::size_t deg = neigh.size();
  if (deg == 12) {
    int n421 = 0, n422 = 0;
    for (std::uint32_t j : neigh) {
      const CnaSignature s = signature(adj, i, j, scratch);
      if (s == CnaSignature{4, 2, 1}) {
        ++n421;
      } else if (s == CnaSignature{4, 2, 2}) {
        ++n422;
      }
    }
    if (n421 == 12) return CnaLabel::kFcc;
    if (n421 == 6 && n422 == 6) return CnaLabel::kHcp;
    return CnaLabel::kOther;
  }
  if (deg == 14) {
    int n666 = 0, n444 = 0;
    for (std::uint32_t j : neigh) {
      const CnaSignature s = signature(adj, i, j, scratch);
      if (s == CnaSignature{6, 6, 6}) {
        ++n666;
      } else if (s == CnaSignature{4, 4, 4}) {
        ++n444;
      }
    }
    if (n666 == 8 && n444 == 6) return CnaLabel::kBcc;
  }
  return CnaLabel::kOther;
}

}  // namespace

CnaSignature CommonNeighborAnalysis::pair_signature(const Adjacency& adj,
                                                    std::uint32_t i,
                                                    std::uint32_t j) {
  SignatureScratch s;
  return signature(adj, i, j, s);
}

CnaResult CommonNeighborAnalysis::classify(const md::AtomData& atoms) const {
  std::vector<std::uint32_t> all(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    all[i] = static_cast<std::uint32_t>(i);
  }
  return classify_subset(atoms, all);
}

CnaResult CommonNeighborAnalysis::classify_subset(
    const md::AtomData& atoms,
    const std::vector<std::uint32_t>& subset) const {
  trace::KernelSpan span(cfg_.sink, "cna", cfg_.threads,
                         static_cast<double>(subset.size()));
  md::CellList cl(atoms.box, cfg_.cutoff);
  cl.build(atoms.pos);
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> neighbors;
  if (subset.size() == atoms.size()) {
    // Every atom (subset entries are distinct): the full, threaded CSR.
    cl.neighbor_csr(atoms.pos, cfg_.threads, &offsets, &neighbors);
  } else {
    // Rows of the subset, then of every neighbour of a subset atom:
    // exactly the rows label_atom reads (a pair signature intersects the
    // rows of i and j, and tests bonds among their common neighbours, all
    // of which neighbour i). Every other row stays empty.
    md::RowBuffer rows;
    auto keep = [&rows](std::size_t i, const md::NeighborRow& row) {
      rows.add(i, row);
    };
    cl.for_each_row_of(atoms.pos, subset, keep);
    std::vector<char> has_row(atoms.size(), 0);
    for (std::uint32_t i : subset) has_row[i] = 1;
    std::vector<std::uint32_t> ring;
    for (std::uint32_t j : rows.ids) {
      if (has_row[j] == 0) {
        has_row[j] = 1;
        ring.push_back(j);
      }
    }
    cl.for_each_row_of(atoms.pos, ring, keep);
    md::assemble_csr(atoms.size(), std::span(&rows, 1), &offsets, &neighbors);
  }
  const Adjacency adj =
      Adjacency::from_csr(std::move(offsets), std::move(neighbors));

  CnaResult res;
  res.labels.assign(atoms.size(), CnaLabel::kOther);
  // Each subset entry is labeled independently against the shared read-only
  // adjacency; identical labels at any thread count. Small subsets run
  // inline serial (grain clamp) rather than paying pool dispatch.
  par::parallel_for(par::grain_limited_threads(cfg_.threads, subset.size()),
                    subset.size(),
                    [&](std::size_t lo, std::size_t hi, unsigned) {
                      SignatureScratch scratch;
                      for (std::size_t s = lo; s < hi; ++s) {
                        res.labels[subset[s]] =
                            label_atom(adj, subset[s], scratch);
                      }
                    });
  return res;
}

}  // namespace ioc::sp
