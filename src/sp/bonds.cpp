#include "sp/bonds.h"

#include "md/cells.h"
#include "trace/kernel_span.h"

namespace ioc::sp {

Adjacency BondAnalysis::compute(const md::AtomData& atoms) const {
  trace::KernelSpan span(cfg_.sink, "bonds", cfg_.threads,
                         static_cast<double>(atoms.size()));
  md::CellList cl(atoms.box, cfg_.cutoff);
  cl.build(atoms.pos);
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> neighbors;
  cl.neighbor_csr(atoms.pos, cfg_.threads, &offsets, &neighbors);
  return Adjacency::from_csr(std::move(offsets), std::move(neighbors));
}

Adjacency BondAnalysis::compute_naive(const md::AtomData& atoms) const {
  const double rc2 = cfg_.cutoff * cfg_.cutoff;
  std::vector<std::vector<std::uint32_t>> lists(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms.size(); ++j) {
      if (atoms.box.min_image(atoms.pos[i], atoms.pos[j]).norm2() <= rc2) {
        lists[i].push_back(static_cast<std::uint32_t>(j));
        lists[j].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  return Adjacency::from_lists(lists);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
BondAnalysis::broken_bonds(const Adjacency& reference,
                           const Adjacency& current) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> broken;
  const std::size_t n = std::min(reference.size(), current.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    // Both rows are sorted: one merge walk finds the reference bonds the
    // current row lacks.
    const auto cur = current.neighbors_of(i);
    auto c = cur.begin();
    for (std::uint32_t j : reference.neighbors_of(i)) {
      if (j <= i || j >= n) continue;
      while (c != cur.end() && *c < j) ++c;
      if (c == cur.end() || *c != j) broken.emplace_back(i, j);
    }
  }
  return broken;
}

}  // namespace ioc::sp
