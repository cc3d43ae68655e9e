#include "sp/csym.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "md/cells.h"
#include "par/thread_pool.h"
#include "trace/kernel_span.h"

namespace ioc::sp {

namespace {

/// Per-row scratch of the CSP evaluation, reused across a chunk's atoms.
struct CspScratch {
  std::vector<std::uint32_t> nearest;  ///< row slots of the k nearest
  std::vector<std::pair<double, std::uint32_t>> order;  ///< tie fallback
  std::vector<double> x, y, z;  ///< the k nearest displacements, SoA
  std::vector<double> sums;     ///< every pair sum |d_a + d_b|^2
  std::vector<double> row_min;  ///< minimum of each triangle row of sums
  std::vector<double> kept;     ///< sums under the selection bound
};

/// Rank-count selection: the value v[e] with fewer than `nth` entries
/// strictly below it and at least `nth` at or below it — the nth smallest.
double nth_smallest(const double* v, std::size_t n, std::size_t nth) {
  for (std::size_t e = 0; e < n; ++e) {
    std::size_t below = 0, at_or_below = 0;
    for (std::size_t f = 0; f < n; ++f) {
      below += static_cast<std::size_t>(v[f] < v[e]);
      at_or_below += static_cast<std::size_t>(v[f] <= v[e]);
    }
    if (below < nth && nth <= at_or_below) return v[e];
  }
  return std::numeric_limits<double>::infinity();  // unreachable: nth <= n
}

/// Row slots of the k nearest neighbours (k < row.size), as the
/// partial_sort over (r2, Vec3) in ascending-j order chose them. When
/// exactly k entries lie at or below the k-th smallest r2 the set is
/// unique, whatever order a sort would leave it in. Otherwise an exact r2
/// tie straddles the k-th place, and partial_sort with the same comparator
/// on the same ascending-j input breaks it as before (sorting (r2, slot)
/// keys permutes identically).
void nearest_slots(const md::NeighborRow& row, std::size_t k, CspScratch& s) {
  const double kth = nth_smallest(row.r2, row.size, k);
  s.nearest.clear();
  for (std::uint32_t e = 0; e < row.size; ++e) {
    if (row.r2[e] <= kth) s.nearest.push_back(e);
  }
  if (s.nearest.size() == k) return;
  s.order.resize(row.size);
  for (std::uint32_t t = 0; t < row.size; ++t) s.order[t] = {row.r2[t], t};
  std::partial_sort(
      s.order.begin(), s.order.begin() + static_cast<std::ptrdiff_t>(k),
      s.order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  s.nearest.resize(k);
  for (std::size_t t = 0; t < k; ++t) s.nearest[t] = s.order[t].second;
}

/// The k/2 smallest pair sums |d_a + d_b|^2 over the k nearest (lanes
/// x/y/z), added smallest first: the sum the partial_sort of all pair sums
/// produced, bit for bit. The sums are laid out by the triangle's rows
/// (a, a+1..k-1); each row's minimum is a distinct element, so the
/// (k/2)-th smallest row minimum bounds the (k/2)-th smallest sum. Only
/// the sums under that bound — near k/2 of them for a crystal — are
/// sorted.
double smallest_pair_sums(CspScratch& s, std::size_t k) {
  const std::size_t take = k / 2;
  s.sums.resize(k * (k - 1) / 2);
  s.row_min.resize(k - 1);
  double* out = s.sums.data();
  for (std::size_t a = 0; a + 1 < k; ++a) {
    double* row = out;
    // (d_a + d_b).norm2(), spelled out over the SoA lanes.
    for (std::size_t b = a + 1; b < k; ++b, ++out) {
      const double x = s.x[a] + s.x[b];
      const double y = s.y[a] + s.y[b];
      const double z = s.z[a] + s.z[b];
      *out = x * x + y * y + z * z;
    }
    s.row_min[a] = *std::min_element(row, out);
  }
  const double bound = nth_smallest(s.row_min.data(), k - 1, take);
  s.kept.resize(s.sums.size());
  std::size_t n = 0;
  for (double v : s.sums) {
    s.kept[n] = v;
    n += static_cast<std::size_t>(v <= bound);
  }
  std::sort(s.kept.begin(), s.kept.begin() + static_cast<std::ptrdiff_t>(n));
  double sum = 0;
  for (std::size_t t = 0; t < take; ++t) sum += s.kept[t];
  return sum;
}

/// CSP of one atom from its neighbour row (ascending j): the same k
/// nearest and the same sum as the CSR + Box::min_image formulation it
/// replaced. Pair sums do not depend on the order of the k nearest, since
/// IEEE addition commutes.
double csp_of(const md::NeighborRow& row, std::size_t want, double cutoff,
              CspScratch& s) {
  const std::size_t k = std::min(row.size, want);
  // An isolated atom has no symmetry to measure; flag it strongly.
  if (k < 2) return cutoff * cutoff;
  if (row.size > k) {
    nearest_slots(row, k, s);
  } else {
    s.nearest.resize(k);
    for (std::uint32_t t = 0; t < k; ++t) s.nearest[t] = t;
  }
  s.x.resize(k);
  s.y.resize(k);
  s.z.resize(k);
  for (std::size_t t = 0; t < k; ++t) {
    const md::Vec3& d = row.d[s.nearest[t]];
    s.x[t] = d.x;
    s.y[t] = d.y;
    s.z[t] = d.z;
  }
  return smallest_pair_sums(s, k);
}

}  // namespace

std::vector<double> CentralSymmetry::compute(const md::AtomData& atoms) const {
  trace::KernelSpan span(cfg_.sink, "csym", cfg_.threads,
                         static_cast<double>(atoms.size()));
  md::CellList cl(atoms.box, cfg_.cutoff);
  cl.build(atoms.pos);
  std::vector<double> csp(atoms.size(), 0.0);
  const auto want = static_cast<std::size_t>(cfg_.num_neighbors);
  // Atoms are independent; chunks of the cell domain share nothing but the
  // read-only cell list and write disjoint csp slots, so per-atom values
  // are bit-identical at any thread count — including the grain-clamped
  // serial fast path.
  const unsigned eff = par::grain_limited_threads(cfg_.threads, atoms.size());
  par::parallel_for(eff, cl.range_size(), [&](std::size_t lo,
                                              std::size_t hi, unsigned) {
    CspScratch scratch;
    cl.for_each_row_range(atoms.pos, lo, hi, [&](std::size_t i,
                                                 const md::NeighborRow& row) {
      csp[i] = csp_of(row, want, cfg_.cutoff, scratch);
    });
  });
  return csp;
}

bool BreakDetector::detect(const std::vector<double>& csp) const {
  if (csp.empty()) return false;
  std::size_t above = 0;
  for (double v : csp) {
    if (v > threshold) ++above;
  }
  return static_cast<double>(above) >
         min_fraction * static_cast<double>(csp.size());
}

std::vector<std::uint32_t> BreakDetector::region(
    const std::vector<double>& csp) const {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < csp.size(); ++i) {
    if (csp[i] > threshold) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

}  // namespace ioc::sp
