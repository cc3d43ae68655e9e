// Linked-cell neighbor search: O(n) pair enumeration for short-range
// potentials and per-atom neighbour rows for the analytics kernels' cutoff
// queries. Falls back to the O(n^2) double loop when the box is too small
// for a 3x3x3 cell stencil (which would otherwise double-count periodic
// images).
//
// Storage is a flat CSR layout (cell_start_ offsets into one cell_atoms_
// index array) rebuilt by counting sort. Two visitors read it, both
// templates so the callback inlines:
//  * the pair visitor (for_each_pair_range) walks a half stencil and hands
//    each unordered pair to the callback once. The LJ force kernel uses it:
//    Newton's third law wants each pair exactly once.
//  * the row visitor (for_each_row_range / for_each_row_of) gathers the
//    full 27-cell stencil once per home cell and emits each atom's complete
//    row: its neighbours in ascending index, with displacement and r2.
//    Bonds (through neighbor_csr), CSym and CNA use it: they all want
//    per-atom neighbourhoods, not pairs.
// Both visitors tile their distance math over SoA lanes so it
// auto-vectorizes, and both produce the bits Box::min_image would
// (docs/PERFORMANCE.md "Bit-identical by construction", "Neighbour rows").
// An optional Verlet skin widens the bins by
// `skin` so the structure stays valid until some atom drifts more than
// skin/2 from its position at build time; update() performs that check and
// rebuilds only when needed (or when the box deformed, e.g. under strain).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "md/atoms.h"
#include "md/soa.h"

namespace ioc::md {

namespace detail {

/// Pair-visitor dispatch: callbacks may take (i, j, r2) — the historical
/// signature — or (i, j, r2, d) with d the minimum-image displacement
/// pos[i] - pos[j] that the visitor already computed for the cutoff test.
/// Force kernels take the 4-arg form so they never recompute min_image.
template <class Fn>
inline void invoke_pair(Fn& fn, std::size_t i, std::size_t j, double r2,
                        const Vec3& d) {
  if constexpr (std::is_invocable_v<Fn&, std::size_t, std::size_t, double,
                                    const Vec3&>) {
    fn(i, j, r2, d);
  } else {
    fn(i, j, r2);
  }
}

}  // namespace detail

/// One atom's neighbour row as the row visitors emit it: the atoms within
/// the cutoff in ascending index, each with the minimum-image displacement
/// d = pos[j] - pos[i] and r2 = |d|^2, bitwise equal to
/// Box::min_image(pos[j], pos[i]) and its norm2(). The arrays live in the
/// visitor's scratch and are valid only during the callback.
struct NeighborRow {
  const std::uint32_t* j = nullptr;
  const double* r2 = nullptr;
  const Vec3* d = nullptr;
  std::size_t size = 0;
};

/// Rows recorded in visit order, for assembly into a CSR indexed by atom
/// (assemble_csr). Lets a row pass run in chunks, or over a subset of the
/// atoms, and still produce one flat adjacency.
struct RowBuffer {
  std::vector<std::uint32_t> atoms;  ///< atom of each recorded row
  std::vector<std::uint32_t> sizes;  ///< that row's length
  std::vector<std::uint32_t> ids;    ///< the rows' neighbours, concatenated

  void add(std::size_t i, const NeighborRow& row) {
    atoms.push_back(static_cast<std::uint32_t>(i));
    sizes.push_back(static_cast<std::uint32_t>(row.size));
    ids.insert(ids.end(), row.j, row.j + row.size);
  }
};

/// CSR over `natoms` atoms from recorded rows: offsets gets natoms+1
/// entries, neighbors row i in [offsets[i], offsets[i+1]). Atoms no buffer
/// recorded get an empty row; each atom may be recorded at most once.
void assemble_csr(std::size_t natoms, std::span<const RowBuffer> parts,
                  std::vector<std::uint32_t>* offsets,
                  std::vector<std::uint32_t>* neighbors);

class CellList {
 public:
  CellList(const Box& box, double cutoff, double skin = 0.0);

  /// Unconditionally rebuild the cell structure for these positions.
  void build(const std::vector<Vec3>& pos);

  /// Rebuild only when required: the box changed, the atom count changed,
  /// there is no skin, or some atom moved more than skin/2 since the last
  /// build. Returns whether a rebuild happened.
  bool update(const Box& box, const std::vector<Vec3>& pos);

  /// Visit each unordered pair (i < j) with |r_ij| <= cutoff exactly once.
  /// The callback receives (i, j, r2) — or (i, j, r2, d) with d the
  /// minimum-image displacement pos[i] - pos[j], see detail::invoke_pair —
  /// with r2 the squared minimum-image distance. Templated so the callback
  /// inlines into the cell loops.
  template <class Fn>
  void for_each_pair(const std::vector<Vec3>& pos, Fn&& fn) const {
    for_each_pair_range(pos, 0, range_size(), fn);
  }

  /// Pair visitation restricted to a slice of the independent work domain:
  /// cells [begin, end) when the cell grid is active, first-atom indices
  /// [begin, end) in the O(n^2) fallback. Every pair is owned by exactly
  /// one domain slot, so disjoint ranges visit disjoint pair sets — the
  /// unit the parallel kernels chunk over.
  /// The cell path runs tiled: per cell pair the candidate coordinates are
  /// gathered into SoA lanes (md/soa.h) and a branchless pass computes every
  /// candidate's wrapped displacement and r2 into scratch arrays — that loop
  /// has no data-dependent control flow, so it auto-vectorizes — then an
  /// ordered scalar sweep invokes the callback on the survivors. Visit order
  /// and per-pair arithmetic match the historical scalar loop exactly (see
  /// docs/PERFORMANCE.md "Bit-identicality"), so threads=1 results are
  /// bit-for-bit unchanged.
  template <class Fn>
  void for_each_pair_range(const std::vector<Vec3>& pos, std::size_t begin,
                           std::size_t end, Fn&& fn) const {
    const double rc2 = cutoff_ * cutoff_;
    if (!use_cells_) {
      // O(n^2) fallback: the box can be smaller than ~3 cutoffs per
      // dimension here, where the multiply-by-inverse wrap below is not
      // provably bit-equal to Box::min_image, so keep the division path.
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = i + 1; j < pos.size(); ++j) {
          const Vec3 d = box_.min_image(pos[i], pos[j]);
          const double r2 = d.norm2();
          if (r2 <= rc2) detail::invoke_pair(fn, i, j, r2, d);
        }
      }
      return;
    }
    const auto nx = static_cast<std::int64_t>(nx_);
    const auto ny = static_cast<std::int64_t>(ny_);
    const auto nz = static_cast<std::int64_t>(nz_);
    const Vec3 len = box_.extent();
    // Reciprocal lengths hoist the per-pair division out of the wrap. The
    // wrap count k = nearbyint(d/len) can only disagree with
    // nearbyint(d*inv) when d/len lies within ~2 ulp of a half-integer
    // rounding boundary — but such a pair is |wrapped d| ~ len/2 >= 1.5
    // cutoffs (the box is >= 3 bins, bin >= cutoff), beyond the cutoff under
    // either rounding, so it never reaches the callback. For every pair that
    // does, |wrapped d| <= cutoff puts d/len within 1/3 of an integer: both
    // forms give the same k, and d - len*k is the exact expression from
    // Box::min_image — the surviving displacement and r2 are bit-identical.
    const Vec3 inv{1.0 / len.x, 1.0 / len.y, 1.0 / len.z};
    // Per-call scratch (the visitor runs concurrently on chunks, so no
    // mutable members): SoA lanes for the two cells of the current pair and
    // the candidate displacement/r2 tiles.
    Soa3 home, other_soa;
    home.reserve(max_cell_atoms_);
    other_soa.reserve(max_cell_atoms_);
    std::vector<double> tdx(max_cell_atoms_), tdy(max_cell_atoms_),
        tdz(max_cell_atoms_), tr2(max_cell_atoms_);
    // One atom (slot `a` of `src`, already in SoA lanes) against candidate
    // slots [j0, j0+m) of `cand`; `jatoms` maps candidate k to its atom id.
    auto tile = [&](std::size_t i, const Soa3& src, std::size_t a,
                    const Soa3& cand, std::size_t j0, std::size_t m,
                    const std::uint32_t* jatoms) {
      const double xi = src.x[a], yi = src.y[a], zi = src.z[a];
      const double* xs = cand.x.data() + j0;
      const double* ys = cand.y.data() + j0;
      const double* zs = cand.z.data() + j0;
      for (std::size_t k = 0; k < m; ++k) {
        double dx = xi - xs[k];
        double dy = yi - ys[k];
        double dz = zi - zs[k];
        dx -= len.x * std::nearbyint(dx * inv.x);
        dy -= len.y * std::nearbyint(dy * inv.y);
        dz -= len.z * std::nearbyint(dz * inv.z);
        tdx[k] = dx;
        tdy[k] = dy;
        tdz[k] = dz;
        tr2[k] = dx * dx + dy * dy + dz * dz;
      }
      for (std::size_t k = 0; k < m; ++k) {
        if (tr2[k] <= rc2) {
          detail::invoke_pair(fn, i, static_cast<std::size_t>(jatoms[k]),
                              tr2[k], Vec3{tdx[k], tdy[k], tdz[k]});
        }
      }
    };
    for (std::size_t c = begin; c < end; ++c) {
      const std::uint32_t* cell = cell_atoms_.data() + cell_start_[c];
      const std::size_t cell_n = cell_start_[c + 1] - cell_start_[c];
      if (cell_n == 0) continue;
      const auto cz = static_cast<std::int64_t>(c % nz_);
      const auto cy = static_cast<std::int64_t>((c / nz_) % ny_);
      const auto cx = static_cast<std::int64_t>(c / (ny_ * nz_));
      // Gather from the *current* positions, not build-time ones: with a
      // Verlet skin, atoms drift between rebuilds.
      home.pack(pos, cell, cell_n);
      // Pairs within the cell.
      for (std::size_t a = 0; a < cell_n; ++a) {
        tile(cell[a], home, a, home, a + 1, cell_n - a - 1, cell + a + 1);
      }
      // Pairs with half of the neighboring cells (each cell pair visited
      // once).
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          for (std::int64_t dz = -1; dz <= 1; ++dz) {
            if (dx == 0 && dy == 0 && dz == 0) continue;
            // Keep only the lexicographically positive half-stencil.
            if (dx < 0 || (dx == 0 && dy < 0) ||
                (dx == 0 && dy == 0 && dz < 0)) {
              continue;
            }
            const std::size_t ox = static_cast<std::size_t>((cx + dx + nx) % nx);
            const std::size_t oy = static_cast<std::size_t>((cy + dy + ny) % ny);
            const std::size_t oz = static_cast<std::size_t>((cz + dz + nz) % nz);
            const std::size_t o = (ox * ny_ + oy) * nz_ + oz;
            const std::uint32_t* other = cell_atoms_.data() + cell_start_[o];
            const std::size_t other_n = cell_start_[o + 1] - cell_start_[o];
            if (other_n == 0) continue;
            other_soa.pack(pos, other, other_n);
            for (std::size_t a = 0; a < cell_n; ++a) {
              tile(cell[a], home, a, other_soa, 0, other_n, other);
            }
          }
        }
      }
    }
  }

  /// Size of the independent work domain for for_each_pair_range.
  std::size_t range_size() const {
    return use_cells_ ? nx_ * ny_ * nz_ : natoms_;
  }

  /// Visit the neighbour row (see NeighborRow) of every atom owned by a
  /// slice of the work domain — cells [begin, end) when the cell grid is
  /// active, atoms [begin, end) in the O(n^2) fallback. The callback
  /// receives (i, const NeighborRow&). Per home cell the 27-cell stencil
  /// is gathered into SoA lanes once; each home atom then takes one
  /// branchless distance pass over the gathered candidates, keeps the
  /// survivors, and sorts them by index. Scratch is per call, so disjoint
  /// slices can run concurrently.
  template <class Fn>
  void for_each_row_range(const std::vector<Vec3>& pos, std::size_t begin,
                          std::size_t end, Fn&& fn) const {
    RowScratch s;
    if (!use_cells_) {
      for (std::size_t i = begin; i < end; ++i) fn(i, naive_row(pos, i, s));
      return;
    }
    for (std::size_t c = begin; c < end; ++c) {
      if (cell_start_[c] == cell_start_[c + 1]) continue;
      gather_stencil(pos, c, s);
      for (std::uint32_t a = cell_start_[c]; a < cell_start_[c + 1]; ++a) {
        const std::uint32_t i = cell_atoms_[a];
        fn(static_cast<std::size_t>(i), stencil_row(pos[i], i, s));
      }
    }
  }

  /// Rows of the listed atoms only (distinct indices, any order), emitted
  /// in unspecified order; atoms sharing a home cell share one stencil
  /// gather. The analytics use it to take rows for a region, not the
  /// crystal.
  template <class Fn>
  void for_each_row_of(const std::vector<Vec3>& pos,
                       std::span<const std::uint32_t> atoms, Fn&& fn) const {
    RowScratch s;
    if (!use_cells_) {
      for (std::uint32_t i : atoms) fn(std::size_t{i}, naive_row(pos, i, s));
      return;
    }
    // (home cell << 32 | atom), sorted: one gather per distinct cell.
    std::vector<std::uint64_t> order(atoms.size());
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      order[k] = std::uint64_t{atom_cell_[atoms[k]]} << 32 | atoms[k];
    }
    std::sort(order.begin(), order.end());
    std::uint64_t gathered = ~std::uint64_t{0};
    for (std::uint64_t key : order) {
      const auto i = static_cast<std::uint32_t>(key);
      if (key >> 32 != gathered) {
        gathered = key >> 32;
        gather_stencil(pos, static_cast<std::size_t>(gathered), s);
      }
      fn(std::size_t{i}, stencil_row(pos[i], i, s));
    }
  }

  /// Neighbor CSR within the cutoff, both directions present, each row
  /// sorted ascending: offsets has natoms+1 entries, neighbors holds row i
  /// in [offsets[i], offsets[i+1]). This is the zero-copy path into
  /// sp::Adjacency::from_csr. One code path at every thread count: each
  /// chunk of the cell domain records its rows, then assemble_csr places
  /// them (rows are sorted, so the result does not depend on `threads`).
  void neighbor_csr(const std::vector<Vec3>& pos, unsigned threads,
                    std::vector<std::uint32_t>* offsets,
                    std::vector<std::uint32_t>* neighbors) const;

  /// Per-atom neighbor lists within the cutoff (both directions present).
  /// Kept for tests and ad-hoc callers; hot paths use neighbor_csr.
  std::vector<std::vector<std::uint32_t>> neighbor_lists(
      const std::vector<Vec3>& pos) const;

  bool using_cells() const { return use_cells_; }
  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }
  /// Builds performed so far (update() that found the structure still
  /// valid does not count) — observability for the Verlet-skin reuse rate.
  std::uint64_t builds() const { return builds_; }

 private:
  /// Row-visitor scratch: the gathered stencil's lanes, the distance tiles
  /// and the current row. Per call, so concurrent visitors share nothing.
  struct RowScratch {
    std::size_t m = 0;                    ///< gathered candidates
    Vec3 len, inv;                        ///< box lengths, reciprocals
    std::vector<double> x, y, z;          ///< stencil candidates, SoA
    std::vector<std::uint32_t> id;        ///< their atom indices
    std::vector<double> dx, dy, dz, r2;   ///< one home atom's distance tile
    std::vector<std::uint64_t> keys;      ///< survivors as (j << 32 | slot)
    std::vector<std::uint32_t> row_j;
    std::vector<double> row_r2;
    std::vector<Vec3> row_d;

    /// Size every lane for up to n candidates.
    void reserve(std::size_t n);
  };

  void configure(const Box& box);
  std::size_t cell_of(const Vec3& p) const;
  /// Gather the 27-cell stencil around cell c into s's candidate lanes.
  void gather_stencil(const std::vector<Vec3>& pos, std::size_t c,
                      RowScratch& s) const;
  /// Row of atom i (at pi) against the gathered stencil of its home cell.
  NeighborRow stencil_row(const Vec3& pi, std::uint32_t i,
                          RowScratch& s) const;
  /// Row of atom i by the O(n^2) scan with Box::min_image.
  NeighborRow naive_row(const std::vector<Vec3>& pos, std::size_t i,
                        RowScratch& s) const;

  Box box_;
  double cutoff_;
  double skin_;
  bool use_cells_ = false;
  std::size_t nx_ = 1, ny_ = 1, nz_ = 1;
  std::size_t natoms_ = 0;
  std::vector<std::uint32_t> cell_start_;  ///< CSR offsets, num_cells + 1
  std::vector<std::uint32_t> cell_atoms_;  ///< atom indices grouped by cell
  std::vector<std::uint32_t> atom_cell_;   ///< each atom's home cell
  std::size_t max_cell_atoms_ = 0;         ///< largest cell, sizes SoA tiles
  std::vector<Vec3> build_pos_;            ///< positions at last build (skin > 0)
  std::uint64_t builds_ = 0;
};

}  // namespace ioc::md
