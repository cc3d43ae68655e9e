#include "md/cells.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "par/thread_pool.h"

namespace ioc::md {

CellList::CellList(const Box& box, double cutoff, double skin)
    : box_(box), cutoff_(cutoff), skin_(skin) {
  configure(box);
}

void CellList::configure(const Box& box) {
  box_ = box;
  const Vec3 len = box.extent();
  const double bin = cutoff_ + skin_;
  nx_ = static_cast<std::size_t>(std::floor(len.x / bin));
  ny_ = static_cast<std::size_t>(std::floor(len.y / bin));
  nz_ = static_cast<std::size_t>(std::floor(len.z / bin));
  // A 3x3x3 stencil needs at least 3 cells per periodic dimension.
  use_cells_ = nx_ >= 3 && ny_ >= 3 && nz_ >= 3;
  if (!use_cells_) {
    nx_ = ny_ = nz_ = 1;
  }
}

std::size_t CellList::cell_of(const Vec3& p) const {
  const Vec3 q = box_.wrap(p);
  const Vec3 len = box_.extent();
  auto idx = [](double v, double lo, double len, std::size_t n) {
    auto i = static_cast<std::int64_t>((v - lo) / len * static_cast<double>(n));
    if (i < 0) i = 0;
    if (i >= static_cast<std::int64_t>(n)) i = static_cast<std::int64_t>(n) - 1;
    return static_cast<std::size_t>(i);
  };
  const std::size_t ix = idx(q.x, box_.lo.x, len.x, nx_);
  const std::size_t iy = idx(q.y, box_.lo.y, len.y, ny_);
  const std::size_t iz = idx(q.z, box_.lo.z, len.z, nz_);
  return (ix * ny_ + iy) * nz_ + iz;
}

void CellList::build(const std::vector<Vec3>& pos) {
  natoms_ = pos.size();
  ++builds_;
  const std::size_t ncells = nx_ * ny_ * nz_;
  // Counting sort into the CSR arrays. Scattering atoms in ascending index
  // order keeps each cell's atoms ascending, which keeps pair enumeration
  // order (and therefore serial floating-point sums) identical to the
  // historical vector-of-vectors layout.
  atom_cell_.resize(natoms_);
  cell_start_.assign(ncells + 1, 0);
  for (std::size_t i = 0; i < natoms_; ++i) {
    const std::size_t c = cell_of(pos[i]);
    atom_cell_[i] = static_cast<std::uint32_t>(c);
    ++cell_start_[c + 1];
  }
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_atoms_.resize(natoms_);
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < natoms_; ++i) {
    cell_atoms_[cursor[atom_cell_[i]]++] = static_cast<std::uint32_t>(i);
  }
  max_cell_atoms_ = 0;
  for (std::size_t c = 0; c < ncells; ++c) {
    max_cell_atoms_ = std::max<std::size_t>(max_cell_atoms_,
                                            cell_start_[c + 1] - cell_start_[c]);
  }
  if (skin_ > 0.0) build_pos_ = pos;
}

bool CellList::update(const Box& box, const std::vector<Vec3>& pos) {
  const Vec3 a = box.lo - box_.lo;
  const Vec3 b = box.hi - box_.hi;
  const bool box_changed = a.norm2() != 0.0 || b.norm2() != 0.0;
  bool need = box_changed || skin_ <= 0.0 || pos.size() != build_pos_.size();
  if (!need) {
    // Half-skin criterion: a pair can close the cutoff gap only after the
    // two atoms together drift a full skin, i.e. one of them exceeds skin/2.
    const double limit2 = 0.25 * skin_ * skin_;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      if (box_.min_image(pos[i], build_pos_[i]).norm2() > limit2) {
        need = true;
        break;
      }
    }
  }
  if (!need) return false;
  if (box_changed) configure(box);
  build(pos);
  return true;
}

void CellList::RowScratch::reserve(std::size_t n) {
  if (x.size() >= n) return;
  for (auto* v : {&x, &y, &z, &dx, &dy, &dz, &r2, &row_r2}) v->resize(n);
  id.resize(n);
  keys.resize(n);
  row_j.resize(n);
  row_d.resize(n);
}

void CellList::gather_stencil(const std::vector<Vec3>& pos, std::size_t c,
                              RowScratch& s) const {
  s.reserve(27 * max_cell_atoms_);
  s.len = box_.extent();
  s.inv = {1.0 / s.len.x, 1.0 / s.len.y, 1.0 / s.len.z};
  const std::size_t cz = c % nz_;
  const std::size_t cy = (c / nz_) % ny_;
  const std::size_t cx = c / (ny_ * nz_);
  // The three neighbouring bins along an axis in ascending order after the
  // periodic wrap, so candidates arrive in cell order, which tracks atom
  // order for lattice-built inputs and keeps the per-row sort short.
  auto around = [](std::size_t v, std::size_t n) -> std::array<std::size_t, 3> {
    if (v == 0) return {0, 1, n - 1};
    if (v == n - 1) return {0, n - 2, n - 1};
    return {v - 1, v, v + 1};
  };
  // Along z a column's three stencil bins are adjacent in the CSR arrays:
  // one slice of bins, or two in ascending order where the column wraps.
  using Slice = std::pair<std::size_t, std::size_t>;
  std::array<Slice, 2> zr{Slice{cz - 1, cz + 2}, Slice{0, 0}};
  if (cz == 0) zr = {Slice{0, 2}, Slice{nz_ - 1, nz_}};
  if (cz == nz_ - 1) zr = {Slice{0, 1}, Slice{nz_ - 2, nz_}};
  std::size_t m = 0;
  for (std::size_t ox : around(cx, nx_)) {
    for (std::size_t oy : around(cy, ny_)) {
      const std::size_t column = (ox * ny_ + oy) * nz_;
      for (const auto& [z0, z1] : zr) {
        const std::uint32_t a1 = cell_start_[column + z1];
        for (std::uint32_t a = cell_start_[column + z0]; a < a1; ++a, ++m) {
          const std::uint32_t j = cell_atoms_[a];
          s.x[m] = pos[j].x;
          s.y[m] = pos[j].y;
          s.z[m] = pos[j].z;
          s.id[m] = j;
        }
      }
    }
  }
  s.m = m;
}

namespace {

/// Branchless distance pass of home atom `pi` over m candidates; it
/// vectorizes. The wrap is the pair visitor's, applied to pos[j] - pos[i] —
/// the exact negation of the pair visitor's pos[i] - pos[j] — so each
/// surviving displacement is bitwise Box::min_image(pos[j], pos[i])
/// (docs/PERFORMANCE.md "Neighbour rows"). The restrict-qualified tiles
/// spare the vectorizer twelve run-time overlap checks it would otherwise
/// give up on.
void distance_tile(const double* __restrict xs, const double* __restrict ys,
                   const double* __restrict zs, std::size_t m, Vec3 pi,
                   Vec3 len, Vec3 inv, double* __restrict tdx,
                   double* __restrict tdy, double* __restrict tdz,
                   double* __restrict tr2) {
  for (std::size_t k = 0; k < m; ++k) {
    double dx = xs[k] - pi.x;
    double dy = ys[k] - pi.y;
    double dz = zs[k] - pi.z;
    dx -= len.x * std::nearbyint(dx * inv.x);
    dy -= len.y * std::nearbyint(dy * inv.y);
    dz -= len.z * std::nearbyint(dz * inv.z);
    tdx[k] = dx;
    tdy[k] = dy;
    tdz[k] = dz;
    tr2[k] = dx * dx + dy * dy + dz * dz;
  }
}

}  // namespace

NeighborRow CellList::stencil_row(const Vec3& pi, std::uint32_t i,
                                  RowScratch& s) const {
  const double rc2 = cutoff_ * cutoff_;
  const std::size_t m = s.m;
  distance_tile(s.x.data(), s.y.data(), s.z.data(), m, pi, s.len, s.inv,
                s.dx.data(), s.dy.data(), s.dz.data(), s.r2.data());
  const double* tdx = s.dx.data();
  const double* tdy = s.dy.data();
  const double* tdz = s.dz.data();
  const double* tr2 = s.r2.data();
  // Keep survivors without a branch, keyed (j << 32 | slot) so the row
  // sorts by atom index with plain integer compares.
  const std::uint32_t* ids = s.id.data();
  std::uint64_t* keys = s.keys.data();
  std::size_t n = 0;
  for (std::size_t k = 0; k < m; ++k) {
    keys[n] = std::uint64_t{ids[k]} << 32 | k;
    n += static_cast<std::size_t>((tr2[k] <= rc2) & (ids[k] != i));
  }
  // Insertion sort: rows are short and arrive nearly ordered.
  for (std::size_t t = 1; t < n; ++t) {
    const std::uint64_t v = keys[t];
    std::size_t u = t;
    for (; u > 0 && keys[u - 1] > v; --u) keys[u] = keys[u - 1];
    keys[u] = v;
  }
  for (std::size_t t = 0; t < n; ++t) {
    const auto k = static_cast<std::uint32_t>(keys[t]);
    s.row_j[t] = ids[k];
    s.row_r2[t] = tr2[k];
    s.row_d[t] = {tdx[k], tdy[k], tdz[k]};
  }
  return {s.row_j.data(), s.row_r2.data(), s.row_d.data(), n};
}

NeighborRow CellList::naive_row(const std::vector<Vec3>& pos, std::size_t i,
                                RowScratch& s) const {
  // The box may be under three cutoffs wide here, where only the division
  // form of the wrap is exact: use Box::min_image itself.
  s.reserve(pos.size());
  const double rc2 = cutoff_ * cutoff_;
  std::size_t n = 0;
  for (std::size_t j = 0; j < pos.size(); ++j) {
    if (j == i) continue;
    const Vec3 d = box_.min_image(pos[j], pos[i]);
    const double r2 = d.norm2();
    if (r2 <= rc2) {
      s.row_j[n] = static_cast<std::uint32_t>(j);
      s.row_r2[n] = r2;
      s.row_d[n] = d;
      ++n;
    }
  }
  return {s.row_j.data(), s.row_r2.data(), s.row_d.data(), n};
}

void assemble_csr(std::size_t natoms, std::span<const RowBuffer> parts,
                  std::vector<std::uint32_t>* offsets,
                  std::vector<std::uint32_t>* neighbors) {
  offsets->assign(natoms + 1, 0);
  for (const RowBuffer& p : parts) {
    for (std::size_t k = 0; k < p.atoms.size(); ++k) {
      (*offsets)[p.atoms[k] + 1] = p.sizes[k];
    }
  }
  for (std::size_t i = 0; i < natoms; ++i) (*offsets)[i + 1] += (*offsets)[i];
  neighbors->resize((*offsets)[natoms]);
  for (const RowBuffer& p : parts) {
    const std::uint32_t* src = p.ids.data();
    for (std::size_t k = 0; k < p.atoms.size(); ++k) {
      std::copy_n(src, p.sizes[k], neighbors->data() + (*offsets)[p.atoms[k]]);
      src += p.sizes[k];
    }
  }
}

void CellList::neighbor_csr(const std::vector<Vec3>& pos, unsigned threads,
                            std::vector<std::uint32_t>* offsets,
                            std::vector<std::uint32_t>* neighbors) const {
  // Below the grain threshold one chunk wins outright (no pool dispatch);
  // the result is identical either way, so the clamp is purely a latency
  // decision.
  threads = par::grain_limited_threads(threads, pos.size());
  std::vector<RowBuffer> parts(threads);
  par::parallel_for(threads, range_size(), [&](std::size_t b, std::size_t e,
                                               unsigned c) {
    RowBuffer& part = parts[c];
    for_each_row_range(pos, b, e, [&part](std::size_t i,
                                          const NeighborRow& row) {
      part.add(i, row);
    });
  });
  assemble_csr(pos.size(), parts, offsets, neighbors);
}

std::vector<std::vector<std::uint32_t>> CellList::neighbor_lists(
    const std::vector<Vec3>& pos) const {
  std::vector<std::vector<std::uint32_t>> nl(pos.size());
  for_each_pair(pos, [&](std::size_t i, std::size_t j, double) {
    nl[i].push_back(static_cast<std::uint32_t>(j));
    nl[j].push_back(static_cast<std::uint32_t>(i));
  });
  return nl;
}

}  // namespace ioc::md
