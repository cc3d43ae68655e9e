#include "sp/helper.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace ioc::sp {

AggregationTree::AggregationTree(std::size_t fanin) : fanin_(fanin) {
  assert(fanin >= 2);
}

std::size_t AggregationTree::depth_for(std::size_t leaves) const {
  std::size_t depth = 0;
  std::size_t width = leaves;
  while (width > 1) {
    width = (width + fanin_ - 1) / fanin_;
    ++depth;
  }
  return depth;
}

md::AtomData AggregationTree::aggregate(
    std::vector<md::AtomData> chunks) const {
  if (chunks.empty()) return {};
  // Combine level by level, the way the physical tree does; the result is
  // identical to straight concatenation but the structure mirrors the cost
  // model's depth term.
  std::vector<md::AtomData> level = std::move(chunks);
  while (level.size() > 1) {
    std::vector<md::AtomData> next;
    next.reserve((level.size() + fanin_ - 1) / fanin_);
    for (std::size_t i = 0; i < level.size(); i += fanin_) {
      const std::size_t end = std::min(level.size(), i + fanin_);
      md::AtomData merged = std::move(level[i]);
      std::size_t total = merged.size();
      for (std::size_t k = i + 1; k < end; ++k) {
        const md::AtomData& c = level[k];
        if (c.box.lo.x != merged.box.lo.x || c.box.hi.x != merged.box.hi.x ||
            c.box.hi.y != merged.box.hi.y || c.box.hi.z != merged.box.hi.z) {
          throw std::invalid_argument(
              "AggregationTree: chunks disagree on the simulation box");
        }
        total += c.size();
      }
      merged.reserve(total);
      for (std::size_t k = i + 1; k < end; ++k) {
        const md::AtomData& c = level[k];
        merged.id.insert(merged.id.end(), c.id.begin(), c.id.end());
        merged.pos.insert(merged.pos.end(), c.pos.begin(), c.pos.end());
        merged.vel.insert(merged.vel.end(), c.vel.begin(), c.vel.end());
        merged.force.insert(merged.force.end(), c.force.begin(),
                            c.force.end());
      }
      next.push_back(std::move(merged));
    }
    level = std::move(next);
  }
  return std::move(level.front());
}

std::vector<md::AtomData> AggregationTree::scatter(const md::AtomData& atoms,
                                                   std::size_t parts) {
  std::vector<md::AtomData> out(parts);
  const std::size_t n = atoms.size();
  const std::size_t per = (n + parts - 1) / parts;
  for (std::size_t p = 0; p < parts; ++p) {
    out[p].box = atoms.box;
    const auto b = static_cast<std::ptrdiff_t>(std::min(n, p * per));
    const auto e = static_cast<std::ptrdiff_t>(std::min(n, p * per + per));
    out[p].id.assign(atoms.id.begin() + b, atoms.id.begin() + e);
    out[p].pos.assign(atoms.pos.begin() + b, atoms.pos.begin() + e);
    out[p].vel.assign(atoms.vel.begin() + b, atoms.vel.begin() + e);
    out[p].force.assign(atoms.force.begin() + b, atoms.force.begin() + e);
  }
  return out;
}

}  // namespace ioc::sp
