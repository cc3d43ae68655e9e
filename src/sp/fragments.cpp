#include "sp/fragments.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "par/thread_pool.h"
#include "trace/kernel_span.h"

namespace ioc::sp {

namespace {

/// Plain union-find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace

FragmentSet find_fragments(const md::AtomData& atoms, const Adjacency& bonds,
                           unsigned threads, trace::TraceSink* sink) {
  const std::size_t n = atoms.size();
  trace::KernelSpan span(sink, "fragments", threads, static_cast<double>(n));
  UnionFind uf(n);
  // Canonical ids make every thread count equivalent, so clamping small
  // inputs to the serial bond pass changes latency, not results.
  threads = par::grain_limited_threads(threads, n);
  if (threads <= 1 || n < 2) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j : bonds.neighbors_of(i)) {
        if (j > i) uf.unite(i, j);
      }
    }
  } else {
    // Parallel bond pass: each chunk runs the edges of its atom range
    // through a private union-find (no shared writes), then the partial
    // forests fold into `uf` in chunk order. Components — and, because ids
    // are canonicalized below, the final FragmentSet — match the serial
    // pass for every thread count.
    const unsigned chunks =
        static_cast<unsigned>(std::min<std::size_t>(threads, n));
    std::vector<UnionFind> partial(chunks, UnionFind(n));
    par::parallel_for(chunks, n, [&](std::size_t b, std::size_t e,
                                     unsigned c) {
      UnionFind& local = partial[c];
      for (std::size_t i = b; i < e; ++i) {
        for (std::uint32_t j : bonds.neighbors_of(static_cast<std::uint32_t>(i))) {
          if (j > i) local.unite(static_cast<std::uint32_t>(i), j);
        }
      }
    });
    for (unsigned c = 0; c < chunks; ++c) {
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t r = partial[c].find(i);
        if (r != i) uf.unite(i, r);
      }
    }
  }
  std::map<std::uint32_t, std::vector<std::uint32_t>> roots;
  for (std::uint32_t i = 0; i < n; ++i) {
    roots[uf.find(i)].push_back(i);
  }
  // Canonical ordering: components sorted by their smallest atom index
  // (members are ascending, so that is the front). Root values depend on
  // union order — and therefore on the thread count — but this ordering
  // does not.
  std::vector<std::vector<std::uint32_t>> components;
  components.reserve(roots.size());
  for (auto& [root, members] : roots) components.push_back(std::move(members));
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });

  FragmentSet set;
  set.atom_fragment.assign(n, 0);
  std::uint32_t next = 0;
  for (auto& members : components) {
    Fragment f;
    f.id = next++;
    f.atoms = std::move(members);
    // Centroid via minimum-image offsets from the first member, so a
    // fragment wrapped around the periodic boundary is not smeared.
    const md::Vec3 anchor = atoms.pos[f.atoms.front()];
    md::Vec3 sum{};
    for (std::uint32_t idx : f.atoms) {
      sum += atoms.box.min_image(atoms.pos[idx], anchor);
    }
    f.centroid =
        atoms.box.wrap(anchor + sum * (1.0 / static_cast<double>(f.size())));
    for (std::uint32_t idx : f.atoms) set.atom_fragment[idx] = f.id;
    set.fragments.push_back(std::move(f));
  }
  std::sort(set.fragments.begin(), set.fragments.end(),
            [](const Fragment& a, const Fragment& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.id < b.id;
            });
  return set;
}

const char* fragment_event_name(FragmentEvent::Kind k) {
  switch (k) {
    case FragmentEvent::Kind::kContinued: return "continued";
    case FragmentEvent::Kind::kSplit: return "split";
    case FragmentEvent::Kind::kMerged: return "merged";
    case FragmentEvent::Kind::kAppeared: return "appeared";
    case FragmentEvent::Kind::kVanished: return "vanished";
  }
  return "?";
}

std::vector<FragmentEvent> FragmentTracker::track(const md::AtomData& atoms,
                                                  FragmentSet& current) {
  ++steps_;
  std::vector<FragmentEvent> events;

  // For each current fragment, tally which previous tracking ids its atoms
  // came from.
  struct Match {
    std::map<std::uint32_t, std::size_t> votes;  // prev id -> atom count
    std::size_t unmatched = 0;
  };
  std::vector<Match> matches(current.count());
  for (std::size_t fi = 0; fi < current.count(); ++fi) {
    for (std::uint32_t idx : current.fragments[fi].atoms) {
      auto it = prev_membership_.find(atoms.id[idx]);
      if (it == prev_membership_.end()) {
        ++matches[fi].unmatched;
      } else {
        ++matches[fi].votes[it->second];
      }
    }
  }

  // Assign stable ids: the previous fragment contributing the most atoms
  // claims the id; ties and leftovers get fresh ids. Track how many current
  // fragments each previous id feeds (for split detection) and how many
  // previous ids each current fragment absorbed (merge detection).
  std::map<std::uint32_t, std::vector<std::size_t>> prev_to_curr;
  std::set<std::uint32_t> claimed;
  for (std::size_t fi = 0; fi < current.count(); ++fi) {
    std::uint32_t best = 0;
    std::size_t best_votes = 0;
    for (const auto& [pid, v] : matches[fi].votes) {
      prev_to_curr[pid].push_back(fi);
      if (v > best_votes || (v == best_votes && pid < best)) {
        best = pid;
        best_votes = v;
      }
    }
    FragmentEvent ev;
    if (best_votes == 0) {
      current.fragments[fi].id = next_id_++;
      ev.kind = FragmentEvent::Kind::kAppeared;
    } else if (claimed.insert(best).second) {
      current.fragments[fi].id = best;
      ev.kind = matches[fi].votes.size() > 1
                    ? FragmentEvent::Kind::kMerged
                    : FragmentEvent::Kind::kContinued;
      for (const auto& [pid, v] : matches[fi].votes) ev.parents.push_back(pid);
    } else {
      // The majority parent was already claimed: this is a split shard.
      current.fragments[fi].id = next_id_++;
      ev.kind = FragmentEvent::Kind::kSplit;
      ev.parents.push_back(best);
    }
    ev.id = current.fragments[fi].id;
    if (steps_ > 1 && ev.kind != FragmentEvent::Kind::kContinued) {
      events.push_back(std::move(ev));
    }
  }

  // Previous fragments with no descendant vanished.
  if (steps_ > 1) {
    std::set<std::uint32_t> prev_ids;
    for (const auto& [aid, pid] : prev_membership_) prev_ids.insert(pid);
    for (std::uint32_t pid : prev_ids) {
      if (prev_to_curr.find(pid) == prev_to_curr.end()) {
        FragmentEvent ev;
        ev.kind = FragmentEvent::Kind::kVanished;
        ev.id = pid;
        events.push_back(std::move(ev));
      }
    }
  }

  // Refresh membership for the next step.
  prev_membership_.clear();
  for (const auto& f : current.fragments) {
    for (std::uint32_t idx : f.atoms) {
      prev_membership_[atoms.id[idx]] = f.id;
    }
    next_id_ = std::max(next_id_, f.id + 1);
  }
  // Rebuild the atom->fragment map with the stable ids.
  for (const auto& f : current.fragments) {
    for (std::uint32_t idx : f.atoms) current.atom_fragment[idx] = f.id;
  }
  return events;
}

}  // namespace ioc::sp
