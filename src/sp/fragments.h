// Material-fragment detection and tracking — the workflow the paper's
// future work moves online for the CTH shock-physics code: "turning the raw
// atomic data into materials fragments to allow tracking... both generating
// fragments and tracking them as they evolve in the simulation."
//
// A fragment is a connected component of the bond graph; tracking matches
// fragments across timesteps by the atom ids they share.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "md/atoms.h"
#include "sp/adjacency.h"
#include "trace/sink.h"

namespace ioc::sp {

struct Fragment {
  std::uint32_t id = 0;                   ///< stable tracking id
  std::vector<std::uint32_t> atoms;       ///< atom indices, ascending
  md::Vec3 centroid{};
  std::size_t size() const { return atoms.size(); }
};

struct FragmentSet {
  std::vector<Fragment> fragments;        ///< sorted by descending size
  std::vector<std::uint32_t> atom_fragment;  ///< atom index -> fragment id

  std::size_t count() const { return fragments.size(); }
  const Fragment* largest() const {
    return fragments.empty() ? nullptr : &fragments.front();
  }
};

/// Decompose the bond graph into fragments (connected components via
/// union-find) and compute per-fragment geometry. `threads` parallelizes
/// the bond pass (per-chunk local union-find over atom ranges, merged in
/// chunk order); fragment ids are canonical — ordered by each component's
/// smallest atom index — so every thread count yields the same FragmentSet.
/// An optional sink records a kernel.compute span per invocation.
FragmentSet find_fragments(const md::AtomData& atoms, const Adjacency& bonds,
                           unsigned threads = 1,
                           trace::TraceSink* sink = nullptr);

/// What happened to the fragment population between two steps.
struct FragmentEvent {
  enum class Kind { kContinued, kSplit, kMerged, kAppeared, kVanished };
  Kind kind = Kind::kContinued;
  std::uint32_t id = 0;                   ///< id in the current step
  std::vector<std::uint32_t> parents;     ///< previous-step ids involved
};
const char* fragment_event_name(FragmentEvent::Kind k);

/// Tracks fragments across successive steps: assigns stable ids by majority
/// atom overlap (fragments are matched to the previous-step fragment that
/// contributed most of their atoms) and reports split/merge events.
class FragmentTracker {
 public:
  /// Ingest the next step's fragment decomposition; rewrites the set's ids
  /// to stable tracking ids and returns the events since the previous step.
  std::vector<FragmentEvent> track(const md::AtomData& atoms,
                                   FragmentSet& current);

  std::uint32_t next_id() const { return next_id_; }

 private:
  // Previous step: atom id -> fragment tracking id.
  std::map<std::int64_t, std::uint32_t> prev_membership_;
  std::uint32_t next_id_ = 1;
  std::uint64_t steps_ = 0;
};

}  // namespace ioc::sp
