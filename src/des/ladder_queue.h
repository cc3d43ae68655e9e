// Ladder queue: the event queue behind des::Simulator. A binary heap costs
// O(log n) per operation with a poor constant (every push/pop churns the
// comparator across scattered cache lines); at fleet scale — thousands of
// pipelines, hundreds of thousands of pending timers/heartbeats — the queue
// dominates control-plane time. The ladder structure (Tang & Goh, "Ladder
// queue: An O(1) priority queue structure for large-scale discrete event
// simulation") gives amortized O(1) push/pop by bucketing events by
// timestamp and only ever sorting one small bucket at a time.
//
// Three tiers, earliest to latest:
//   bottom_ : the committed next events, sorted descending by (t, seq) in
//             bottom_[0, live_), so bottom_[live_ - 1] is the minimum and a
//             pop is `--live_`. At most ~one bucket's worth. Deliberately a
//             sorted array, not a heap: most pushes in a cascading
//             simulation are near-"now" events that land close to the
//             minimum end, so an insert shifts the few entries earlier than
//             it up one slot, from that end, and writes the event into the
//             gap — measured faster than a heap's full-depth sifts on both
//             insert and every pop. Slots past live_ are spare: the array
//             never shrinks between refills.
//   rungs_  : arrays of timestamp buckets. rungs_[k+1] refines one bucket of
//             rungs_[k] with a smaller bucket width, spawned lazily when a
//             bucket is too big to sort outright. Rung spans form a nested
//             chain, so routing a push is a walk from the deepest rung up.
//   top_    : unsorted staging for events at or beyond top_start_ (or any
//             event arriving while no rung exists). Spread into a fresh
//             rung, sized from its actual min/max, when everything earlier
//             has drained.
//
// Ordering contract (the one Simulator relies on for determinism): pops are
// strictly ordered by (t, seq) with seq the monotone scheduling sequence
// number — FIFO among equal timestamps. Every structural decision (bucket
// counts, widths, when to refine) is a pure function of the pushed
// (t, seq) values, so replay determinism survives the swap from the heap
// (DESIGN.md §15).
//
// Every event is built in the slot where it lands: emplace(t, seq, rest...)
// constructs T{t, seq, rest...} there (a bottom slot, a rung bucket or top),
// so no caller builds an entry to be copied in again. GCC stores such an
// entry in 8-byte pieces and copies it in 16-byte halves, and a 16-byte load
// that spans two pending 8-byte stores waits until they reach the cache (a
// store-to-load forwarding stall on every push).
//
// T is a trivially copyable aggregate whose first two members are `t`
// (SimTime) and `seq` (unique std::uint64_t): entries move by plain copies,
// and a spare bottom slot is built over without destroying what it held.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/time.h"

namespace ioc::des {

template <class T>
class LadderQueue {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Queue the event T{t, seq, rest...}, constructed in its final slot.
  template <class... Rest>
  void emplace(SimTime t, std::uint64_t seq, Rest&&... rest) {
    ++size_;
    if (live_ != 0 && earlier(t, seq, bottom_[0])) {
      // Earlier than the latest committed event: merge into bottom so the
      // pop order stays exact.
      std::construct_at(open_bottom_slot(t, seq), t, seq,
                        std::forward<Rest>(rest)...);
      return;
    }
    if (!rungs_.empty() && t < top_start_) {
      // Walk from the deepest (finest) rung up to the first whose span
      // covers t. Spans are nested, so a miss below the deepest span can
      // only mean "earlier than every pending bucket" — that goes to
      // bottom; a miss above means a shallower rung covers it.
      for (std::size_t r = rungs_.size(); r-- > 0;) {
        Rung& rung = rungs_[r];
        const SimTime span_end =
            rung.start + static_cast<SimTime>(rung.width) *
                             static_cast<SimTime>(rung.buckets.size());
        if (t >= span_end) continue;
        if (t >= rung.start) {
          const auto idx = static_cast<std::size_t>(
              (t - rung.start) / static_cast<SimTime>(rung.width));
          if (idx >= rung.cur) {
            rung.buckets[idx].emplace_back(t, seq,
                                           std::forward<Rest>(rest)...);
            return;
          }
          // Buckets before cur already drained (they are empty); the event
          // precedes everything still pending. Fall through to bottom.
        }
        break;
      }
      std::construct_at(open_bottom_slot(t, seq), t, seq,
                        std::forward<Rest>(rest)...);
      return;
    }
    top_.emplace_back(t, seq, std::forward<Rest>(rest)...);
  }

  /// Timestamp of the next event; undefined when empty().
  SimTime min_time() {
    refill_bottom();
    return bottom_[live_ - 1].t;
  }

  T pop() {
    refill_bottom();
    --size_;
    return bottom_[--live_];
  }

  /// Pop the minimum into `out` if its timestamp is <= `deadline`; returns
  /// false (leaving the queue untouched) otherwise or when empty. Lets a
  /// bounded run loop pay for one refill per event instead of two
  /// (min_time() + pop()).
  bool pop_if_at_most(SimTime deadline, T& out) {
    refill_bottom();
    if (live_ == 0 || bottom_[live_ - 1].t > deadline) return false;
    out = bottom_[--live_];
    --size_;
    return true;
  }

 private:
  struct Rung {
    SimTime start = 0;
    std::uint64_t width = 1;       ///< bucket width in time units
    std::size_t cur = 0;           ///< buckets before this index are drained
    std::vector<std::vector<T>> buckets;
  };

  /// Sort a bucket only up to this size; bigger buckets spawn a finer rung
  /// first (unless the width is already 1 time unit or the depth cap hit,
  /// where sorting is the only option left).
  static constexpr std::size_t kSortThreshold = 64;
  static constexpr std::size_t kMaxBuckets = 4096;
  /// Widths at least halve per rung, so 48 rungs cover any int64 span; the
  /// cap only guards against pathological adversarial inputs.
  static constexpr std::size_t kMaxRungs = 48;

  /// Does the event (t, seq) pop before `e`?
  static bool earlier(SimTime t, std::uint64_t seq, const T& e) {
    if (t != e.t) return t < e.t;
    return seq < e.seq;
  }

  /// Make room in bottom for the event (t, seq) and return its slot: every
  /// live entry earlier than it moves up one slot, from the minimum end.
  T* open_bottom_slot(SimTime t, std::uint64_t seq) {
    if (live_ == bottom_.size()) bottom_.emplace_back();
    T* slots = bottom_.data();
    std::size_t gap = live_++;
    while (gap != 0 && !earlier(t, seq, slots[gap - 1])) {
      slots[gap] = slots[gap - 1];
      --gap;
    }
    return slots + gap;
  }

  void sort_into_bottom(std::vector<T>& events) {
    bottom_.swap(events);
    events.clear();
    live_ = bottom_.size();
    std::sort(bottom_.begin(), bottom_.end(), [](const T& a, const T& b) {
      return earlier(b.t, b.seq, a);
    });
  }

  /// Scatter `events` spanning [start, start + width) into a new finest
  /// rung. Bucket count and width depend only on the event count and span.
  void spawn_rung(std::vector<T>& events, SimTime start, std::uint64_t width) {
    Rung r;
    r.start = start;
    const std::uint64_t target =
        std::clamp<std::uint64_t>(events.size(), 2, kMaxBuckets);
    r.width = std::max<std::uint64_t>(1, (width + target - 1) / target);
    const std::uint64_t nbuckets = (width + r.width - 1) / r.width;
    r.buckets.assign(static_cast<std::size_t>(nbuckets), {});
    for (auto& e : events) {
      const auto idx = static_cast<std::size_t>(
          (e.t - start) / static_cast<SimTime>(r.width));
      r.buckets[idx].push_back(std::move(e));
    }
    events.clear();
    rungs_.push_back(std::move(r));
  }

  void spread_top() {
    SimTime tmin = top_.front().t;
    SimTime tmax = top_.front().t;
    for (const T& e : top_) {
      tmin = std::min(tmin, e.t);
      tmax = std::max(tmax, e.t);
    }
    top_start_ = tmax < std::numeric_limits<SimTime>::max() ? tmax + 1 : tmax;
    const auto span =
        static_cast<std::uint64_t>(tmax - tmin) + 1;  // >= 1, no overflow
    if (top_.size() <= kSortThreshold || span == 1) {
      // Small, or an equal-timestamp burst a rung cannot split further:
      // sort directly. Equal timestamps order by seq — FIFO preserved.
      sort_into_bottom(top_);
      return;
    }
    spawn_rung(top_, tmin, span);
  }

  void refill_bottom() {
    while (live_ == 0) {
      if (!rungs_.empty()) {
        Rung& rung = rungs_.back();
        // Re-check the current bucket first: it may have received pushes
        // since its last drain. Only advance past genuinely empty ones.
        while (rung.cur < rung.buckets.size() &&
               rung.buckets[rung.cur].empty()) {
          ++rung.cur;
        }
        if (rung.cur == rung.buckets.size()) {
          rungs_.pop_back();
          continue;
        }
        auto& bucket = rung.buckets[rung.cur];
        if (bucket.size() > kSortThreshold && rung.width >= 2 &&
            rungs_.size() < kMaxRungs) {
          // Too big to sort: refine. The new width is strictly smaller, so
          // refinement terminates (at width 1 a bucket holds one timestamp
          // and sorting is O(k log k) on seq only).
          const SimTime b_start =
              rung.start + static_cast<SimTime>(rung.cur) *
                               static_cast<SimTime>(rung.width);
          spawn_rung(bucket, b_start, rung.width);
          continue;
        }
        sort_into_bottom(bucket);
      } else if (!top_.empty()) {
        spread_top();
      } else {
        return;  // queue empty; callers check empty() first
      }
    }
  }

  std::vector<T> bottom_;    ///< [0, live_) sorted descending; then spare
  std::size_t live_ = 0;     ///< live entries in bottom_
  std::vector<Rung> rungs_;  ///< nested refinements, coarsest first
  std::vector<T> top_;       ///< unsorted staging beyond top_start_
  SimTime top_start_ = std::numeric_limits<SimTime>::min();
  std::size_t size_ = 0;
};

}  // namespace ioc::des
