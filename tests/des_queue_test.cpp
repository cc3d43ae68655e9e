#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "des/ladder_queue.h"
#include "des/time.h"
#include "util/rng.h"

namespace ioc::des {
namespace {

struct Ev {
  SimTime t = 0;
  std::uint64_t seq = 0;
};

/// Reference implementation: the binary heap with the exact (t, seq)
/// comparator Simulator used before the ladder queue. The property tests
/// assert the ladder pops the identical sequence.
struct RefQueue {
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> q;
  void push(Ev e) { q.push(e); }
  const Ev& top() const { return q.top(); }
  Ev pop() {
    Ev e = q.top();
    q.pop();
    return e;
  }
  bool empty() const { return q.empty(); }
  std::size_t size() const { return q.size(); }
};

TEST(LadderQueue, EmptyAndSize) {
  LadderQueue<Ev> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.emplace(5, 0);
  q.emplace(3, 1);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.min_time(), 3);
  EXPECT_EQ(q.pop().t, 3);
  EXPECT_EQ(q.min_time(), 5);
  EXPECT_EQ(q.pop().t, 5);
  EXPECT_TRUE(q.empty());
}

TEST(LadderQueue, BottomInsertAtEitherEndAndInTheMiddle) {
  // A top this small is sorted straight into bottom on the first pop; each
  // later push lands at a different place in that sorted bottom.
  LadderQueue<Ev> q;
  std::uint64_t seq = 0;
  for (SimTime t : {10, 20, 30, 40, 50}) q.emplace(t, seq++);
  EXPECT_EQ(q.pop().seq, 0u);  // frees a spare slot
  q.emplace(45, seq++);        // maximum end: every entry but 50 moves up
  q.emplace(5, seq++);         // minimum end: nothing moves
  q.emplace(30, seq++);        // middle, after the equal-timestamp 30 (FIFO)
  q.emplace(60, seq++);        // after bottom's maximum: staged in top
  ASSERT_EQ(q.size(), 8u);
  const std::vector<Ev> want = {{5, 6},  {20, 1}, {30, 2}, {30, 7},
                                {40, 3}, {45, 5}, {50, 4}, {60, 8}};
  for (const Ev& w : want) {
    const Ev e = q.pop();
    EXPECT_EQ(e.t, w.t);
    EXPECT_EQ(e.seq, w.seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(LadderQueue, EqualTimestampBurstPopsInSeqOrder) {
  // The FIFO tie-break the control plane's determinism relies on: a burst
  // at one timestamp must come back in push (seq) order, even when the
  // burst is large enough to force rung spawning and spread_top's
  // span==1 sort path.
  for (std::size_t burst : {1u, 2u, 63u, 64u, 65u, 5000u, 100000u}) {
    LadderQueue<Ev> q;
    for (std::uint64_t s = 0; s < burst; ++s) q.emplace(42, s);
    for (std::uint64_t s = 0; s < burst; ++s) {
      const Ev e = q.pop();
      ASSERT_EQ(e.t, 42) << "burst=" << burst;
      ASSERT_EQ(e.seq, s) << "burst=" << burst;
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(LadderQueue, MatchesHeapOnRandomHoldWorkload) {
  // The hold model: a random prefill, then every pop pushes about one
  // event at now + a random offset (the Simulator contract: never into the
  // past), so the queue keeps its size while the clock moves on through
  // fresh rungs. Offsets are mostly short with occasional long ones; one
  // pop in twenty is a schedule-now storm of up to eight events at offset
  // 0, one in five pushes nothing. Every popped (t, seq) must match.
  util::Rng rng(0xD5C0FFEEu);
  LadderQueue<Ev> ladder;
  RefQueue heap;
  std::uint64_t seq = 0;
  constexpr SimTime kPrefillSpan = 10000;
  for (std::size_t i = 0; i < 5000; ++i) {
    const Ev e{static_cast<SimTime>(rng.below(kPrefillSpan)), seq++};
    ladder.emplace(e.t, e.seq);
    heap.push(e);
  }
  SimTime now = 0;
  for (std::size_t i = 0; i < 60000; ++i) {
    ASSERT_EQ(ladder.size(), heap.size());
    const Ev a = ladder.pop();
    const Ev b = heap.pop();
    ASSERT_EQ(a.t, b.t) << "pop " << i;
    ASSERT_EQ(a.seq, b.seq) << "pop " << i;
    ASSERT_GE(a.t, now) << "time went backwards at pop " << i;
    now = a.t;
    const std::size_t kind = rng.below(20);
    const bool storm = kind == 0;
    const std::size_t npush = storm ? rng.below(9) : kind <= 16 ? 1 : 0;
    for (std::size_t p = 0; p < npush; ++p) {
      const SimTime offset =
          storm ? 0
                : static_cast<SimTime>(rng.below(1u << (1 + rng.below(17))));
      const Ev e{now + offset, seq++};
      ladder.emplace(e.t, e.seq);
      heap.push(e);
    }
  }
  // The clock left the prefill behind: the last pops took events pushed
  // from a moving clock, not the prefill's.
  EXPECT_GT(now, kPrefillSpan);
  while (!heap.empty()) {
    const Ev a = ladder.pop();
    const Ev b = heap.pop();
    ASSERT_EQ(a.t, b.t);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(ladder.empty());
}

TEST(LadderQueue, PushesAtNowAboveALongEqualTimestampRunMatchHeap) {
  // The bottom insert's worst case: a long run of equal timestamps at
  // "now" in the bottom, under a later event that keeps every push at now
  // in the bottom too. Such a push lands above the whole run (FIFO) and
  // moves all of it up one slot. Each step pops one event and pushes two
  // at now, so the run grows by one entry a step.
  constexpr std::size_t kRun = 4096;
  constexpr SimTime kNow = 3;
  LadderQueue<Ev> ladder;
  RefQueue heap;
  std::uint64_t seq = 0;
  auto push = [&](SimTime t) {
    ladder.emplace(t, seq);
    heap.push(Ev{t, seq++});
  };
  push(kNow);
  push(1000);
  for (std::size_t i = 0; i < kRun; ++i) {
    const Ev a = ladder.pop();
    const Ev b = heap.pop();
    ASSERT_EQ(a.t, kNow) << "step " << i;
    ASSERT_EQ(a.seq, b.seq) << "step " << i;
    push(kNow);
    push(kNow);
  }
  ASSERT_EQ(ladder.size(), kRun + 2);  // the run of kRun + 1, and 1000
  while (!heap.empty()) {
    const Ev a = ladder.pop();
    const Ev b = heap.pop();
    ASSERT_EQ(a.t, b.t);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(ladder.empty());
}

TEST(LadderQueue, MatchesHeapAcrossManySeeds) {
  // Shorter runs over many seeds to hit different rung/spread geometries.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    LadderQueue<Ev> ladder;
    RefQueue heap;
    std::uint64_t seq = 0;
    const std::size_t prefill = 1 + rng.below(3000);
    for (std::size_t i = 0; i < prefill; ++i) {
      const Ev e{static_cast<SimTime>(rng.below(1 + rng.below(10000))),
                 seq++};
      ladder.emplace(e.t, e.seq);
      heap.push(e);
    }
    SimTime now = 0;
    while (!heap.empty()) {
      const Ev a = ladder.pop();
      const Ev b = heap.pop();
      ASSERT_EQ(a.t, b.t) << "seed=" << seed;
      ASSERT_EQ(a.seq, b.seq) << "seed=" << seed;
      now = a.t;
      if (rng.chance(0.3)) {
        const Ev e{now + static_cast<SimTime>(rng.below(1000)), seq++};
        ladder.emplace(e.t, e.seq);
        heap.push(e);
      }
    }
    EXPECT_TRUE(ladder.empty()) << "seed=" << seed;
  }
}

TEST(LadderQueue, BoundedPopMatchesHeap) {
  // The pop Simulator::run_until uses. Prefills spawn nested rungs;
  // pushes land at now (storms), near now (the bottom) and far past the
  // prefill (top); and after each refused pop the clock moves to the
  // deadline, as run_until leaves it.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(seed);
    LadderQueue<Ev> ladder;
    RefQueue heap;
    const std::size_t prefill = 100 + rng.below(20000);
    // Far pushes would feed the queue forever: past this many events the
    // queue only drains.
    const std::uint64_t budget = 3 * prefill;
    std::uint64_t seq = 0;
    auto push = [&](SimTime t) {
      if (seq == budget) return;
      ladder.emplace(t, seq);
      heap.push(Ev{t, seq++});
    };
    // A quarter of the prefill in one narrow cluster, whose buckets
    // overflow and spawn a finer rung; the rest skewed toward the start.
    for (std::size_t i = 0; i < prefill; ++i) {
      push(static_cast<SimTime>(rng.chance(0.25)
                                    ? rng.below(1000)
                                    : rng.below(1 + rng.below(1000000))));
    }
    SimTime now = 0;
    std::size_t refusals = 0;
    while (!heap.empty()) {
      const SimTime deadline =
          now + static_cast<SimTime>(rng.below(1u << rng.below(14)));
      Ev e;
      while (ladder.pop_if_at_most(deadline, e)) {
        const Ev want = heap.pop();
        ASSERT_EQ(e.t, want.t) << "seed=" << seed;
        ASSERT_EQ(e.seq, want.seq) << "seed=" << seed;
        ASSERT_LE(e.t, deadline) << "seed=" << seed;
        ASSERT_EQ(ladder.size(), heap.size()) << "seed=" << seed;
        now = e.t;
        const std::size_t kind = rng.below(8);
        if (kind == 0) {
          for (std::size_t k = rng.below(4); k-- > 0;) push(now);
        } else if (kind == 1) {
          push(now + 1 + static_cast<SimTime>(rng.below(64)));
        } else if (kind == 2) {
          push(now + 1000000 + static_cast<SimTime>(rng.below(1000000)));
        }
      }
      // Refused: nothing popped, and the minimum is where it was.
      ASSERT_EQ(ladder.size(), heap.size()) << "seed=" << seed;
      if (!heap.empty()) {
        ++refusals;
        ASSERT_GT(heap.top().t, deadline) << "seed=" << seed;
        ASSERT_EQ(ladder.min_time(), heap.top().t) << "seed=" << seed;
        ASSERT_FALSE(ladder.pop_if_at_most(deadline, e)) << "seed=" << seed;
        ASSERT_EQ(ladder.size(), heap.size()) << "seed=" << seed;
        ASSERT_EQ(ladder.min_time(), heap.top().t) << "seed=" << seed;
      }
      now = deadline;
      if (rng.chance(0.5)) push(now + static_cast<SimTime>(rng.below(64)));
    }
    EXPECT_TRUE(ladder.empty()) << "seed=" << seed;
    EXPECT_GT(refusals, 0u) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace ioc::des
