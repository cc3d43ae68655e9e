// Property-style stress tests of the discrete-event core: heavy fan-in/out,
// fairness, cancellation, and invariants under randomized (but seeded)
// workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <vector>

#include "des/event.h"
#include "des/process.h"
#include "des/queue.h"
#include "des/semaphore.h"
#include "des/simulator.h"
#include "util/rng.h"

namespace ioc::des {
namespace {

des::Process producer_burst(Simulator& sim, Queue<int>& q, int base, int n,
                            util::Rng rng) {
  for (int i = 0; i < n; ++i) {
    co_await delay(sim, static_cast<SimTime>(rng.below(50)));
    q.try_put(base + i);
  }
}

des::Process consumer_all(Queue<int>& q, std::vector<int>* out) {
  while (auto v = co_await q.get()) out->push_back(*v);
}

struct FanParam {
  int producers;
  int per_producer;
  int consumers;
};

// gtest prints a struct param as its raw bytes, padding included, and
// gtest_discover_tests names each ctest entry by that printed value, so the
// names would change from build to build. Spell the fields out instead; the
// ctest entry then reads .../p8_n50_c8_cap0 (cap0: the queue is unbounded,
// and the suffix keeps the entries' names stable).
void PrintTo(const FanParam& p, std::ostream* os) {
  *os << "p" << p.producers << "_n" << p.per_producer << "_c" << p.consumers
      << "_cap0";
}

class QueueFan : public ::testing::TestWithParam<FanParam> {};

TEST_P(QueueFan, NoLossNoDuplication) {
  const auto p = GetParam();
  Simulator sim;
  Queue<int> q(sim);
  std::vector<std::vector<int>> outs(static_cast<std::size_t>(p.consumers));
  util::Rng rng(2024);
  std::vector<Process> producers;
  for (int i = 0; i < p.producers; ++i) {
    producers.push_back(spawn(
        sim, producer_burst(sim, q, i * 1000, p.per_producer, rng.split())));
  }
  for (int c = 0; c < p.consumers; ++c) {
    spawn(sim, consumer_all(q, &outs[static_cast<std::size_t>(c)]));
  }
  // Close once all producers finish.
  auto closer = [](Simulator& sim, std::vector<Process> ps,
                   Queue<int>& q) -> Process {
    for (auto& pr : ps) co_await pr;
    q.close();
    (void)sim;
  };
  spawn(sim, closer(sim, producers, q));
  sim.run();

  std::vector<int> all;
  for (auto& o : outs) all.insert(all.end(), o.begin(), o.end());
  EXPECT_EQ(all.size(),
            static_cast<std::size_t>(p.producers * p.per_producer));
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(q.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QueueFan,
                         ::testing::Values(FanParam{1, 200, 1},
                                           FanParam{8, 50, 1},
                                           FanParam{1, 200, 8},
                                           FanParam{8, 50, 8}));

des::Process sem_holder(Simulator& sim, Semaphore& sem, SimTime hold,
                        std::vector<int>* order, int id) {
  co_await sem.acquire();
  order->push_back(id);
  co_await delay(sim, hold);
  sem.release();
}

TEST(SemaphoreFairness, FifoAmongWaiters) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    spawn(sim, sem_holder(sim, sem, 5, &order, i));
  }
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SemaphoreInvariant, CountRestoredAfterChurn) {
  Simulator sim;
  Semaphore sem(sim, 3);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    spawn(sim, sem_holder(sim, sem, static_cast<SimTime>(1 + i % 7), &order, i));
  }
  sim.run();
  EXPECT_EQ(sem.available(), 3);
  EXPECT_EQ(sem.waiting(), 0u);
  EXPECT_EQ(order.size(), 50u);
}

des::Process waiter_then_count(Event& e, int* count) {
  co_await e.wait();
  ++*count;
}

TEST(EventStress, ManyWaitersSingleBroadcast) {
  Simulator sim;
  Event e(sim);
  int woken = 0;
  for (int i = 0; i < 500; ++i) spawn(sim, waiter_then_count(e, &woken));
  sim.run();
  EXPECT_EQ(woken, 0);
  e.set();
  sim.run();
  EXPECT_EQ(woken, 500);
}

TEST(ConditionStress, NotifyOnlyWakesCurrentWaiters) {
  Simulator sim;
  Condition cond(sim);
  int woken = 0;
  auto waiter = [](Condition& c, int* n) -> Process {
    co_await c.wait();
    ++*n;
    co_await c.wait();  // re-arm: must need a second notify
    ++*n;
  };
  spawn(sim, waiter(cond, &woken));
  sim.run();
  cond.notify_all();
  sim.run();
  EXPECT_EQ(woken, 1);
  cond.notify_all();
  sim.run();
  EXPECT_EQ(woken, 2);
}

// Deep Task recursion: symmetric transfer must not blow the stack.
Task<int> countdown(Simulator& sim, int n) {
  if (n == 0) co_return 0;
  co_await delay(sim, 1);
  co_return 1 + co_await countdown(sim, n - 1);
}

Process run_countdown(Simulator& sim, int n, int* out) {
  *out = co_await countdown(sim, n);
}

TEST(TaskRecursion, DeepChainCompletes) {
  Simulator sim;
  int out = 0;
  spawn(sim, run_countdown(sim, 2000, &out));
  sim.run();
  EXPECT_EQ(out, 2000);
  EXPECT_EQ(sim.now(), 2000);
}

TEST(SimulatorStress, ManyInterleavedTimersKeepOrder) {
  Simulator sim;
  util::Rng rng(77);
  std::vector<std::pair<SimTime, int>> fired;
  for (int i = 0; i < 2000; ++i) {
    const SimTime t = static_cast<SimTime>(rng.below(10'000));
    sim.call_at(t, [&fired, t, i] { fired.push_back({t, i}); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 2000u);
  for (std::size_t k = 1; k < fired.size(); ++k) {
    EXPECT_LE(fired[k - 1].first, fired[k].first);
  }
  EXPECT_EQ(sim.events_processed(), 2000u);
}

// A producer/consumer mesh where every stage is a queue: conservation holds
// end to end (models a pipeline of containers at the DES level).
TEST(PipelineMesh, ConservationThroughChainedQueues) {
  Simulator sim;
  constexpr int kStages = 5;
  std::vector<std::unique_ptr<Queue<int>>> stages;
  for (int s = 0; s < kStages; ++s) {
    stages.push_back(std::make_unique<Queue<int>>(sim));
  }
  auto pump = [](Simulator& sim, Queue<int>& in, Queue<int>& out,
                 SimTime svc) -> Process {
    while (auto v = co_await in.get()) {
      co_await delay(sim, svc);
      out.try_put(*v);
    }
    out.close();
  };
  auto source = [](Simulator& sim, Queue<int>& out, int n) -> Process {
    for (int i = 0; i < n; ++i) {
      co_await delay(sim, 3);
      out.try_put(i);
    }
    out.close();
  };
  std::vector<int> sunk;
  spawn(sim, source(sim, *stages[0], 60));
  for (int s = 0; s + 1 < kStages; ++s) {
    spawn(sim, pump(sim, *stages[static_cast<std::size_t>(s)],
                    *stages[static_cast<std::size_t>(s) + 1],
                    static_cast<SimTime>(2 + s)));
  }
  spawn(sim, consumer_all(*stages[kStages - 1], &sunk));
  sim.run();
  EXPECT_EQ(sunk.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(sunk[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace ioc::des
