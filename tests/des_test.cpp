#include <gtest/gtest.h>

#include <algorithm>

#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "des/event.h"
#include "des/process.h"
#include "des/queue.h"
#include "des/semaphore.h"
#include "des/simulator.h"
#include "des/time.h"

namespace ioc::des {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond), 2.0);
  EXPECT_EQ(format_time(1500 * kMillisecond), "1.500s");
  EXPECT_EQ(format_time(250 * kMicrosecond), "250.000us");
}

TEST(Simulator, CallbacksFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.call_at(30, [&] { order.push_back(3); });
  sim.call_at(10, [&] { order.push_back(1); });
  sim.call_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, TieBrokenByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.call_at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.call_at(10, [&] { ++fired; });
  sim.call_at(20, [&] { ++fired; });
  sim.call_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

Process sleeper(Simulator& sim, SimTime d, int* out) {
  co_await delay(sim, d);
  *out = 1;
}

TEST(Process, DelayAdvancesClock) {
  Simulator sim;
  int done = 0;
  auto p = spawn(sim, sleeper(sim, 5 * kSecond, &done));
  sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(p.done());
  EXPECT_EQ(sim.now(), 5 * kSecond);
}

Process chain_child(Simulator& sim, std::vector<std::string>* log) {
  log->push_back("child-start");
  co_await delay(sim, 10);
  log->push_back("child-end");
}

Process chain_parent(Simulator& sim, std::vector<std::string>* log) {
  log->push_back("parent-start");
  auto c = spawn(sim, chain_child(sim, log));
  co_await c;
  log->push_back("parent-end");
}

TEST(Process, JoinWaitsForChild) {
  Simulator sim;
  std::vector<std::string> log;
  spawn(sim, chain_parent(sim, &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-end"}));
}

TEST(Process, JoinOnFinishedProcessIsImmediate) {
  Simulator sim;
  int done = 0;
  auto p = spawn(sim, sleeper(sim, 1, &done));
  sim.run();
  ASSERT_TRUE(p.done());
  bool joined = false;
  auto joiner = [](Simulator& s, Process target, bool* flag) -> Process {
    co_await target;
    *flag = true;
    (void)s;
  };
  spawn(sim, joiner(sim, p, &joined));
  sim.run();
  EXPECT_TRUE(joined);
}

Process thrower(Simulator& sim) {
  co_await delay(sim, 1);
  throw std::runtime_error("boom");
}

TEST(Process, ExceptionCapturedAndRethrownOnJoin) {
  Simulator sim;
  auto p = spawn(sim, thrower(sim));
  sim.run();
  EXPECT_TRUE(p.failed());
  EXPECT_THROW(p.rethrow_if_failed(), std::runtime_error);
}

Process join_thrower(Simulator& sim, bool* caught) {
  auto p = spawn(sim, thrower(sim));
  try {
    co_await p;
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Process, JoinPropagatesException) {
  Simulator sim;
  bool caught = false;
  spawn(sim, join_thrower(sim, &caught));
  sim.run();
  EXPECT_TRUE(caught);
}

Task<int> forty_two(Simulator& sim) {
  co_await delay(sim, 7);
  co_return 42;
}

Process task_user(Simulator& sim, int* out) {
  *out = co_await forty_two(sim);
}

TEST(Task, ReturnsValueThroughAwait) {
  Simulator sim;
  int out = 0;
  spawn(sim, task_user(sim, &out));
  sim.run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(sim.now(), 7);
}

Task<int> inner_task(Simulator& sim) {
  co_await delay(sim, 3);
  co_return 10;
}

Task<int> outer_task(Simulator& sim) {
  int a = co_await inner_task(sim);
  int b = co_await inner_task(sim);
  co_return a + b;
}

Process nested_task_user(Simulator& sim, int* out) {
  *out = co_await outer_task(sim);
}

TEST(Task, NestedTasksCompose) {
  Simulator sim;
  int out = 0;
  spawn(sim, nested_task_user(sim, &out));
  sim.run();
  EXPECT_EQ(out, 20);
  EXPECT_EQ(sim.now(), 6);
}

Task<void> failing_task() {
  throw std::runtime_error("task-fail");
  co_return;
}

Process task_exception_user(bool* caught) {
  try {
    co_await failing_task();
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Task, ExceptionPropagates) {
  Simulator sim;
  bool caught = false;
  spawn(sim, task_exception_user(&caught));
  sim.run();
  EXPECT_TRUE(caught);
}

Process producer(Simulator& sim, Queue<int>& q, int n) {
  for (int i = 0; i < n; ++i) {
    co_await delay(sim, 10);
    q.try_put(i);
  }
  q.close();
}

Process consumer(Queue<int>& q, std::vector<int>* out) {
  while (auto v = co_await q.get()) {
    out->push_back(*v);
  }
}

TEST(Queue, ProducerConsumerFifoAndClose) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<int> got;
  spawn(sim, producer(sim, q, 5));
  spawn(sim, consumer(q, &got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
}

struct Delivery {
  int getter;
  int item;
  SimTime at;
  bool operator==(const Delivery&) const = default;
};

Process ranked_getter(Simulator& sim, Queue<int>& q, int id,
                      std::vector<Delivery>* out) {
  auto v = co_await q.get();
  out->push_back({id, v.value_or(-1), sim.now()});
}

TEST(Queue, TryPutWakesTheOldestWaitingGetterFirst) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<Delivery> got;
  for (int id = 0; id < 3; ++id) spawn(sim, ranked_getter(sim, q, id, &got));
  sim.run_until(5);  // all three suspend on the empty queue, in spawn order
  ASSERT_TRUE(got.empty());
  EXPECT_TRUE(q.try_put(10));
  EXPECT_TRUE(q.try_put(20));
  EXPECT_TRUE(q.try_put(30));
  EXPECT_EQ(q.size(), 0u);  // each item went straight to a waiting getter
  sim.run();
  EXPECT_EQ(got, (std::vector<Delivery>{{0, 10, 5}, {1, 20, 5}, {2, 30, 5}}));
}

Process getter_records(Queue<int>& q, std::vector<std::optional<int>>* out) {
  out->push_back(co_await q.get());
}

TEST(Queue, CloseWakesPendingGettersWithNullopt) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<std::optional<int>> out;
  spawn(sim, getter_records(q, &out));
  sim.run();
  ASSERT_TRUE(out.empty());
  q.close();
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].has_value());
}

TEST(Queue, DrainsBufferedItemsAfterClose) {
  Simulator sim;
  Queue<int> q(sim);
  EXPECT_TRUE(q.try_put(7));
  EXPECT_TRUE(q.try_put(8));
  q.close();
  EXPECT_FALSE(q.try_put(9));  // refused once closed
  EXPECT_EQ(q.size(), 2u);
  std::vector<int> got;
  spawn(sim, consumer(q, &got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{7, 8}));
}

Process sem_worker(Simulator& sim, Semaphore& sem, int id,
                   std::vector<std::pair<SimTime, int>>* log) {
  co_await sem.acquire();
  log->push_back({sim.now(), id});
  co_await delay(sim, 10);
  sem.release();
}

TEST(Semaphore, SerializesBeyondCount) {
  Simulator sim;
  Semaphore sem(sim, 2);
  std::vector<std::pair<SimTime, int>> log;
  for (int i = 0; i < 4; ++i) spawn(sim, sem_worker(sim, sem, i, &log));
  sim.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].first, 0);
  EXPECT_EQ(log[1].first, 0);
  EXPECT_EQ(log[2].first, 10);
  EXPECT_EQ(log[3].first, 10);
  EXPECT_EQ(sem.available(), 2);
}

Process event_waiter(Event& e, Simulator& sim, SimTime* woke_at) {
  co_await e.wait();
  *woke_at = sim.now();
}

TEST(Event, BroadcastWakesAllWaiters) {
  Simulator sim;
  Event e(sim);
  SimTime a = -1, b = -1;
  spawn(sim, event_waiter(e, sim, &a));
  spawn(sim, event_waiter(e, sim, &b));
  sim.call_at(50, [&] { e.set(); });
  sim.run();
  EXPECT_EQ(a, 50);
  EXPECT_EQ(b, 50);
}

TEST(Event, WaitOnSetEventIsImmediate) {
  Simulator sim;
  Event e(sim);
  e.set();
  SimTime t = -1;
  spawn(sim, event_waiter(e, sim, &t));
  sim.run();
  EXPECT_EQ(t, 0);
}

// Property-style sweep: with a producer at period P and consumer service
// time S, the queue's high watermark (the largest size() after a put) is
// bounded when S <= P and grows with the number of items when S > P (the
// basic staging backlog relation the container policies act on).
struct BacklogParam {
  SimTime period;
  SimTime service;
  int items;
};

// gtest prints a struct param as its raw bytes, padding included, and
// gtest_discover_tests names each ctest entry by that printed value, so the
// names would change from build to build. Spell the fields out instead; the
// ctest entry then reads .../period100_service150_items50.
void PrintTo(const BacklogParam& p, std::ostream* os) {
  *os << "period" << p.period << "_service" << p.service << "_items"
      << p.items;
}

class QueueBacklog : public ::testing::TestWithParam<BacklogParam> {};

Process paced_producer(Simulator& sim, Queue<int>& q, int n, SimTime period,
                       std::size_t* high_watermark) {
  for (int i = 0; i < n; ++i) {
    co_await delay(sim, period);
    q.try_put(i);
    *high_watermark = std::max(*high_watermark, q.size());
  }
  q.close();
}

Process servicing_consumer(Simulator& sim, Queue<int>& q, SimTime service,
                           int* count) {
  while (auto v = co_await q.get()) {
    co_await delay(sim, service);
    ++*count;
  }
}

TEST_P(QueueBacklog, HighWatermarkMatchesLittleLaw) {
  const auto p = GetParam();
  Simulator sim;
  Queue<int> q(sim);
  int consumed = 0;
  std::size_t high_watermark = 0;
  spawn(sim, paced_producer(sim, q, p.items, p.period, &high_watermark));
  spawn(sim, servicing_consumer(sim, q, p.service, &consumed));
  sim.run();
  EXPECT_EQ(consumed, p.items);
  if (p.service <= p.period) {
    EXPECT_LE(high_watermark, 1u);
  } else {
    // Sustained overload: backlog grows roughly as items * (1 - P/S).
    const double expect =
        p.items * (1.0 - static_cast<double>(p.period) / p.service);
    EXPECT_GE(high_watermark + 2.0, expect * 0.8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, QueueBacklog,
    ::testing::Values(BacklogParam{100, 50, 50}, BacklogParam{100, 100, 50},
                      BacklogParam{100, 150, 50}, BacklogParam{100, 400, 50},
                      BacklogParam{10, 11, 200}));

// Determinism: two identical simulations produce identical event traces.
Process noisy(Simulator& sim, Queue<int>& q, int id,
              std::vector<int>* trace) {
  for (int i = 0; i < 10; ++i) {
    co_await delay(sim, (id + 1) * 7);
    trace->push_back(id * 100 + i);
    q.try_put(id);
  }
}

std::vector<int> run_trace() {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<int> trace;
  for (int id = 0; id < 5; ++id) spawn(sim, noisy(sim, q, id, &trace));
  sim.run_until(1000);
  return trace;
}

TEST(Determinism, IdenticalRunsIdenticalTraces) {
  auto a = run_trace();
  auto b = run_trace();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// --- cancellable timers (the timeout primitive of the control plane) ------

TEST(Timer, FiresOnceAtItsDeadline) {
  Simulator sim;
  int fired = 0;
  Timer t = sim.timer_in(100, [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_FALSE(t.armed());
  t.cancel();  // after firing: a no-op
  EXPECT_EQ(fired, 1);
}

TEST(Timer, CancelBeforeDeadlineSuppressesTheCallback) {
  Simulator sim;
  int fired = 0;
  Timer t = sim.timer_at(100, [&] { ++fired; });
  sim.call_at(50, [&] { t.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(t.armed());
  // The cancelled entry still drains from the queue (clock reaches it).
  EXPECT_EQ(sim.now(), 100);
}

TEST(Timer, DefaultAndMovedFromHandlesAreInert) {
  Timer empty;
  EXPECT_FALSE(empty.armed());
  empty.cancel();  // must not crash

  Simulator sim;
  int fired = 0;
  Timer t = sim.timer_in(10, [&] { ++fired; });
  Timer moved = std::move(t);
  EXPECT_TRUE(moved.armed());
  moved.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, StaleTimerCannotTerminateALaterRound) {
  // The regression shape behind the D2T gather bug: round 1 arms a timeout,
  // completes, and cancels it; the cancel must prevent the callback from
  // firing inside round 2's window.
  Simulator sim;
  std::vector<int> hits;
  Timer round1 = sim.timer_at(100, [&] { hits.push_back(1); });
  sim.call_at(60, [&] { round1.cancel(); });  // round 1 completed early
  Timer round2 = sim.timer_at(200, [&] { hits.push_back(2); });
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{2}));
  (void)round2;
}

}  // namespace
}  // namespace ioc::des
