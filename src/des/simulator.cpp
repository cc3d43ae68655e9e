#include "des/simulator.h"

#include <cassert>
#include <cstdio>

#include "des/time.h"

namespace ioc::des {

std::string format_time(SimTime t) {
  char buf[48];
  if (t >= kSecond || t <= -kSecond) {
    std::snprintf(buf, sizeof(buf), "%.3fs", to_seconds(t));
  } else if (t >= kMillisecond || t <= -kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.3fms",
                  static_cast<double>(t) / static_cast<double>(kMillisecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fus",
                  static_cast<double>(t) / static_cast<double>(kMicrosecond));
  }
  return buf;
}

Simulator::~Simulator() {
  // Drain without firing: pending callback nodes are owned by their entries.
  while (!queue_.empty()) {
    Entry e = queue_.pop();
    delete e.fn;
  }
}

void Simulator::call_at(SimTime t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule into the past");
  queue_.emplace(t, next_seq_++, nullptr,
                 new std::function<void()>(std::move(fn)));
}

Timer Simulator::timer_at(SimTime t, std::function<void()> fn) {
  auto armed = std::make_shared<bool>(true);
  call_at(t, [armed, fn = std::move(fn)] {
    if (!*armed) return;  // cancelled before firing
    *armed = false;
    fn();
  });
  return Timer(std::move(armed));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  Entry e = queue_.pop();
  now_ = e.t;
  ++processed_;
  if (e.h) {
    e.h.resume();
  } else {
    (*e.fn)();
    delete e.fn;
  }
  return true;
}

SimTime Simulator::run() {
  while (step()) {
  }
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  // Fused check-and-pop: one queue refill serves both the deadline test and
  // the extraction, instead of min_time() + pop() each re-checking bottom.
  Entry e;
  while (queue_.pop_if_at_most(deadline, e)) {
    now_ = e.t;
    ++processed_;
    if (e.h) {
      e.h.resume();
    } else {
      (*e.fn)();
      delete e.fn;
    }
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace ioc::des
