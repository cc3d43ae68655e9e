// The discrete-event engine. A Simulator owns a virtual clock and a
// priority queue of pending events — a ladder queue (ladder_queue.h),
// amortized O(1) per event where the former binary heap paid O(log n);
// events are either coroutine resumptions (the Process machinery in
// process.h) or plain callbacks.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotone sequence number breaks ties), so a given program produces the
// same trace on every run. The ladder queue pops in exactly that (t, seq)
// order — see DESIGN.md §15 for why every digest survived the swap.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "des/ladder_queue.h"
#include "des/time.h"

namespace ioc::des {

/// Handle to a scheduled callback that can be revoked before it fires.
/// Timers back every timeout in the control plane: a protocol round arms
/// one, and cancels it the moment the awaited reply arrives, so a stale
/// timeout can never terminate a later round (the D2T gather bug).
/// Default-constructed and moved-from handles are inert; cancel() after the
/// callback ran is a no-op.
class Timer {
 public:
  Timer() = default;

  /// Disarm: the callback will not run. Safe to call repeatedly, after the
  /// timer fired, or on an empty handle.
  void cancel() {
    if (armed_) *armed_ = false;
    armed_.reset();
  }
  /// True while the callback is still pending (not fired, not cancelled).
  bool armed() const { return armed_ != nullptr && *armed_; }

 private:
  friend class Simulator;
  explicit Timer(std::shared_ptr<bool> armed) : armed_(std::move(armed)) {}
  std::shared_ptr<bool> armed_;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule a coroutine resumption at absolute time `t` (>= now()).
  /// Inline on purpose: this is the single hottest call in a soak (once per
  /// suspension), and out-of-line it costs a call per event.
  void schedule_at(SimTime t, std::coroutine_handle<> h) {
    assert(t >= now_ && "cannot schedule into the past");
    queue_.emplace(t, next_seq_++, h, nullptr);
  }
  /// Schedule a coroutine resumption after delay `d` (>= 0).
  void schedule_in(SimTime d, std::coroutine_handle<> h) {
    schedule_at(now_ + d, h);
  }
  /// Schedule a coroutine resumption at the current time, after all events
  /// already queued for the current time.
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  /// Schedule a plain callback at absolute time `t`.
  void call_at(SimTime t, std::function<void()> fn);

  /// Like call_at, but returns a handle that cancels the callback.
  Timer timer_at(SimTime t, std::function<void()> fn);
  Timer timer_in(SimTime d, std::function<void()> fn) {
    return timer_at(now_ + d, std::move(fn));
  }

  /// Run until the event queue is empty. Returns the final clock value.
  SimTime run();
  /// Run until the clock would pass `deadline`; events at exactly `deadline`
  /// still execute. Returns the clock value when stopping.
  SimTime run_until(SimTime deadline);
  /// Execute one event. Returns false if the queue is empty.
  bool step();

  bool empty() const { return queue_.empty(); }
  std::uint64_t events_processed() const { return processed_; }

 private:
  // Trivially copyable on purpose: the ladder queue shifts entries through
  // its sorted bottom and sorts millions of times per soak, and a POD entry
  // turns those into plain copies. Callbacks (timers, rare next to coroutine
  // resumptions) go through an owned heap node instead of an inline
  // std::function, whose non-trivial move would poison the whole queue.
  struct Entry {
    SimTime t;
    std::uint64_t seq;
    std::coroutine_handle<> h;       // exactly one of h / fn is active
    std::function<void()>* fn;       // owned; freed after firing
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  LadderQueue<Entry> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace ioc::des
