// Awaitable unbounded FIFO between processes: the mailbox of every
// ev::Endpoint. Closing a queue refuses later puts and lets getters drain
// the items already buffered before observing end-of-stream (std::nullopt).
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>

#include "des/simulator.h"
#include "util/ring_deque.h"

namespace ioc::des {

template <class T>
class Queue {
 public:
  explicit Queue(Simulator& sim) : sim_(&sim) {}
  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  std::size_t size() const { return items_.size(); }

  /// Non-blocking put; false if the queue is closed.
  bool try_put(T v) {
    if (closed_) return false;
    if (getters_.empty()) {
      items_.push_back(std::move(v));
      return true;
    }
    // A getter waits only while the queue is empty, so the oldest one takes
    // the item and resumes at this instant.
    GetWaiter w = getters_.front();
    getters_.pop_front();
    w.aw->slot.emplace(std::move(v));
    sim_->schedule_now(w.h);
    return true;
  }

  struct GetAwaiter {
    Queue* q;
    std::optional<T> slot;

    bool await_ready() {
      if (!q->items_.empty()) {
        slot.emplace(std::move(q->items_.front()));
        q->items_.pop_front();
        return true;
      }
      return q->closed_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      q->getters_.push_back({h, this});
    }
    /// The item, or std::nullopt once the queue is closed and drained.
    std::optional<T> await_resume() { return std::move(slot); }
  };

  /// Await the next item; std::nullopt once the queue is closed and drained.
  GetAwaiter get() { return GetAwaiter{this, std::nullopt}; }

  /// Close the queue: future puts fail; getters drain what is buffered and
  /// then observe std::nullopt.
  void close() {
    if (closed_) return;
    closed_ = true;
    // Waiting getters imply an empty queue: each sees end-of-stream.
    getters_.for_each([this](GetWaiter& w) { sim_->schedule_now(w.h); });
    getters_.clear();
  }

 private:
  struct GetWaiter {
    std::coroutine_handle<> h;
    GetAwaiter* aw;
  };

  // Ring buffers instead of std::deque: a deque allocates/frees ~512-byte
  // node blocks as messages flow through, which was measurable heap churn
  // per delivery; the rings hit their high-watermark size once and then
  // recycle in place (util/ring_deque.h).
  Simulator* sim_;
  util::RingDeque<T> items_;
  util::RingDeque<GetWaiter> getters_;
  bool closed_ = false;
};

}  // namespace ioc::des
