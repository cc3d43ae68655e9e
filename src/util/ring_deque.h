// Flat circular-buffer deque: push_back / pop_front / front / back over a
// single power-of-two array. std::deque allocates and frees ~512-byte node
// blocks as elements flow through, which showed up as per-message heap
// churn in the DES mailboxes; a ring reaches its high-watermark capacity
// once and then cycles allocation-free forever. Grows by doubling (moves
// elements, so unlike std::deque references are NOT stable across
// push_back); element type must be move-constructible.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace ioc::util {

template <class T>
class RingDeque {
 public:
  RingDeque() = default;
  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;
  RingDeque(RingDeque&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  RingDeque& operator=(RingDeque&& o) noexcept {
    if (this != &o) {
      destroy_all();
      buf_ = std::exchange(o.buf_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~RingDeque() { destroy_all(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    assert(size_ > 0);
    return slot(head_);
  }
  const T& front() const {
    assert(size_ > 0);
    return const_cast<RingDeque*>(this)->slot(head_);
  }
  T& back() {
    assert(size_ > 0);
    return slot(head_ + size_ - 1);
  }

  /// Grow now until the ring holds `n` elements, so it does not grow
  /// while it holds at most that many.
  void reserve(std::size_t n) {
    while (cap_ < n) grow();
  }

  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(&slot_raw(head_ + size_))) T(std::move(v));
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    slot(head_).~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  void clear() {
    destroy_elements();
    head_ = 0;
    size_ = 0;
  }

  /// Visit every element oldest-first (close() paths walk the waiter list).
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < size_; ++i) f(slot(head_ + i));
  }

 private:
  T& slot(std::size_t logical) { return slot_raw(logical); }
  T& slot_raw(std::size_t logical) {
    return *std::launder(
        reinterpret_cast<T*>(buf_ + ((logical & (cap_ - 1)) * sizeof(T))));
  }

  void grow() {
    const std::size_t ncap = cap_ == 0 ? 8 : cap_ * 2;
    unsigned char* nbuf = static_cast<unsigned char*>(
        ::operator new(ncap * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = slot(head_ + i);
      ::new (static_cast<void*>(nbuf + i * sizeof(T))) T(std::move(old));
      old.~T();
    }
    release_buffer();
    buf_ = nbuf;
    cap_ = ncap;
    head_ = 0;
  }

  void destroy_elements() {
    for (std::size_t i = 0; i < size_; ++i) slot(head_ + i).~T();
  }

  void release_buffer() {
    if (buf_ != nullptr) {
      ::operator delete(buf_, std::align_val_t{alignof(T)});
    }
  }

  void destroy_all() {
    destroy_elements();
    release_buffer();
    buf_ = nullptr;
    cap_ = 0;
    head_ = 0;
    size_ = 0;
  }

  unsigned char* buf_ = nullptr;
  std::size_t cap_ = 0;   // always a power of two (or 0)
  std::size_t head_ = 0;  // logical index of front()
  std::size_t size_ = 0;
};

}  // namespace ioc::util
