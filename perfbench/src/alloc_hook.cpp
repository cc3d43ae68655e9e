// The benchmark binary's replacement of global operator new. It counts
// allocations for des.allocs_per_event, but only while the traced run has
// counting on; otherwise it costs one relaxed load per call. It has a file
// of its own so the compiler never inlines it into code that allocates,
// where GCC would pair its malloc with operator delete and warn of a
// mismatch.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  note_alloc();
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

void count_allocs(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

}  // namespace perfbench
