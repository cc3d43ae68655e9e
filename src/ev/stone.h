// EVPath-style "stones": a graph of lightweight handlers (filter, transform,
// fan-out, terminal sinks) that monitoring data flows through. The paper's
// monitoring layer builds dynamic overlays from exactly such pieces; here
// the graph is in-process and the bus carries data between nodes, while
// stones do the local processing steps. Stones live in a vector indexed by
// their dense ids, so a graph is built before events flow through it: a
// handler must not add stones.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace ioc::ev {

using StoneId = std::uint32_t;

template <class T>
class StoneGraph {
 public:
  using Filter = std::function<bool(const T&)>;
  using Transform = std::function<std::optional<T>(const T&)>;
  using Sink = std::function<void(const T&)>;

  /// Pass-through stone that forwards to its links.
  StoneId add_split() { return add(Stone{}); }
  /// Forwards only events matching the predicate.
  StoneId add_filter(Filter f) {
    Stone s;
    s.filter = std::move(f);
    return add(std::move(s));
  }
  /// Maps each event; returning nullopt drops it.
  StoneId add_transform(Transform f) {
    Stone s;
    s.transform = std::move(f);
    return add(std::move(s));
  }
  /// Consumes events (graph leaf).
  StoneId add_terminal(Sink f) {
    Stone s;
    s.sink = std::move(f);
    return add(std::move(s));
  }

  void link(StoneId from, StoneId to) { stones_.at(from).out.push_back(to); }

  /// Inject an event at a stone; it propagates depth-first through links.
  void submit(StoneId at, const T& event) {
    auto& s = stones_.at(at);
    ++s.seen;
    if (s.filter && !s.filter(event)) return;
    const T* forward = &event;
    std::optional<T> transformed;
    if (s.transform) {
      transformed = s.transform(event);
      if (!transformed.has_value()) return;
      forward = &*transformed;
    }
    ++s.passed;
    if (s.sink) s.sink(*forward);
    for (StoneId next : s.out) submit(next, *forward);
  }

  std::uint64_t seen(StoneId id) const { return stones_.at(id).seen; }
  std::uint64_t passed(StoneId id) const { return stones_.at(id).passed; }
  std::size_t size() const { return stones_.size(); }

 private:
  struct Stone {
    Filter filter;
    Transform transform;
    Sink sink;
    std::vector<StoneId> out;
    std::uint64_t seen = 0;
    std::uint64_t passed = 0;
  };

  StoneId add(Stone s) {
    StoneId id = static_cast<StoneId>(stones_.size());
    stones_.push_back(std::move(s));
    return id;
  }

  std::vector<Stone> stones_;  // indexed by StoneId
};

}  // namespace ioc::ev
