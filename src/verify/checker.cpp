#include "verify/checker.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

namespace ioc::verify {

namespace {

// What differs between the two models: how a state is keyed, and which of
// its enabled actions are expanded.
std::string key(const Model& model, const State& s) {
  return s.encode(model.num_containers());
}
std::string key(const FedModel&, const FedState& s) { return s.encode(); }

void expand(const Model& model, const State& s, bool por,
            std::vector<Action>* out) {
  if (por) {
    model.ample(s, out);
  } else {
    model.enabled(s, out);
  }
}
void expand(const FedModel& model, const FedState& s, bool /*por*/,
            std::vector<Action>* out) {
  model.enabled(s, out);
}

/// Rebuild the shortest path to `id` from the BFS parent links, then replay
/// it through the model to recover the per-step labels and trace events.
template <class M>
void reconstruct(const M& model,
                 const std::vector<std::pair<std::uint32_t, Action>>& parent,
                 std::uint32_t id, CheckReport* rep) {
  std::vector<Action> path;
  while (id != 0) {
    path.push_back(parent[id].second);
    id = parent[id].first;
  }
  std::reverse(path.begin(), path.end());
  auto s = model.initial();
  for (const Action& a : path) {
    Step step;
    s = model.apply(s, a, &step);
    rep->counterexample.push_back(std::move(step));
  }
  for (auto& step : rep->counterexample) {
    for (auto& ev : step.events) {
      ev.at = static_cast<des::SimTime>(rep->trace.size() + 1);
      rep->trace.push_back(ev);
    }
  }
}

template <class M>
CheckReport explore(const M& model, const CheckOptions& opts) {
  using S = decltype(model.initial());
  const auto started = std::chrono::steady_clock::now();
  CheckReport rep;

  std::unordered_map<std::string, std::uint32_t> visited;
  std::vector<std::pair<std::uint32_t, Action>> parent;
  // Frontier entries carry the full state so expansion never has to decode
  // or replay; the visited set only ever stores the byte encoding.
  std::deque<std::pair<S, std::uint32_t>> frontier;

  const auto finish = [&](std::optional<Violation> v, std::uint32_t id) {
    rep.violation = std::move(v);
    reconstruct(model, parent, id, &rep);
    rep.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
  };

  const S init = model.initial();
  visited.emplace(key(model, init), 0);
  parent.emplace_back(0u, Action{});
  rep.states = 1;
  if (auto v = model.check(init)) {
    finish(std::move(v), 0);
    return rep;
  }
  frontier.emplace_back(init, 0u);

  std::vector<Action> actions;
  std::size_t layer = frontier.size();
  std::size_t next_layer = 0;
  while (!frontier.empty()) {
    if (layer == 0) {
      layer = next_layer;
      next_layer = 0;
      ++rep.depth;
    }
    --layer;
    const auto [s, id] = frontier.front();
    frontier.pop_front();

    expand(model, s, opts.por, &actions);
    if (actions.empty()) {
      ++rep.terminals;
      if (auto v = model.stuck(s)) {
        finish(std::move(v), id);
        return rep;
      }
      continue;
    }
    for (const Action& a : actions) {
      const S succ = model.apply(s, a, nullptr);
      ++rep.edges;
      const auto next_id = static_cast<std::uint32_t>(parent.size());
      const auto [it, fresh] = visited.emplace(key(model, succ), next_id);
      if (!fresh) continue;
      parent.emplace_back(id, a);
      ++rep.states;
      if (auto v = model.check(succ)) {
        finish(std::move(v), next_id);
        return rep;
      }
      if (rep.states >= opts.max_states) {
        rep.capped = true;
        rep.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
        return rep;
      }
      frontier.emplace_back(succ, next_id);
      ++next_layer;
    }
  }
  rep.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return rep;
}

}  // namespace

CheckReport run_check(const Model& model, const CheckOptions& opts) {
  return explore(model, opts);
}

CheckReport run_check(const FedModel& model, const CheckOptions& opts) {
  return explore(model, opts);
}

}  // namespace ioc::verify
