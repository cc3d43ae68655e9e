// The one exhaustive explorer of both verification models — the
// control-plane model (verify/model.h) and the federation trade model
// (verify/fed_model.h): breadth-first search over the product automaton
// with state hashing (a visited set over the canonical byte encoding) and,
// for the control-plane model, optional partial-order reduction via its
// ample sets. Every state is checked when it is discovered, and quiescence
// when a state with no enabled action is expanded. BFS, not DFS, so the
// first violation found sits at minimum depth — the counterexample is a
// shortest trace.
//
// Termination needs no cycle handling beyond the visited set: the model's
// state graph is acyclic. Every action strictly decreases the lexicographic
// measure (remaining fault budget + retries, unreached one-shot milestones,
// weighted in-flight copies): faults and timeouts consume budget/retries,
// conversation and round progress consumes one-shot milestones (resets of
// round retries ride on a milestone), and deliveries convert a
// weight-2 request copy into at most a weight-1 reply copy. This is also
// what discharges the ample-set cycle condition for the reduction. The
// federation model is acyclic for the same reasons.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "verify/fed_model.h"
#include "verify/model.h"

namespace ioc::verify {

struct CheckOptions {
  /// Partial-order reduction (the control-plane model only; the federation
  /// model has no reduction and is always explored in full).
  bool por = true;
  /// Hard cap on stored states; hitting it makes the run inconclusive.
  std::size_t max_states = 20u * 1000 * 1000;
};

struct CheckReport {
  std::size_t states = 0;     ///< distinct states stored
  std::size_t edges = 0;      ///< transitions applied
  std::size_t terminals = 0;  ///< states with no enabled action
  std::size_t depth = 0;      ///< deepest BFS layer reached
  double seconds = 0;
  bool capped = false;        ///< max_states hit: exploration inconclusive
  std::optional<Violation> violation;
  /// Shortest action path from the initial state into the violation.
  std::vector<Step> counterexample;
  /// The counterexample's control-trace events, in order, with `at` set to
  /// the 1-based event index — ready for lint::check_trace or trace export.
  std::vector<core::ControlTraceEvent> trace;

  bool ok() const { return !violation.has_value() && !capped; }
};

CheckReport run_check(const Model& model, const CheckOptions& opts = {});
CheckReport run_check(const FedModel& model, const CheckOptions& opts = {});

}  // namespace ioc::verify
