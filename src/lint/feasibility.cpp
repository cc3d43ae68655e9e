#include "lint/feasibility.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "core/protocol.h"
#include "core/protocol_fsm.h"
#include "md/workload.h"
#include "sp/costmodel.h"

namespace ioc::lint {

using core::ContainerSpec;
using core::PipelineSpec;

namespace {

/// The workload every stage sees per step: items are not scaled by
/// output_ratio on the wire (only bytes are — see Container::emit_output),
/// so each container processes the Table-II atom count for sim_nodes.
std::uint64_t step_items(const PipelineSpec& spec) {
  return md::WorkloadModel::atoms_for_nodes(spec.sim_nodes);
}

/// Steps/second the pipeline must sustain; 0 when the interval is
/// non-positive (IOC017's finding, not ours).
double required_rate(const PipelineSpec& spec) {
  return spec.output_interval_s > 0 ? 1.0 / spec.output_interval_s : 0.0;
}

bool analyzable(const PipelineSpec& spec, const SpecLocator& loc,
                const ContainerSpec& c) {
  return !c.starts_offline && loc.poisoned.count(c.name) == 0 &&
         spec.output_interval_s > 0;
}

/// True when the container cannot hold the output rate even with the whole
/// staging allocation (the IOC201 condition).
bool infeasible_at_any_width(const PipelineSpec& spec, const sp::CostModel& cost,
                             const ContainerSpec& c) {
  const std::uint32_t max_width = static_cast<std::uint32_t>(
      std::max<std::size_t>(spec.staging_nodes, 1));
  const double best = cost.throughput(c.kind, c.model, step_items(spec),
                                      max_width, c.threads_per_node);
  return best < required_rate(spec);
}

/// The width the container's local manager will predictably ask to hold the
/// output rate, floored at its min_nodes pin. Only meaningful when
/// infeasible_at_any_width is false (the search is capped).
std::uint32_t predicted_width(const PipelineSpec& spec,
                              const sp::CostModel& cost,
                              const ContainerSpec& c) {
  const std::uint32_t w =
      cost.width_for_throughput(c.kind, c.model, step_items(spec),
                                required_rate(spec), c.threads_per_node);
  return std::max(w, c.min_nodes);
}

}  // namespace

void rule_infeasible_sla(const PipelineSpec& spec, const SpecLocator& loc,
                         LintResult& out) {
  const sp::CostModel cost;
  for (const auto& c : spec.containers) {
    if (!analyzable(spec, loc, c)) continue;
    if (!infeasible_at_any_width(spec, cost, c)) continue;
    const std::uint32_t max_width = static_cast<std::uint32_t>(
        std::max<std::size_t>(spec.staging_nodes, 1));
    const double best_step = cost.step_seconds(
        c.kind, c.model, step_items(spec), max_width, c.threads_per_node);
    std::ostringstream msg;
    msg << "statically infeasible SLA: even with all " << max_width
        << " staging nodes a " << sp::compute_model_name(c.model) << " "
        << sp::component_name(c.kind) << " step takes " << best_step
        << " s against the " << spec.output_interval_s
        << " s output interval; no width can keep up (backlog grows every "
           "step)";
    out.add("IOC201", Severity::kError, c.name, "nodes",
            loc.line(c.name, "nodes"), msg.str());
  }
}

void rule_aggregate_oversubscription(const PipelineSpec& spec,
                                     const SpecLocator& loc,
                                     LintResult& out) {
  if (!spec.management_enabled) return;  // nobody will ask for the widths
  const sp::CostModel cost;
  std::size_t total = 0;
  std::ostringstream breakdown;
  bool any = false;
  for (const auto& c : spec.containers) {
    if (!analyzable(spec, loc, c)) continue;
    if (infeasible_at_any_width(spec, cost, c)) return;  // IOC201's finding
    const std::uint32_t w = predicted_width(spec, cost, c);
    total += w;
    breakdown << (any ? ", " : "") << c.name << "=" << w;
    any = true;
  }
  if (!any || total <= spec.staging_nodes) return;
  std::ostringstream msg;
  msg << "aggregate over-subscription: holding the " << spec.output_interval_s
      << " s output interval needs " << total << " nodes ("
      << breakdown.str() << ") out of " << spec.staging_nodes
      << " staging nodes; management will thrash between under-provisioned "
         "stages";
  out.add("IOC202", Severity::kWarning, "", "staging_nodes",
          loc.line("", "staging_nodes"), msg.str());
}

void rule_trade_deadlock(const PipelineSpec& spec, const SpecLocator& loc,
                         LintResult& out) {
  if (!spec.management_enabled) return;
  const std::size_t demand = spec.initial_node_demand();
  if (demand > spec.staging_nodes) return;  // IOC006's finding
  if (spec.staging_nodes - demand > 0) return;  // spare pool breaks any cycle
  const sp::CostModel cost;
  // Resource-dependency graph: an edge from each under-provisioned
  // container to each potential donor (width above its min_nodes floor).
  // With no spares, a grow trade must traverse an edge; if every donor is
  // itself under-provisioned the needy containers form a dependency cycle
  // and the trades chase each other without converging.
  std::vector<const ContainerSpec*> needy;
  std::vector<const ContainerSpec*> donors;
  for (const auto& c : spec.containers) {
    if (!analyzable(spec, loc, c)) continue;
    if (infeasible_at_any_width(spec, cost, c)) return;  // IOC201's finding
    if (predicted_width(spec, cost, c) > c.initial_nodes) needy.push_back(&c);
    if (c.initial_nodes > c.min_nodes) donors.push_back(&c);
  }
  if (needy.size() < 2 || donors.empty()) return;
  std::set<std::string> needy_names;
  for (const auto* c : needy) needy_names.insert(c->name);
  for (const auto* d : donors) {
    if (needy_names.count(d->name) == 0) return;  // a safe donor exists
  }
  std::ostringstream cycle;
  for (const auto* c : needy) {
    cycle << (c == needy.front() ? "" : " -> ") << c->name;
  }
  for (const auto* c : needy) {
    out.add("IOC203", Severity::kWarning, c->name, "nodes",
            loc.line(c->name, "nodes"),
            "potential trade deadlock: no spare nodes and every donor needs "
            "to grow too (dependency cycle " +
                cycle.str() + "); grow trades cannot all be satisfied");
  }
}

void rule_unreachable_capability(const PipelineSpec& spec,
                                 const SpecLocator& loc, LintResult& out) {
  // Reachability over the Fig. 3 table under the messages this spec lets
  // the global manager send. With management disabled the GM never opens a
  // conversation, so only the CM-side replies remain — and those cannot
  // leave the initial state on their own.
  const std::set<ev::MessageId> gm_requests = {
      core::kMidIncrease,   core::kMidDecrease,     core::kMidOffline,
      core::kMidQueryNeeds, core::kMidSwitchToDisk, core::kMidActivate};
  const auto reachable = [&](core::CmState from) {
    std::set<core::CmState> seen{from};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& t : core::cm_transitions()) {
        if (seen.count(t.from) == 0 || seen.count(t.to) != 0) continue;
        if (!spec.management_enabled && gm_requests.count(t.message) != 0) {
          continue;
        }
        seen.insert(t.to);
        grew = true;
      }
    }
    return seen;
  };
  for (const auto& c : spec.containers) {
    if (loc.poisoned.count(c.name) != 0) continue;
    const auto states = reachable(c.starts_offline ? core::CmState::kOffline
                                                   : core::CmState::kIdle);
    if (c.starts_offline && states.count(core::CmState::kIdle) == 0) {
      out.add("IOC204", Severity::kWarning, c.name, "starts_offline",
              loc.line(c.name, "starts_offline"),
              "dormant container can never be activated: with management "
              "disabled no ACTIVATE_REQ is ever sent, so the online states "
              "of Fig. 3 are unreachable");
    }
    if (c.stateful && states.count(core::CmState::kResizing) == 0) {
      out.add("IOC204", Severity::kWarning, c.name, "stateful",
              loc.line(c.name, "stateful"),
              "stateful container can never be resized: the resizing state "
              "of Fig. 3 is unreachable under this spec, so the declared "
              "state migration is dead configuration");
    }
  }
}

}  // namespace ioc::lint
