#include "lint/rules.h"

#include "lint/feasibility.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace ioc::lint {

using core::ContainerSpec;
using core::PipelineSpec;

// --- source locations ------------------------------------------------------

SpecLocator::SpecLocator(const util::Config& cfg) : cfg_(&cfg) {}

const util::ConfigSection* SpecLocator::section_of(
    const std::string& container) const {
  if (cfg_ == nullptr) return nullptr;
  if (container.empty()) return cfg_->find("pipeline");
  for (const auto* s : cfg_->find_all("container")) {
    if (s->get_or("name", "") == container) return s;
  }
  return nullptr;
}

int SpecLocator::line(const std::string& container,
                      const std::string& key) const {
  const util::ConfigSection* s = section_of(container);
  if (s == nullptr) return 0;
  const int kl = s->line_of(key);
  return kl > 0 ? kl : s->line();
}

// --- rule checks -----------------------------------------------------------

namespace {

std::set<std::string> container_names(const PipelineSpec& spec) {
  std::set<std::string> names;
  for (const auto& c : spec.containers) names.insert(c.name);
  return names;
}

void rule_unknown_upstream(const PipelineSpec& spec, const SpecLocator& loc,
                           LintResult& out) {
  const auto names = container_names(spec);
  for (const auto& c : spec.containers) {
    if (c.upstream.empty() || names.count(c.upstream) != 0) continue;
    out.add("IOC001", Severity::kError, c.name, "upstream",
            loc.line(c.name, "upstream"),
            "unknown upstream container '" + c.upstream + "'");
  }
}

void rule_dependency_cycle(const PipelineSpec& spec, const SpecLocator& loc,
                           LintResult& out) {
  // A container is reported iff the walk starting from it returns to it —
  // one diagnostic per cycle member, none for containers merely feeding
  // into a cycle.
  for (const auto& c : spec.containers) {
    std::set<std::string> seen;
    const ContainerSpec* cur = &c;
    while (cur != nullptr && !cur->upstream.empty()) {
      if (!seen.insert(cur->name).second) break;
      cur = spec.find(cur->upstream);
    }
    if (cur != nullptr && !cur->upstream.empty() && cur->name == c.name) {
      out.add("IOC002", Severity::kError, c.name, "upstream",
              loc.line(c.name, "upstream"),
              "dependency cycle through '" + c.name + "'");
    }
  }
}

void rule_duplicate_name(const PipelineSpec& spec, const SpecLocator& loc,
                         LintResult& out) {
  std::set<std::string> seen;
  for (const auto& c : spec.containers) {
    if (!seen.insert(c.name).second) {
      out.add("IOC003", Severity::kError, c.name, "name",
              loc.line(c.name, "name"),
              "duplicate container name '" + c.name + "'");
    }
  }
}

void rule_multiple_roots(const PipelineSpec& spec, const SpecLocator& loc,
                         LintResult& out) {
  std::string first_root;
  for (const auto& c : spec.containers) {
    if (!c.upstream.empty()) continue;
    if (first_root.empty()) {
      first_root = c.name;
      continue;
    }
    out.add("IOC004", Severity::kError, c.name, "upstream",
            loc.line(c.name, "upstream"),
            "second source container (simulation output already feeds '" +
                first_root + "'); every other stage needs an upstream");
  }
}

void rule_min_exceeds_initial(const PipelineSpec& spec,
                              const SpecLocator& loc, LintResult& out) {
  for (const auto& c : spec.containers) {
    if (c.starts_offline) continue;  // floor applies only once activated
    if (c.min_nodes <= c.initial_nodes) continue;
    out.add("IOC005", Severity::kError, c.name, "min_nodes",
            loc.line(c.name, "min_nodes"),
            "min_nodes (" + std::to_string(c.min_nodes) +
                ") exceeds the initial allocation (" +
                std::to_string(c.initial_nodes) + ")");
  }
}

void rule_demand_exceeds_allocation(const PipelineSpec& spec,
                                    const SpecLocator& loc, LintResult& out) {
  const std::size_t demand = spec.initial_node_demand();
  if (demand <= spec.staging_nodes) return;
  out.add("IOC006", Severity::kError, "", "staging_nodes",
          loc.line("", "staging_nodes"),
          "initial container demand (" + std::to_string(demand) +
              " nodes) exceeds the staging allocation (" +
              std::to_string(spec.staging_nodes) + ")");
}

void rule_essential_grow_infeasible(const PipelineSpec& spec,
                                    const SpecLocator& loc, LintResult& out) {
  const std::size_t demand = spec.initial_node_demand();
  if (demand > spec.staging_nodes) return;  // IOC006 already fires
  const std::size_t spares = spec.staging_nodes - demand;
  if (spares > 0) return;
  bool donor = false;
  for (const auto& d : spec.containers) {
    if (!d.starts_offline && d.initial_nodes > d.min_nodes) donor = true;
  }
  if (donor) return;
  for (const auto& c : spec.containers) {
    if (!c.essential || c.starts_offline) continue;
    out.add("IOC007", Severity::kWarning, c.name, "nodes",
            loc.line(c.name, "nodes"),
            "essential container can never grow: no spare staging nodes and "
            "every other container already sits at its min_nodes floor");
  }
}

void rule_essential_offlineable_ancestor(const PipelineSpec& spec,
                                         const SpecLocator& loc,
                                         LintResult& out) {
  for (const auto& c : spec.containers) {
    if (!c.essential) continue;
    std::set<std::string> seen{c.name};
    const ContainerSpec* cur = spec.find(c.upstream);
    while (cur != nullptr && seen.insert(cur->name).second) {
      if (!cur->essential) {
        out.add("IOC008", Severity::kError, c.name, "essential",
                loc.line(c.name, "essential"),
                "essential container depends on offlineable ancestor '" +
                    cur->name +
                    "'; the offline cascade would take it down with the "
                    "ancestor");
        break;
      }
      cur = spec.find(cur->upstream);
    }
  }
}

void rule_deadlines_exceed_e2e_sla(const PipelineSpec& spec,
                                   const SpecLocator& loc, LintResult& out) {
  if (spec.e2e_sla_s <= 0) return;
  double sum = 0;
  for (const auto& c : spec.containers) {
    if (c.deadline_s > 0) sum += c.deadline_s;
  }
  if (sum <= spec.e2e_sla_s) return;
  std::ostringstream msg;
  msg << "per-stage deadlines sum to " << sum
      << " s, past the end-to-end SLA of " << spec.e2e_sla_s << " s";
  out.add("IOC009", Severity::kError, "", "e2e_sla_s",
          loc.line("", "e2e_sla_s"), msg.str());
}

void rule_deadline_exceeds_stage_sla(const PipelineSpec& spec,
                                     const SpecLocator& loc,
                                     LintResult& out) {
  if (spec.latency_sla_s <= 0) return;
  for (const auto& c : spec.containers) {
    if (c.deadline_s <= spec.latency_sla_s) continue;
    std::ostringstream msg;
    msg << "stage deadline " << c.deadline_s
        << " s exceeds the per-container latency SLA of "
        << spec.latency_sla_s << " s; management will trigger first";
    out.add("IOC010", Severity::kWarning, c.name, "deadline_s",
            loc.line(c.name, "deadline_s"), msg.str());
  }
}

void rule_nonpositive_output_ratio(const PipelineSpec& spec,
                                   const SpecLocator& loc, LintResult& out) {
  for (const auto& c : spec.containers) {
    if (c.output_ratio > 0) continue;
    std::ostringstream msg;
    msg << "output_ratio " << c.output_ratio
        << " is not positive; downstream stages would see empty steps";
    out.add("IOC011", Severity::kError, c.name, "output_ratio",
            loc.line(c.name, "output_ratio"), msg.str());
  }
}

void rule_monitor_never(const PipelineSpec& spec, const SpecLocator& loc,
                        LintResult& out) {
  for (const auto& c : spec.containers) {
    if (c.monitor_every != 0) continue;
    out.add("IOC012", Severity::kWarning, c.name, "monitor_every",
            loc.line(c.name, "monitor_every"),
            "monitor_every = 0 would emit no samples (the runtime clamps it "
            "to 1); the global manager would be flying blind");
  }
}

void rule_stateful_without_state(const PipelineSpec& spec,
                                 const SpecLocator& loc, LintResult& out) {
  for (const auto& c : spec.containers) {
    if (!c.stateful || c.state_bytes != 0) continue;
    out.add("IOC013", Severity::kWarning, c.name, "state_bytes",
            loc.line(c.name, "state_bytes"),
            "stateful container with state_bytes = 0: resize state "
            "migration is a no-op; drop `stateful` or set a size");
  }
}

void rule_unsupported_model(const PipelineSpec& spec, const SpecLocator& loc,
                            LintResult& out) {
  for (const auto& c : spec.containers) {
    if (loc.poisoned.count(c.name) != 0) continue;
    const auto& supported = sp::traits(c.kind).supported_models;
    if (std::find(supported.begin(), supported.end(), c.model) !=
        supported.end()) {
      continue;
    }
    out.add("IOC014", Severity::kError, c.name, "model",
            loc.line(c.name, "model"),
            std::string("compute model ") + sp::compute_model_name(c.model) +
                " is not supported by component " +
                sp::component_name(c.kind) + " (Table I)");
  }
}

void rule_online_zero_nodes(const PipelineSpec& spec, const SpecLocator& loc,
                            LintResult& out) {
  for (const auto& c : spec.containers) {
    if (c.starts_offline || c.initial_nodes != 0) continue;
    out.add("IOC015", Severity::kError, c.name, "nodes",
            loc.line(c.name, "nodes"),
            "online container needs at least one node (or set "
            "starts_offline = true)");
  }
}

void rule_dormant_with_nodes(const PipelineSpec& spec, const SpecLocator& loc,
                             LintResult& out) {
  for (const auto& c : spec.containers) {
    if (!c.starts_offline || c.initial_nodes == 0) continue;
    out.add("IOC016", Severity::kWarning, c.name, "nodes",
            loc.line(c.name, "nodes"),
            "dormant container's " + std::to_string(c.initial_nodes) +
                "-node allocation is ignored until activation, which sizes "
                "it from spare nodes instead");
  }
}

void rule_nonpositive_intervals(const PipelineSpec& spec,
                                const SpecLocator& loc, LintResult& out) {
  if (spec.output_interval_s <= 0) {
    out.add("IOC017", Severity::kError, "", "output_interval_s",
            loc.line("", "output_interval_s"),
            "output_interval_s must be positive (local managers divide by "
            "it to size containers)");
  }
  if (spec.latency_sla_s <= 0) {
    out.add("IOC017", Severity::kError, "", "latency_sla_s",
            loc.line("", "latency_sla_s"),
            "latency_sla_s must be positive; a non-positive SLA makes every "
            "container a bottleneck");
  }
}

void rule_zero_overflow_backlog(const PipelineSpec& spec,
                                const SpecLocator& loc, LintResult& out) {
  if (spec.overflow_backlog != 0) return;
  out.add("IOC018", Severity::kWarning, "", "overflow_backlog",
          loc.line("", "overflow_backlog"),
          "overflow_backlog = 0 treats any queued step as an overflow; "
          "management will offline stages on the first transient");
}

}  // namespace

// --- registry --------------------------------------------------------------

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {{"IOC001", Severity::kError, "upstream",
        "upstream names a container that does not exist"},
       rule_unknown_upstream},
      {{"IOC002", Severity::kError, "upstream",
        "container dependency graph has a cycle"},
       rule_dependency_cycle},
      {{"IOC003", Severity::kError, "name", "duplicate container name"},
       rule_duplicate_name},
      {{"IOC004", Severity::kError, "upstream",
        "more than one container is fed directly by the simulation"},
       rule_multiple_roots},
      {{"IOC005", Severity::kError, "min_nodes",
        "min_nodes floor exceeds the initial allocation"},
       rule_min_exceeds_initial},
      {{"IOC006", Severity::kError, "staging_nodes",
        "initial node demand exceeds the staging allocation"},
       rule_demand_exceeds_allocation},
      {{"IOC007", Severity::kWarning, "nodes",
        "essential container has no legal grow path (no spares, no donor)"},
       rule_essential_grow_infeasible},
      {{"IOC008", Severity::kError, "essential",
        "essential container depends on an offlineable ancestor"},
       rule_essential_offlineable_ancestor},
      {{"IOC009", Severity::kError, "e2e_sla_s",
        "per-stage deadlines sum past the end-to-end SLA"},
       rule_deadlines_exceed_e2e_sla},
      {{"IOC010", Severity::kWarning, "deadline_s",
        "stage deadline exceeds the per-container latency SLA"},
       rule_deadline_exceeds_stage_sla},
      {{"IOC011", Severity::kError, "output_ratio",
        "output_ratio is zero or negative"},
       rule_nonpositive_output_ratio},
      {{"IOC012", Severity::kWarning, "monitor_every",
        "monitor_every = 0 would silence monitoring"},
       rule_monitor_never},
      {{"IOC013", Severity::kWarning, "state_bytes",
        "stateful container with zero state_bytes"},
       rule_stateful_without_state},
      {{"IOC014", Severity::kError, "model",
        "compute model unsupported by the component kind (Table I)"},
       rule_unsupported_model},
      {{"IOC015", Severity::kError, "nodes",
        "online container with zero initial nodes"},
       rule_online_zero_nodes},
      {{"IOC016", Severity::kWarning, "nodes",
        "dormant container with a nonzero (ignored) node allocation"},
       rule_dormant_with_nodes},
      {{"IOC017", Severity::kError, "output_interval_s",
        "non-positive output interval or latency SLA"},
       rule_nonpositive_intervals},
      {{"IOC018", Severity::kWarning, "overflow_backlog",
        "overflow_backlog = 0 offlines stages on any transient backlog"},
       rule_zero_overflow_backlog},
      // Loader findings (emitted by load_spec_lenient, not spec checks).
      {{"IOC019", Severity::kError, "kind", "unknown component kind"},
       nullptr},
      {{"IOC020", Severity::kError, "model", "unknown compute model"},
       nullptr},
      {{"IOC021", Severity::kError, "name", "container section without a name"},
       nullptr},
      // Protocol-trace findings (emitted by lint::check_trace).
      {{"IOC101", Severity::kError, "", "control message illegal in the "
        "container's protocol state (Fig. 3)"},
       nullptr},
      {{"IOC102", Severity::kError, "",
        "trace ends with a request still awaiting its DONE"},
       nullptr},
      {{"IOC103", Severity::kError, "",
        "node-count conservation violated across the trace"},
       nullptr},
      {{"IOC104", Severity::kWarning, "",
        "trace references a container the spec does not declare"},
       nullptr},
      {{"IOC105", Severity::kError, "",
        "control round timed out with no matching RETRY or ESCALATE"},
       nullptr},
      {{"IOC106", Severity::kError, "",
        "cross-shard trade begun but never committed, aborted, or fenced"},
       nullptr},
      // Static feasibility analysis (src/lint/feasibility.cpp): can the
      // management plane ever satisfy the declared SLAs?
      {{"IOC201", Severity::kError, "nodes",
        "SLA statically infeasible: no width can hold the output interval"},
       rule_infeasible_sla},
      {{"IOC202", Severity::kWarning, "staging_nodes",
        "predicted container widths over-subscribe the staging allocation"},
       rule_aggregate_oversubscription},
      {{"IOC203", Severity::kWarning, "nodes",
        "potential trade deadlock: every donor itself needs to grow"},
       rule_trade_deadlock},
      {{"IOC204", Severity::kWarning, "starts_offline",
        "declared capability needs an unreachable Fig. 3 state"},
       rule_unreachable_capability},
      // Parser finding (emitted by the ioc_lint CLI on unreadable input).
      {{"IOC900", Severity::kError, "", "config file cannot be parsed"},
       nullptr},
  };
  return kRules;
}

const RuleInfo* find_rule(const std::string& code) {
  for (const auto& r : rules()) {
    if (code == r.info.code) return &r.info;
  }
  return nullptr;
}

// --- drivers ---------------------------------------------------------------

namespace {

void run_rules(const core::PipelineSpec& spec, const SpecLocator& loc,
               LintResult& out) {
  for (const auto& r : rules()) {
    if (r.check != nullptr) r.check(spec, loc, out);
  }
  out.sort();
}

}  // namespace

LintResult lint_spec(const core::PipelineSpec& spec) {
  LintResult out;
  const SpecLocator loc;
  run_rules(spec, loc, out);
  return out;
}

core::PipelineSpec load_spec_lenient(const util::Config& cfg,
                                     SpecLocator& loc, LintResult& out) {
  using Problem = PipelineSpec::LoadProblem;
  PipelineSpec spec = PipelineSpec::read_config(
      cfg, [&](Problem p, const util::ConfigSection& s,
               const std::string& name) {
        if (p == Problem::kNoName) {
          out.add("IOC021", Severity::kError, "", "name", s.line(),
                  "container section without a name");
          return;
        }
        loc.poisoned.insert(name);
        if (p == Problem::kUnknownKind) {
          out.add("IOC019", Severity::kError, name, "kind",
                  s.line_of("kind") > 0 ? s.line_of("kind") : s.line(),
                  "unknown component kind '" + s.get_or("kind", name) + "'");
        } else {
          out.add("IOC020", Severity::kError, name, "model",
                  s.line_of("model") > 0 ? s.line_of("model") : s.line(),
                  "unknown compute model '" + s.get_or("model", "") + "'");
        }
      });
  if (spec.containers.empty()) {
    out.add("IOC021", Severity::kError, "", "name", 0,
            "pipeline declares no containers");
  }
  return spec;
}

LintResult lint_config(const util::Config& cfg, const std::string& source) {
  LintResult out;
  out.source = source;
  SpecLocator loc(cfg);
  const PipelineSpec spec = load_spec_lenient(cfg, loc, out);
  run_rules(spec, loc, out);
  return out;
}

}  // namespace ioc::lint
