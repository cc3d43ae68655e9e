#include "core/spec.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace ioc::core {

sp::ComponentKind component_kind_from_string(const std::string& s) {
  if (s == "helper") return sp::ComponentKind::kHelper;
  if (s == "bonds") return sp::ComponentKind::kBonds;
  if (s == "csym") return sp::ComponentKind::kCsym;
  if (s == "cna") return sp::ComponentKind::kCna;
  if (s == "viz") return sp::ComponentKind::kViz;
  if (s == "front") return sp::ComponentKind::kFront;
  throw std::runtime_error("spec: unknown component kind '" + s + "'");
}

sp::ComputeModel compute_model_from_string(const std::string& s) {
  if (s == "tree") return sp::ComputeModel::kTree;
  if (s == "serial") return sp::ComputeModel::kSerial;
  if (s == "round-robin" || s == "rr") return sp::ComputeModel::kRoundRobin;
  if (s == "parallel") return sp::ComputeModel::kParallel;
  throw std::runtime_error("spec: unknown compute model '" + s + "'");
}

const ContainerSpec* PipelineSpec::find(const std::string& name) const {
  for (const auto& c : containers) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<std::string> PipelineSpec::downstream_of(
    const std::string& name) const {
  std::vector<std::string> out;
  std::set<std::string> frontier{name};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& c : containers) {
      if (frontier.count(c.name) != 0) continue;
      if (frontier.count(c.upstream) != 0) {
        frontier.insert(c.name);
        out.push_back(c.name);
        grew = true;
      }
    }
  }
  return out;
}

std::size_t PipelineSpec::initial_node_demand() const {
  std::size_t n = 0;
  for (const auto& c : containers) {
    if (!c.starts_offline) n += c.initial_nodes;
  }
  return n;
}

void PipelineSpec::validate() const {
  if (containers.empty()) {
    throw std::runtime_error("spec: pipeline has no containers");
  }
  std::set<std::string> names;
  for (const auto& c : containers) {
    if (!names.insert(c.name).second) {
      throw std::runtime_error("spec: duplicate container '" + c.name + "'");
    }
  }
  for (const auto& c : containers) {
    if (!c.upstream.empty() && names.count(c.upstream) == 0) {
      throw std::runtime_error("spec: container '" + c.name +
                               "' has unknown upstream '" + c.upstream + "'");
    }
    const auto& supported = sp::traits(c.kind).supported_models;
    bool ok = false;
    for (auto m : supported) ok = ok || m == c.model;
    if (!ok) {
      throw std::runtime_error(
          "spec: container '" + c.name + "' uses compute model " +
          sp::compute_model_name(c.model) + " unsupported by " +
          sp::component_name(c.kind) + " (Table I)");
    }
    if (!c.starts_offline && c.initial_nodes == 0) {
      throw std::runtime_error("spec: online container '" + c.name +
                               "' needs at least one node");
    }
  }
  // Cycle check: walk upstream links.
  for (const auto& c : containers) {
    std::set<std::string> seen;
    const ContainerSpec* cur = &c;
    while (!cur->upstream.empty()) {
      if (!seen.insert(cur->name).second) {
        throw std::runtime_error("spec: dependency cycle through '" +
                                 cur->name + "'");
      }
      cur = find(cur->upstream);
    }
  }
  if (initial_node_demand() > staging_nodes) {
    throw std::runtime_error(
        "spec: initial container demand (" +
        std::to_string(initial_node_demand()) +
        ") exceeds the staging allocation (" + std::to_string(staging_nodes) +
        ")");
  }
}

PipelineSpec PipelineSpec::from_config(const util::Config& cfg) {
  PipelineSpec spec = read_config(cfg);
  spec.validate();
  return spec;
}

PipelineSpec PipelineSpec::read_config(const util::Config& cfg,
                                       const LoadProblemFn& on_problem) {
  PipelineSpec spec;
  if (const auto* p = cfg.find("pipeline")) {
    spec.output_interval_s = p->get_double("output_interval_s", 15.0);
    spec.latency_sla_s = p->get_double("latency_sla_s", spec.output_interval_s);
    spec.e2e_sla_s = p->get_double("e2e_sla_s", 0.0);
    spec.overflow_backlog = static_cast<std::size_t>(p->get_int(
        "overflow_backlog", static_cast<std::int64_t>(spec.overflow_backlog)));
    spec.sim_nodes = static_cast<std::uint64_t>(p->get_int("sim_nodes", 256));
    spec.staging_nodes =
        static_cast<std::size_t>(p->get_int("staging_nodes", 13));
    spec.steps = static_cast<std::uint64_t>(p->get_int("steps", 40));
    spec.management_enabled = p->get_bool("management", true);
  }
  for (const auto* s : cfg.find_all("container")) {
    ContainerSpec c;
    c.name = s->get_or("name", "");
    if (c.name.empty()) {
      if (!on_problem) throw std::runtime_error("spec: container w/o name");
      on_problem(LoadProblem::kNoName, *s, c.name);
      continue;
    }
    try {
      c.kind = component_kind_from_string(s->get_or("kind", c.name));
    } catch (const std::exception&) {
      if (!on_problem) throw;
      on_problem(LoadProblem::kUnknownKind, *s, c.name);
    }
    try {
      c.model = compute_model_from_string(s->get_or("model", "round-robin"));
    } catch (const std::exception&) {
      if (!on_problem) throw;
      on_problem(LoadProblem::kUnknownModel, *s, c.name);
      c.model = sp::traits(c.kind).supported_models.front();
    }
    c.initial_nodes =
        static_cast<std::uint32_t>(s->get_int("nodes", 1));
    c.min_nodes = static_cast<std::uint32_t>(s->get_int("min_nodes", 1));
    c.essential = s->get_bool("essential", false);
    c.priority = static_cast<int>(s->get_int("priority", 0));
    c.upstream = s->get_or("upstream", "");
    c.output_ratio = s->get_double("output_ratio", 1.0);
    c.starts_offline = s->get_bool("starts_offline", false);
    c.hash_output = s->get_bool("hash_output", false);
    c.stateful = s->get_bool("stateful", false);
    c.state_bytes = static_cast<std::uint64_t>(
        s->get_int("state_bytes", static_cast<std::int64_t>(c.state_bytes)));
    c.threads_per_node =
        static_cast<std::uint32_t>(s->get_int("threads", 1));
    c.monitor_every =
        static_cast<std::uint32_t>(s->get_int("monitor_every", 1));
    c.deadline_s = s->get_double("deadline_s", 0.0);
    spec.containers.push_back(std::move(c));
  }
  return spec;
}

PipelineSpec PipelineSpec::lammps_smartpointer(std::uint64_t sim_nodes,
                                               std::size_t staging_nodes) {
  PipelineSpec spec;
  spec.sim_nodes = sim_nodes;
  spec.staging_nodes = staging_nodes;
  spec.steps = 20;

  ContainerSpec helper;
  helper.name = "helper";
  helper.kind = sp::ComponentKind::kHelper;
  helper.model = sp::ComputeModel::kTree;
  helper.essential = true;  // without it nothing flows
  helper.output_ratio = 1.0;

  ContainerSpec bonds;
  bonds.name = "bonds";
  bonds.kind = sp::ComponentKind::kBonds;
  bonds.model = sp::ComputeModel::kParallel;
  bonds.upstream = "helper";
  bonds.priority = 1;
  bonds.output_ratio = 1.5;  // atoms plus the adjacency list

  ContainerSpec csym;
  csym.name = "csym";
  csym.kind = sp::ComponentKind::kCsym;
  csym.model = sp::ComputeModel::kRoundRobin;
  csym.upstream = "bonds";
  csym.priority = 2;
  csym.output_ratio = 1.1;  // atoms plus per-atom CSP values

  ContainerSpec cna;
  cna.name = "cna";
  cna.kind = sp::ComponentKind::kCna;
  cna.model = sp::ComputeModel::kRoundRobin;
  cna.upstream = "csym";
  cna.priority = 3;
  cna.starts_offline = true;  // activated on the CSym dynamic branch
  cna.initial_nodes = 0;
  cna.output_ratio = 0.2;  // structural labels only

  // Size the online stages per the evaluation setups (Section IV-B2):
  // 256 sim / 13 staging: helper 8, bonds 2, csym 3 — no spares, so the GM
  // must shrink the over-provisioned Helper to grow Bonds (Fig. 7).
  // 512 or 1024 sim / 24 staging: helper 6, bonds 12, csym 2 — 4 spares
  // (Figs. 8-9).
  if (staging_nodes >= 20) {
    helper.initial_nodes = 6;
    helper.min_nodes = 6;  // the 512/1024-rank feed needs the full fan-in
    bonds.initial_nodes = 12;
    csym.initial_nodes = 2;
  } else {
    helper.initial_nodes = 8;
    helper.min_nodes = 4;
    bonds.initial_nodes = 2;
    csym.initial_nodes = 3;
  }

  spec.containers = {helper, bonds, csym, cna};
  spec.validate();
  return spec;
}

PipelineSpec PipelineSpec::s3d_fronttracking(std::uint64_t sim_nodes,
                                             std::size_t staging_nodes) {
  // The paper's "current work" pipeline: S3D combustion feeding flame-front
  // tracking and visualization. Grid cells play the role atoms play for
  // LAMMPS; the source workload model reuses the same bytes/items scaling.
  PipelineSpec spec;
  spec.sim_nodes = sim_nodes;
  spec.staging_nodes = staging_nodes;
  spec.steps = 20;

  ContainerSpec helper;
  helper.name = "helper";
  helper.kind = sp::ComponentKind::kHelper;
  helper.model = sp::ComputeModel::kTree;
  helper.initial_nodes =
      static_cast<std::uint32_t>(std::max<std::size_t>(2, staging_nodes / 4));
  helper.min_nodes = 2;
  helper.essential = true;

  ContainerSpec front;
  front.name = "front";
  front.kind = sp::ComponentKind::kFront;
  front.model = sp::ComputeModel::kParallel;
  front.upstream = "helper";
  front.initial_nodes =
      static_cast<std::uint32_t>(std::max<std::size_t>(2, staging_nodes / 3));
  front.priority = 1;
  front.output_ratio = 0.1;  // contour points, not the full field

  ContainerSpec viz;
  viz.name = "viz";
  viz.kind = sp::ComponentKind::kViz;
  viz.model = sp::ComputeModel::kRoundRobin;
  viz.upstream = "front";
  viz.initial_nodes = 2;
  viz.priority = 2;
  viz.output_ratio = 0.5;  // rendered frames

  spec.containers = {helper, front, viz};
  spec.validate();
  return spec;
}

}  // namespace ioc::core
