// Pipeline specification: what the global manager learns from its
// configuration file — the container list, compute models, dependencies
// (used for the offline cascade), criticality, SLAs, and workload shape.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sp/costmodel.h"
#include "util/config.h"

namespace ioc::core {

struct ContainerSpec {
  std::string name;
  sp::ComponentKind kind = sp::ComponentKind::kHelper;
  sp::ComputeModel model = sp::ComputeModel::kRoundRobin;
  std::uint32_t initial_nodes = 1;
  /// Floor below which management will not shrink this container (e.g. an
  /// aggregation tree needs a minimum fan-in width for its input rate).
  std::uint32_t min_nodes = 1;
  /// Essential containers are never taken offline by policy (e.g. actions
  /// that steer the simulation); visualization-like stages are not.
  bool essential = false;
  /// Lower priority goes offline first when resources run out.
  int priority = 0;
  /// Name of the container whose output this one consumes; empty for the
  /// stage fed directly by the simulation.
  std::string upstream;
  /// Output volume as a fraction of input volume (adjacency lists and
  /// annotations change the data size hop to hop).
  double output_ratio = 1.0;
  /// Dormant until explicitly activated (the CNA dynamic-branch stage).
  bool starts_offline = false;
  /// Attach a soft-error-detection hash to every output step (Section
  /// III-D's "add hashes of the data to the output"). Can also be toggled
  /// at run time through the control plane.
  bool hash_output = false;
  /// Stateful analytics (paper future work): resizing must migrate
  /// per-replica state, adding a transfer of `state_bytes` per affected
  /// replica to the resize protocols.
  bool stateful = false;
  std::uint64_t state_bytes = 256ull * 1024 * 1024;
  /// Kernel threads each instance runs on its node (the src/par runtime).
  /// Feeds the cost model's within-node thread speedup — the "speedup
  /// properties" a local manager reasons over when sizing the container.
  std::uint32_t threads_per_node = 1;
  /// Monitoring cadence (Section III-E: "how often they are captured"):
  /// emit latency/queue samples every k completed steps.
  std::uint32_t monitor_every = 1;
  /// Optional per-stage latency deadline (seconds); 0 = unset. The lint
  /// rules cross-check the stage deadlines against the pipeline SLAs.
  double deadline_s = 0.0;
};

struct PipelineSpec {
  /// Simulation output cadence; the paper stresses the system at 15 s.
  double output_interval_s = 15.0;
  /// Per-container latency SLA; exceeding it triggers management. Defaults
  /// to the output interval (a slower stage falls behind and blocks).
  double latency_sla_s = 15.0;
  /// Optional end-to-end (source to sink) latency SLA in seconds; 0 =
  /// unset. When set, per-stage deadlines must fit inside it (lint IOC009).
  double e2e_sla_s = 0.0;
  /// Input-stream backlog (steps) above which the runtime considers the
  /// pipeline headed for a queue overflow and starts taking containers
  /// offline.
  std::size_t overflow_backlog = 8;
  std::uint64_t sim_nodes = 256;   ///< LAMMPS partition size (Table II row)
  std::size_t staging_nodes = 13;  ///< total staging allocation
  std::uint64_t steps = 40;        ///< timesteps the simulation emits
  bool management_enabled = true;
  std::vector<ContainerSpec> containers;

  const ContainerSpec* find(const std::string& name) const;
  /// Containers that (transitively) depend on `name` — the offline cascade.
  std::vector<std::string> downstream_of(const std::string& name) const;
  /// Sum of initial node allocations (excludes dormant stages).
  std::size_t initial_node_demand() const;

  /// Throws std::runtime_error when the spec is inconsistent (unknown
  /// upstream, dependency cycle, unsupported compute model, demand exceeding
  /// the staging allocation).
  void validate() const;

  /// Parse from an INI config (one [pipeline] section, repeated [container]
  /// sections) and validate. See tests/core_test.cpp for the format.
  static PipelineSpec from_config(const util::Config& cfg);

  /// A [container] section the reader cannot take as written.
  enum class LoadProblem { kNoName, kUnknownKind, kUnknownModel };
  /// Receives each problem with its section and the container's name.
  using LoadProblemFn = std::function<void(
      LoadProblem, const util::ConfigSection&, const std::string& name)>;
  /// The one reader of every [pipeline] and [container] key, without
  /// validation. With no `on_problem` the first problem throws (what
  /// from_config does); with one, the reader reports it and carries on: a
  /// section without a name is skipped, an unknown kind keeps the default
  /// kind, an unknown model takes the kind's first supported model. The
  /// lint loader reads specs this way.
  static PipelineSpec read_config(const util::Config& cfg,
                                  const LoadProblemFn& on_problem = {});

  /// The LAMMPS/SmartPointer pipeline of the paper's evaluation, sized for
  /// the given Table II row and staging allocation.
  static PipelineSpec lammps_smartpointer(std::uint64_t sim_nodes,
                                          std::size_t staging_nodes);

  /// The paper's "current work" use case: S3D combustion feeding flame-
  /// front tracking and visualization (extension preset).
  static PipelineSpec s3d_fronttracking(std::uint64_t sim_nodes,
                                        std::size_t staging_nodes);
};

sp::ComponentKind component_kind_from_string(const std::string& s);
sp::ComputeModel compute_model_from_string(const std::string& s);

}  // namespace ioc::core
