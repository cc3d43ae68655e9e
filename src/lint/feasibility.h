// Static feasibility analysis (IOC2xx): rules that decide, from the spec
// and the Table-I cost model alone, whether the management plane can ever
// satisfy the declared SLAs — before a single DES step runs. They answer
// "is this pipeline schedulable at all?" where the IOC0xx rules answer "is
// this spec well-formed?".
//
// All four use the default-calibrated sp::CostModel, the only calibration
// core::StagedPipeline runs the DES with, and the Table-II workload for
// spec.sim_nodes, so a diagnostic here predicts what the simulator would go
// on to demonstrate.
#pragma once

#include "lint/rules.h"

namespace ioc::lint {

/// IOC201: a container's SLA is statically infeasible — even given the
/// entire staging allocation, its cost-model step time exceeds the output
/// interval, so backlog grows without bound at any width.
void rule_infeasible_sla(const core::PipelineSpec& spec,
                         const SpecLocator& loc, LintResult& out);

/// IOC202: aggregate over-subscription — the widths the local managers will
/// predictably ask for (cost-model width to hold the output rate, floored
/// at min_nodes) sum past the staging allocation.
void rule_aggregate_oversubscription(const core::PipelineSpec& spec,
                                     const SpecLocator& loc, LintResult& out);

/// IOC203: potential trade deadlock — no spare nodes, and every container
/// that could donate is itself under its predicted width, so each grow
/// trade needs a node from a container that also needs to grow (a cycle in
/// the resource-dependency graph).
void rule_trade_deadlock(const core::PipelineSpec& spec,
                         const SpecLocator& loc, LintResult& out);

/// IOC204: a declared capability needs a Fig. 3 state this spec can never
/// reach — e.g. a dormant container with management disabled can never be
/// activated, a stateful container can never see the resize that would
/// migrate its state.
void rule_unreachable_capability(const core::PipelineSpec& spec,
                                 const SpecLocator& loc, LintResult& out);

}  // namespace ioc::lint
