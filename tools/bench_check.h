// The bench-artifact checker behind tools/bench_check: applies the
// bench_schemas.h row an artifact's `schema` tag selects. Each finding is one
// human-readable line; no findings means the artifact passes.
#pragma once

#include <string>
#include <vector>

#include "trace/json.h"

namespace ioc::benchcheck {

/// Validate `root` against its schema's row.
std::vector<std::string> check_schema(const trace::json::Value& root);

/// The per-row regression gate: every `baseline` row must still exist in
/// `fresh` and must not have regressed past `max_regression_pct` on its
/// schema's gated metrics; `sim_only` instead holds the schema's simulated
/// columns equal to the baseline's. The baseline must pass its schema row
/// too; those findings start with "baseline ".
std::vector<std::string> compare_to_baseline(
    const trace::json::Value& fresh, const trace::json::Value& baseline,
    double max_regression_pct, bool sim_only);

}  // namespace ioc::benchcheck
