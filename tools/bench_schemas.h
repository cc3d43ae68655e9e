// The single source of truth for bench-artifact schema tags. bench_check
// dispatches its per-schema validators off this list, and doc_check verifies
// that every `ioc.bench.*` tag mentioned in the docs is on it — so a schema
// rename (or a doc typo) fails CI instead of silently rotting either side.
#pragma once

#include <array>
#include <string_view>

namespace ioc::benchschema {

inline constexpr std::array<std::string_view, 4> kKnownSchemas = {
    "ioc.bench.kernels/v1",  // bench/kernel_microbench -> BENCH_kernels.json
    "ioc.bench.fleet/v2",    // bench/fleet_scale       -> BENCH_fleet.json
    "ioc.bench.des/v1",      // bench/des_queue_bench   -> BENCH_des.json
    "ioc.bench.svc/v1",      // tools/ioc_loadgen       -> BENCH_svc.json
};

inline constexpr bool is_known_schema(std::string_view tag) {
  for (const auto& s : kKnownSchemas) {
    if (s == tag) return true;
  }
  return false;
}

}  // namespace ioc::benchschema
