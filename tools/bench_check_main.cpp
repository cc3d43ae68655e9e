// bench_check: validates the machine-readable bench artifacts CI keeps
// honest the same way doc_check keeps the docs honest. The artifact's
// "schema" tag selects its row in bench_schemas.h, which holds every rule:
// the unit, the column bounds, the coverage rule and the gated metrics.
//
// With --baseline it also compares the fresh artifact against a committed
// baseline of the same schema, row by row, on the row's gated metrics
// (--max-regression PCT, default 15); --sim-only instead holds the columns
// the simulation reproduces bit for bit equal to the baseline's.
// The baseline is checked against its schema row as well.
// To re-record a baseline after an intentional change:
//   bench_check FRESH && cp FRESH BASELINE
//
// usage: bench_check [--baseline FILE] [--max-regression PCT] [--sim-only]
//                    <BENCH_*.json>
// exit 0 clean, 1 findings, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_check.h"

namespace {

bool read_json(const std::string& path, ioc::trace::json::Value* out,
               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ioc::trace::json::parse(buf.str(), out, error);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_check [--baseline FILE] [--max-regression PCT] "
               "[--sim-only] <BENCH_*.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fresh_path;
  std::string baseline_path;
  double max_regression_pct = 15.0;
  bool sim_only = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(arg, "--max-regression") == 0 && i + 1 < argc) {
      max_regression_pct = std::atof(argv[++i]);
      if (max_regression_pct <= 0) return usage();
    } else if (std::strcmp(arg, "--sim-only") == 0) {
      sim_only = true;
    } else if (arg[0] == '-') {
      return usage();
    } else if (fresh_path.empty()) {
      fresh_path = arg;
    } else {
      return usage();
    }
  }
  if (fresh_path.empty()) return usage();

  ioc::trace::json::Value root;
  std::string error;
  if (!read_json(fresh_path, &root, &error)) {
    std::fprintf(stderr, "bench_check: %s: %s\n", fresh_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::vector<std::string> findings = ioc::benchcheck::check_schema(root);
  if (!baseline_path.empty()) {
    ioc::trace::json::Value base_root;
    std::string base_error;
    if (!read_json(baseline_path, &base_root, &base_error)) {
      findings.push_back("baseline " + baseline_path + ": " + base_error);
    } else {
      for (std::string& f : ioc::benchcheck::compare_to_baseline(
               root, base_root, max_regression_pct, sim_only)) {
        findings.push_back(std::move(f));
      }
    }
  }

  for (const auto& f : findings) {
    std::fprintf(stderr, "bench_check: %s: %s\n", fresh_path.c_str(),
                 f.c_str());
  }
  if (!findings.empty()) return 1;
  const auto* n = root.find("results");
  std::printf("bench_check: %s ok (%zu results%s)\n", fresh_path.c_str(),
              n != nullptr ? n->array.size() : 0,
              baseline_path.empty() ? "" : ", baseline compared");
  return 0;
}
