// perfbench: one workload, one seed, one run. Prints a run record line and,
// as the last line of stdout, the result object the benchmark contract
// defines. Exits 1 when a correctness gate fails, 2 on a usage error or
// when <repo>/BENCHMARK.json declares no metrics.
//
//   perfbench --workload fleet|campaign|live|insitu --seed N --seconds S
//             --trace 0|1 [--smoke] [--repo DIR] [--git-sha SHA]
//             [--trace-out FILE]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "trace/json.h"

namespace perfbench {

namespace {

constexpr int kTailLadder[] = {99, 95, 90, 75, 50};

/// Per-layer metrics a workload does not exercise, as full names or name
/// prefixes ("svc."): its traced run prints 0 for them and lists them in
/// the run record. A declared metric outside this set that the run did not
/// measure, or one inside it that it did, fails a gate.
const std::map<std::string, std::vector<std::string>> kNotExercised = {
    {"fleet", {"core.", "dt.", "sio.", "mon.", "svc.", "md.", "sp.", "par."}},
    {"campaign", {"fed.", "svc.", "md.", "sp.", "par."}},
    {"live",
     {"des.ns_per_event", "des.allocs_per_event", "ev.", "net.", "fed.",
      "core.round_retry_ratio", "core.round_sim_ms", "core.deploy_ms", "dt.",
      "sio.", "mon.", "md.", "sp.", "par."}},
    {"insitu",
     {"des.", "ev.", "net.", "fed.", "core.", "dt.", "sio.", "mon.", "svc."}},
};

bool not_exercised_by(const std::string& workload, const std::string& name) {
  const auto it = kNotExercised.find(workload);
  if (it == kNotExercised.end()) return false;
  for (const auto& p : it->second) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

/// Nearest-rank percentile of sorted data.
double rank(const std::vector<double>& sorted, int pct) {
  const std::size_t n = sorted.size();
  std::size_t idx = (n * static_cast<std::size_t>(pct) + 99) / 100;
  idx = idx == 0 ? 0 : idx - 1;
  return sorted[std::min(idx, n - 1)];
}

/// The metrics BENCHMARK.json declares for this kind of run, as
/// (name, unit); empty when the file is missing or malformed.
std::vector<std::pair<std::string, std::string>> declared(const Args& a) {
  std::vector<std::pair<std::string, std::string>> out;
  std::ifstream in(a.repo + "/BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  ioc::trace::json::Value doc;
  if (!in || !ioc::trace::json::parse(text.str(), &doc)) return out;
  if (const auto* list = doc.find(a.trace ? "per_layer" : "end_to_end")) {
    for (const auto& m : list->array) {
      out.emplace_back(m.str_or("name"), m.str_or("unit"));
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string q(const std::string& s) {
  return "\"" + ioc::trace::json::escape(s) + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet|campaign|live|insitu "
               "--seed N --seconds S --trace 0|1 [--smoke] [--repo DIR] "
               "[--git-sha SHA] [--trace-out FILE]\n");
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--repo") {
      a->repo = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

}  // namespace

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = rank(v, 50);
  s.tail_pct = 50;
  for (int pct : kTailLadder) {
    const double beyond = static_cast<double>(v.size()) * (100 - pct) / 100.0;
    if (beyond >= 10.0) {
      s.tail_pct = pct;
      break;
    }
  }
  s.tail = rank(v, s.tail_pct);
  return s;
}

double floor_of(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t k = floor_count(v.size());
  std::partial_sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                    v.end());
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Report::set_latency(const std::string& p50_name,
                         const std::string& tail_name,
                         const std::vector<double>& samples,
                         const std::string& unit) {
  const Summary s = summarize(samples);
  set(p50_name, s.p50, unit);
  set(tail_name, s.tail, unit);
  tails[tail_name] = s;
}

void Report::note_wall(const std::vector<double>& latency_ms,
                       double ops_per_s, const std::vector<double>& setups_s) {
  const Summary s = summarize(latency_ms);
  record["latency_p50_ms"] = num(s.p50);
  record["latency_tail_ms"] = num(s.tail);
  record["ops_per_s"] = num(ops_per_s);
  record["setup_median_s"] = num(median(setups_s));
  tails["latency_tail_ms"] = s;
}

void write_trace(const std::string& path,
                 const std::vector<const ioc::trace::TraceSink*>& sinks) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary);
  out << ioc::trace::to_chrome_json(sinks);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, &a)) {
    usage();
    return 2;
  }
  const auto decl = declared(a);
  if (decl.empty()) {
    std::fprintf(stderr, "perfbench: no metric list in %s/BENCHMARK.json\n",
                 a.repo.c_str());
    return 2;
  }
  Report r;
  try {
    if (a.workload == "fleet") {
      r = run_fleet(a);
    } else if (a.workload == "campaign") {
      r = run_campaign(a);
    } else if (a.workload == "live") {
      r = run_live(a);
    } else if (a.workload == "insitu") {
      r = run_insitu(a);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 ex.what());
    return 1;
  }

  if (!a.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  }

  // Every declared metric is printed; a layer the workload does not run
  // reports 0 and is named in the run record.
  std::map<std::string, Metric> out;
  std::vector<std::string> not_exercised;
  for (const auto& [name, unit] : decl) {
    const bool exempt = a.trace && not_exercised_by(a.workload, name);
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end()) {
      if (exempt) {
        out[name] = Metric{0.0, unit};
        not_exercised.push_back(name);
      } else {
        r.gate_failures.push_back("metric missing: " + name);
      }
      continue;
    }
    if (exempt) {
      r.gate_failures.push_back("measured, but listed as not exercised: " +
                                name);
    }
    if (it->second.unit != unit) {
      r.gate_failures.push_back(name + " is in " + it->second.unit +
                                ", declared in " + unit);
    }
    out[name] = it->second;
  }
  for (const auto& [name, m] : r.metrics) {
    if (out.count(name) == 0) r.gate_failures.push_back("undeclared: " + name);
  }
  for (const auto& [name, m] : out) {
    if (!std::isfinite(m.value)) {
      r.gate_failures.push_back("non-finite metric: " + name);
    }
  }
  if (!r.gate_failures.empty() && r.failed == 0) r.failed = 1;
  if (r.attempted == 0) r.attempted = 1;
  const bool correct = r.gate_failures.empty();

  std::string rec = "{\"run_record\":{\"workload\":" + q(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"seconds\":" + num(a.seconds) +
                    ",\"trace\":" + (a.trace ? "1" : "0") +
                    ",\"host\":{\"cpu\":" + q(cpu_model()) +
                    ",\"nproc\":" +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"compiler\":" + q(PERFBENCH_COMPILER) +
                    ",\"build_type\":" + q(PERFBENCH_BUILD_TYPE) +
                    ",\"ioc_kernel_native\":" + q(PERFBENCH_KERNEL_NATIVE) +
                    ",\"git_sha\":" + q(a.git_sha) + "},\"tails\":{";
  bool first = true;
  for (const auto& [name, s] : r.tails) {
    rec += std::string(first ? "" : ",") + q(name) + ":{\"percentile\":" +
           std::to_string(s.tail_pct) + ",\"samples\":" +
           std::to_string(s.n) + "}";
    first = false;
  }
  rec += "},\"floors\":{";
  first = true;
  for (const auto& [name, n] : r.floors) {
    rec += std::string(first ? "" : ",") + q(name) + ":{\"samples\":" +
           std::to_string(n) + ",\"fastest\":" +
           std::to_string(floor_count(n)) + "}";
    first = false;
  }
  rec += "},\"facts\":{";
  first = true;
  for (const auto& [k, v] : r.record) {
    rec += std::string(first ? "" : ",") + q(k) + ":" + q(v);
    first = false;
  }
  rec += "},\"not_exercised\":[";
  for (std::size_t i = 0; i < not_exercised.size(); ++i) {
    rec += std::string(i ? "," : "") + q(not_exercised[i]);
  }
  rec += "],\"gate_failures\":[";
  for (std::size_t i = 0; i < r.gate_failures.size(); ++i) {
    rec += std::string(i ? "," : "") + q(r.gate_failures[i]);
    std::fprintf(stderr, "perfbench: gate failed: %s\n",
                 r.gate_failures[i].c_str());
  }
  rec += "]}}";
  std::printf("%s\n", rec.c_str());

  std::string res = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : out) {
    res += std::string(first ? "" : ", ") + q(name) + ": {\"value\": " +
           num(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": " +
           q(m.unit) + "}";
    first = false;
  }
  res += "}}";
  std::printf("%s\n", res.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
