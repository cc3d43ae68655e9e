// Event-queue microbenchmark: the des::LadderQueue that now backs
// Simulator, head-to-head against the std::priority_queue binary heap it
// replaced. The workload is the classic "hold" model (steady state: one pop,
// one push at a random future offset, at a fixed pending-event count) plus
// an equal-timestamp burst (every event at one timestamp, ordered by seq —
// the FIFO tie-break the control plane relies on). Entries carry the same
// (t, seq) key as Simulator::Entry with a small payload; both queues see the
// identical deterministic event stream.
//
// Besides the console table, the binary writes BENCH_des.json (override with
// IOC_BENCH_DES_JSON): ns/op per implementation x pending count, schema
// ioc.bench.des/v1, validated by tools/bench_check. The committed repo-root
// BENCH_des.json is the baseline docs/PERFORMANCE.md quotes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <queue>
#include <string>
#include <vector>

#include "des/ladder_queue.h"
#include "des/time.h"
#include "util/rng.h"

namespace {

using namespace ioc;

struct Ev {
  des::SimTime t = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;
};

/// The pre-ladder event queue: std::priority_queue with the exact (t, seq)
/// comparator Simulator used to carry.
class HeapQueue {
 public:
  void emplace(des::SimTime t, std::uint64_t seq, std::uint64_t payload) {
    q_.push(Ev{t, seq, payload});
  }
  Ev pop() {
    Ev e = q_.top();
    q_.pop();
    return e;
  }
  bool empty() const { return q_.empty(); }

 private:
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> q_;
};

using Ladder = des::LadderQueue<Ev>;

/// Hold model: prefill `pending` events, then alternate pop / push-at-
/// now+offset so the population is constant. Offsets are exponential-ish
/// (mostly short, occasionally long) to spread events unevenly, the regime
/// where bucket structures earn their keep.
template <class Q>
void BM_Hold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  Q q;
  util::Rng rng(20260808);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    q.emplace(static_cast<des::SimTime>(rng.below(1000000)), seq++, i);
  }
  des::SimTime now = 0;
  for (auto _ : state) {
    Ev e = q.pop();
    now = e.t;
    const auto offset =
        1 + static_cast<des::SimTime>(rng.below(1u << rng.below(20)));
    q.emplace(now + offset, seq++, e.payload);
    benchmark::DoNotOptimize(e.payload);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["pending"] = static_cast<double>(pending);
}
BENCHMARK(BM_Hold<HeapQueue>)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(300000);
BENCHMARK(BM_Hold<Ladder>)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(300000);

/// Equal-timestamp burst: push `pending` events at one timestamp, pop them
/// all back (they must come out in seq order), repeat at the next timestamp.
/// Exercises the FIFO tie-break path — schedule_now storms in the fleet.
template <class Q>
void BM_EqualBurst(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  Q q;
  std::uint64_t seq = 0;
  des::SimTime now = 0;
  for (auto _ : state) {
    ++now;
    for (std::size_t i = 0; i < pending; ++i) q.emplace(now, seq++, i);
    std::uint64_t check = 0;
    for (std::size_t i = 0; i < pending; ++i) check ^= q.pop().seq;
    benchmark::DoNotOptimize(check);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pending));
  state.counters["pending"] = static_cast<double>(pending);
}
BENCHMARK(BM_EqualBurst<HeapQueue>)->Arg(1000)->Arg(100000);
BENCHMARK(BM_EqualBurst<Ladder>)->Arg(1000)->Arg(100000);

// ---------------------------------------------------------------------------
// BENCH_des.json emission

struct BenchRow {
  std::string benchmark;  ///< full name, e.g. "BM_Hold<Ladder>/100000"
  std::string impl;       ///< "binary_heap" | "ladder"
  std::string workload;   ///< "hold" | "equal_burst"
  std::int64_t pending = 0;
  double ns_per_op = 0;
  std::int64_t iterations = 0;
};

class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& r : reports) {
      if (r.error_occurred) continue;
      const auto pending = r.counters.find("pending");
      if (pending == r.counters.end() || pending->second.value <= 0) continue;
      const std::string& fn = r.run_name.function_name;
      BenchRow row;
      row.benchmark = r.benchmark_name();
      row.impl = fn.find("Heap") != std::string::npos ? "binary_heap"
                                                      : "ladder";
      row.workload =
          fn.find("EqualBurst") != std::string::npos ? "equal_burst" : "hold";
      row.pending = static_cast<std::int64_t>(pending->second.value);
      // Per queue operation: the burst workload counts every pop via
      // items_processed; the hold workload is one hold (pop+push) per
      // iteration.
      const double ops =
          row.workload == "equal_burst"
              ? static_cast<double>(r.iterations) * pending->second.value
              : static_cast<double>(r.iterations);
      row.ns_per_op = r.GetAdjustedRealTime() *
                      static_cast<double>(r.iterations) / ops;
      row.iterations = static_cast<std::int64_t>(r.iterations);
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<BenchRow>& rows() const { return rows_; }

 private:
  std::vector<BenchRow> rows_;
};

bool write_json(const std::string& path, const std::vector<BenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "des_queue_bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"ioc.bench.des/v1\",\n"
               "  \"unit\": \"ns_per_op\",\n"
               "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"benchmark\": \"%s\", \"impl\": \"%s\", "
                 "\"workload\": \"%s\", \"pending\": %lld, "
                 "\"ns_per_op\": %.4f, \"iterations\": %lld}%s\n",
                 r.benchmark.c_str(), r.impl.c_str(), r.workload.c_str(),
                 static_cast<long long>(r.pending), r.ns_per_op,
                 static_cast<long long>(r.iterations),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu results)\n", path.c_str(), rows.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* out = std::getenv("IOC_BENCH_DES_JSON");
  const bool ok =
      write_json(out != nullptr ? out : "BENCH_des.json", reporter.rows());
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
