// ioc_verify: bounded explicit-state model checking of the control plane.
//
//   ioc_verify [options] [config.ini]
//
// Explores every interleaving of the Fig. 3 management conversations and
// the D2T trade rounds across N containers, under a bounded adversary that
// may drop, duplicate, and delay messages and crash containers, and checks
// the control-plane safety invariants (node-count conservation, at-most-
// once trade operations, fenced containers staying fenced, every TIMEOUT
// answered) plus termination of every started conversation and round.
// Without a config it runs the built-in two-container scenario; with one it
// derives the scenario from the spec. A violation prints a shortest
// counterexample and replays it through the lint trace checker so the
// failure maps onto the IOC1xx diagnostics.
//
//   --fed               check the federation model instead: one built-in
//                       cross-shard resource trade (donor shard, recipient
//                       shard, root coordinator) under the same bounded
//                       adversary, with the orphaned-escrow property (IOC106)
//                       added. It takes only --drops, --dups, --crashes,
//                       --txn-retries, --bug=leak-escrow and the output
//                       flags; a config path or a control-plane flag exits 2
//   --containers N      containers taken from the spec (default 2, max 4)
//   --drops N           adversary drop budget (default 1)
//   --dups N            adversary duplicate budget (default 1)
//   --crashes N         adversary crash budget (default 1)
//   --cm-retries N      resends per control conversation (default 1)
//   --txn-retries N     resends per D2T gather round (default 1)
//   --no-trade          skip the D2T trade transaction
//   --no-por            disable partial-order reduction (full interleaving)
//   --timeout-races     also explore deadlines racing in-flight replies
//   --bug=NAME          re-introduce a historical bug in the model:
//                       stale-timeout | shared-token, or with --fed
//                       leak-escrow (test-only mutations)
//   --max-states N      inconclusive-run cap (default 20000000)
//   --trace-out FILE    write the counterexample as Chrome trace JSON
//   --expect-violation  invert the exit code: fail when the model is clean
//   --quiet             summary line only
//
// Exit codes: 0 exhaustively verified (or, under --expect-violation, a
// counterexample found), 1 property violated (or nothing found under
// --expect-violation), 2 usage error / unreadable spec / state cap hit.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "ev/intern.h"
#include "lint/diagnostics.h"
#include "lint/trace.h"
#include "trace/sink.h"
#include "util/intern.h"
#include "util/config.h"
#include "verify/checker.h"

namespace {

using ioc::verify::CheckOptions;
using ioc::verify::CheckReport;
using ioc::verify::Model;
using ioc::verify::Scenario;

int usage() {
  std::fprintf(stderr,
               "usage: ioc_verify [--containers N] [--drops N] [--dups N] "
               "[--crashes N]\n"
               "                  [--cm-retries N] [--txn-retries N] "
               "[--no-trade] [--no-por]\n"
               "                  [--timeout-races] "
               "[--bug=stale-timeout|shared-token]\n"
               "                  [--max-states N] [--trace-out FILE] "
               "[--expect-violation]\n"
               "                  [--quiet] [config.ini]\n"
               "       ioc_verify --fed [--drops N] [--dups N] [--crashes N] "
               "[--txn-retries N]\n"
               "                  [--bug=leak-escrow] [--max-states N] "
               "[--trace-out FILE]\n"
               "                  [--expect-violation] [--quiet]\n");
  return 2;
}

/// The spec the lint replayer sees: the modeled containers at their initial
/// widths, with the staging allocation the model conserves against.
ioc::core::PipelineSpec replay_spec(const Scenario& sc) {
  ioc::core::PipelineSpec spec;
  spec.staging_nodes = static_cast<std::size_t>(sc.total_nodes());
  for (const auto& c : sc.containers) {
    ioc::core::ContainerSpec cs;
    cs.name = c.name;
    cs.initial_nodes = static_cast<std::uint32_t>(c.width);
    spec.containers.push_back(cs);
  }
  return spec;
}

bool write_chrome_trace(const std::string& path, const CheckReport& rep) {
  std::vector<ioc::trace::SpanRecord> spans;
  std::size_t at = 0;
  for (const auto& step : rep.counterexample) {
    for (const auto& ev : step.events) {
      ioc::trace::SpanRecord span;
      span.name_id = ioc::util::intern(ioc::ev::type_name(ev.type));
      span.category_id = ioc::util::intern("control");
      span.source_id = ev.peer;
      span.detail_id = ioc::util::intern(step.label);
      span.step = at;
      span.start = static_cast<ioc::des::SimTime>(at) * 1000;
      span.end = span.start + 1000;
      span.args[0] = {ioc::util::intern("to_cm"), ev.to_cm ? 1.0 : 0.0};
      span.args[1] = {ioc::util::intern("delta"),
                      static_cast<double>(ev.delta)};
      span.arg_count = 2;
      spans.push_back(std::move(span));
      ++at;
    }
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << ioc::trace::to_chrome_json(spans);
  return out.good();
}

struct ReportFlags {
  std::string trace_out;
  bool expect_violation = false;
  bool quiet = false;
};

/// Print a run's result, the same way for both models: the counts, the
/// verdict (`properties` names what a clean run verified), the shortest
/// counterexample with its replay through the lint trace checker against
/// `spec` (so a failure maps onto the IOC1xx diagnostics), and the
/// --trace-out file. Returns the exit code.
int report(const CheckReport& rep, const ioc::core::PipelineSpec& spec,
           const char* properties, const ReportFlags& f) {
  std::printf("explored %zu states, %zu transitions, %zu terminal states, "
              "depth %zu, %.2fs%s\n",
              rep.states, rep.edges, rep.terminals, rep.depth, rep.seconds,
              rep.capped ? " [CAPPED: inconclusive]" : "");
  if (rep.capped) return 2;

  if (!rep.violation.has_value()) {
    std::printf("verified: no violation of %s\n", properties);
    return f.expect_violation ? 1 : 0;
  }

  std::printf("VIOLATION [%s]: %s\n",
              ioc::verify::property_name(rep.violation->property),
              rep.violation->message.c_str());
  if (!f.quiet) {
    std::printf("counterexample (%zu steps, shortest):\n",
                rep.counterexample.size());
    for (std::size_t i = 0; i < rep.counterexample.size(); ++i) {
      const auto& step = rep.counterexample[i];
      std::printf("  %3zu. %s\n", i + 1, step.label.c_str());
      for (const auto& ev : step.events) {
        const std::string_view peer = ioc::util::name_of(ev.peer);
        const std::string_view type = ioc::ev::type_name(ev.type);
        std::printf("       %s %.*s %.*s delta=%d\n", ev.to_cm ? "->" : "<-",
                    static_cast<int>(peer.size()), peer.data(),
                    static_cast<int>(type.size()), type.data(), ev.delta);
      }
    }
    const auto lint = ioc::lint::check_trace(spec, rep.trace);
    if (!lint.diagnostics.empty()) {
      std::printf("lint replay of the counterexample trace:\n");
      std::fputs(ioc::lint::to_text(lint).c_str(), stdout);
    } else {
      std::printf("lint replay of the counterexample trace: clean (the "
                  "violation is internal to the ledger)\n");
    }
  }
  if (!f.trace_out.empty()) {
    if (!write_chrome_trace(f.trace_out, rep)) {
      std::fprintf(stderr, "ioc_verify: cannot write '%s'\n",
                   f.trace_out.c_str());
      return 2;
    }
    if (!f.quiet) {
      std::printf("counterexample trace written to %s (ioc_trace can "
                  "summarize it)\n",
                  f.trace_out.c_str());
    }
  }
  return f.expect_violation ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t containers = 2;
  Scenario sc = Scenario::two_container();
  bool have_spec = false;
  std::string spec_path;
  ReportFlags flags;
  CheckOptions opts;

  int drops = -1, dups = -1, crashes = -1;
  int cm_retries = -1, txn_retries = -1;
  bool containers_given = false;
  bool no_trade = false, timeout_races = false, fed = false;
  std::string bug;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto int_arg = [&](const char* name, int* out_v) {
      if (std::strcmp(arg, name) != 0) return false;
      if (i + 1 >= argc) {
        *out_v = -2;
        return true;
      }
      *out_v = std::atoi(argv[++i]);
      return true;
    };
    int v = 0;
    if (int_arg("--containers", &v)) {
      if (v < 1) return usage();
      containers = static_cast<std::size_t>(v);
      containers_given = true;
    } else if (int_arg("--drops", &drops) || int_arg("--dups", &dups) ||
               int_arg("--crashes", &crashes) ||
               int_arg("--cm-retries", &cm_retries) ||
               int_arg("--txn-retries", &txn_retries)) {
      // value captured above
    } else if (int_arg("--max-states", &v)) {
      if (v < 1) return usage();
      opts.max_states = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--fed") == 0) {
      fed = true;
    } else if (std::strcmp(arg, "--no-trade") == 0) {
      no_trade = true;
    } else if (std::strcmp(arg, "--no-por") == 0) {
      opts.por = false;
    } else if (std::strcmp(arg, "--timeout-races") == 0) {
      timeout_races = true;
    } else if (std::strncmp(arg, "--bug=", 6) == 0) {
      bug = arg + 6;
    } else if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
      flags.trace_out = argv[++i];
    } else if (std::strcmp(arg, "--expect-violation") == 0) {
      flags.expect_violation = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      flags.quiet = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "ioc_verify: unknown option '%s'\n", arg);
      return usage();
    } else if (!have_spec) {
      spec_path = arg;
      have_spec = true;
    } else {
      return usage();
    }
  }
  if (drops == -2 || dups == -2 || crashes == -2 || cm_retries == -2 ||
      txn_retries == -2) {
    return usage();
  }

  if (fed) {
    // Federation model: one built-in cross-shard trade. It shares the
    // fault-budget and retry flags; a spec has no federation keys, and the
    // control-plane flags have nothing to act on, so naming any of them is
    // an error rather than a verdict about something else.
    std::string unused;
    const auto reject = [&unused](bool given, const char* what) {
      if (!given) return;
      if (!unused.empty()) unused += ", ";
      unused += what;
    };
    reject(have_spec, "a config path");
    reject(containers_given, "--containers");
    reject(cm_retries >= 0, "--cm-retries");
    reject(no_trade, "--no-trade");
    reject(!opts.por, "--no-por");
    reject(timeout_races, "--timeout-races");
    if (!unused.empty()) {
      std::fprintf(stderr, "ioc_verify: --fed does not use %s\n",
                   unused.c_str());
      return usage();
    }
    ioc::verify::FedScenario fsc;
    if (drops >= 0) fsc.faults.drops = static_cast<std::uint8_t>(drops);
    if (dups >= 0) fsc.faults.dups = static_cast<std::uint8_t>(dups);
    if (crashes >= 0) fsc.faults.crashes = static_cast<std::uint8_t>(crashes);
    if (txn_retries >= 0) fsc.retries = txn_retries;
    if (bug == "leak-escrow") {
      fsc.leak_escrow = true;
    } else if (!bug.empty()) {
      std::fprintf(stderr, "ioc_verify: --fed supports only "
                           "--bug=leak-escrow, not '%s'\n", bug.c_str());
      return usage();
    }
    if (!flags.quiet) {
      std::printf("fed scenario: donor %d spares, recipient %d spares, "
                  "trade %d node(s), faults drop=%d dup=%d crash=%d, "
                  "retries %d%s\n",
                  fsc.donor_spares, fsc.recipient_spares, fsc.count,
                  fsc.faults.drops, fsc.faults.dups, fsc.faults.crashes,
                  fsc.retries, fsc.leak_escrow ? ", BUG leak-escrow" : "");
    }
    // The lint replay audits the TRADE_* brackets (a leaked escrow shows up
    // as IOC106) against the shards' staging allocation.
    ioc::core::PipelineSpec spec;
    spec.staging_nodes = static_cast<std::size_t>(fsc.total_nodes());
    return report(ioc::verify::run_check(ioc::verify::FedModel(fsc), opts),
                  spec,
                  "conservation, orphaned-escrow, or trade termination",
                  flags);
  }

  if (have_spec) {
    try {
      const auto cfg = ioc::util::Config::load(spec_path);
      const auto spec = ioc::core::PipelineSpec::from_config(cfg);
      sc = Scenario::from_spec(spec, containers);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ioc_verify: %s: %s\n", spec_path.c_str(),
                   e.what());
      return 2;
    }
    if (sc.containers.empty()) {
      std::fprintf(stderr, "ioc_verify: %s declares no online containers\n",
                   spec_path.c_str());
      return 2;
    }
  }
  if (drops >= 0) sc.faults.drops = static_cast<std::uint8_t>(drops);
  if (dups >= 0) sc.faults.dups = static_cast<std::uint8_t>(dups);
  if (crashes >= 0) sc.faults.crashes = static_cast<std::uint8_t>(crashes);
  if (cm_retries >= 0) sc.cm_retries = cm_retries;
  if (txn_retries >= 0) sc.txn_retries = txn_retries;
  if (no_trade) sc.trade = false;
  if (timeout_races) sc.timeout_races = true;
  if (bug == "stale-timeout") {
    sc.bugs.stale_timeout = true;
  } else if (bug == "shared-token") {
    sc.bugs.shared_token = true;
  } else if (!bug.empty()) {
    std::fprintf(stderr, "ioc_verify: unknown --bug '%s'\n", bug.c_str());
    return usage();
  }

  const Model model(sc);
  if (!flags.quiet) {
    std::printf("scenario: %zu containers (", sc.containers.size());
    for (std::size_t i = 0; i < sc.containers.size(); ++i) {
      std::printf("%s%s:%d", i ? ", " : "", sc.containers[i].name.c_str(),
                  sc.containers[i].width);
    }
    std::printf("), staging %d, trade %s, faults drop=%d dup=%d crash=%d, "
                "retries cm=%d txn=%d, por=%s%s%s\n",
                sc.total_nodes(), sc.trade ? "on" : "off", sc.faults.drops,
                sc.faults.dups, sc.faults.crashes, sc.cm_retries,
                sc.txn_retries, opts.por ? "on" : "off",
                sc.bugs.stale_timeout ? ", BUG stale-timeout" : "",
                sc.bugs.shared_token ? ", BUG shared-token" : "");
  }
  return report(ioc::verify::run_check(model, opts), replay_spec(sc),
                "conservation, at-most-once, fencing, timeout-recovery, or "
                "termination",
                flags);
}
