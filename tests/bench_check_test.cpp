// The bench-schema table (tools/bench_schemas.h) seen from the checker that
// applies it: a valid artifact of every schema passes, and every rule of
// every row fails once. Each column rule is broken alone in a copy of its
// schema's valid artifact, each coverage rule by one mutant, so a rule the
// checker stopped applying shows up here rather than as an artifact that
// passes when it should not.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_check.h"
#include "bench_schemas.h"

namespace {

using ioc::benchcheck::check_schema;
using ioc::benchcheck::compare_to_baseline;
using ioc::trace::json::Value;
namespace bs = ioc::benchschema;

/// A valid artifact of `tag`: its small fixture under examples/bench. A
/// schema without one throws here, so every row gets swept.
Value valid(std::string_view tag) {
  static const std::map<std::string_view, std::string> kFixtures = {
      {"ioc.bench.kernels/v1", "baseline_small.json"},
      {"ioc.bench.fleet/v2", "fleet_v2_baseline_small.json"},
      {"ioc.bench.des/v1", "des_baseline_small.json"},
      {"ioc.bench.svc/v1", "svc_baseline_small.json"},
  };
  std::ifstream in(std::string(IOC_SOURCE_DIR) + "/examples/bench/" +
                   kFixtures.at(tag));
  std::ostringstream text;
  text << in.rdbuf();
  Value v;
  std::string error;
  EXPECT_TRUE(ioc::trace::json::parse(text.str(), &v, &error)) << error;
  EXPECT_EQ(v.str_or("schema"), std::string(tag));
  return v;
}

Value& member(Value& v, std::string_view key) {
  for (auto& [k, x] : v.object) {
    if (k == key) return x;
  }
  return v.object.emplace_back(std::string(key), Value{}).second;
}

void erase(Value& v, std::string_view key) {
  std::erase_if(v.object, [&](const auto& kv) { return kv.first == key; });
}

Value number(double x) {
  Value v;
  v.type = Value::Type::kNumber;
  v.number = x;
  return v;
}

Value text(std::string s) {
  Value v;
  v.type = Value::Type::kString;
  v.str = std::move(s);
  return v;
}

std::vector<Value>& rows(Value& artifact) {
  return member(artifact, "results").array;
}

bool has_finding(const std::vector<std::string>& findings,
                 const std::string& part) {
  return std::any_of(findings.begin(), findings.end(), [&](const auto& f) {
    return f.find(part) != std::string::npos;
  });
}

std::string joined(const std::vector<std::string>& findings) {
  std::string out;
  for (const auto& f : findings) out += f + "\n";
  return out;
}

/// Every way to break one bound: each finite end crossed, the column
/// removed, the column made a string.
std::vector<std::pair<std::string, std::function<void(Value&)>>> breaks(
    const bs::Bound& b) {
  const std::string col(b.column);
  std::vector<std::pair<std::string, std::function<void(Value&)>>> out;
  if (b.lo != -bs::kInf) {
    const double below = b.lo_open ? b.lo : b.lo - 1;
    out.emplace_back("below",
                     [=](Value& v) { member(v, col) = number(below); });
  }
  if (b.hi != bs::kInf) {
    const double above = b.hi_open ? b.hi : b.hi + 1;
    out.emplace_back("above",
                     [=](Value& v) { member(v, col) = number(above); });
  }
  out.emplace_back("absent", [=](Value& v) { erase(v, col); });
  out.emplace_back("string", [=](Value& v) { member(v, col) = text("1"); });
  return out;
}

TEST(BenchSchema, ValidArtifactOfEverySchemaPasses) {
  for (const bs::Schema& s : bs::kSchemas) {
    const auto findings = check_schema(valid(s.tag));
    EXPECT_TRUE(findings.empty()) << s.tag << "\n" << joined(findings);
  }
}

TEST(BenchSchema, EveryColumnRuleFailsAlone) {
  for (const bs::Schema& s : bs::kSchemas) {
    for (const bs::Bound& b : s.root) {
      for (const auto& [how, mutate] : breaks(b)) {
        Value a = valid(s.tag);
        mutate(a);
        EXPECT_TRUE(has_finding(check_schema(a), std::string(b.column)))
            << s.tag << " root " << b.column << " " << how;
      }
    }
    for (const bs::Bound& b : s.columns) {
      for (const auto& [how, mutate] : breaks(b)) {
        Value a = valid(s.tag);
        mutate(rows(a)[0]);
        EXPECT_TRUE(has_finding(check_schema(a),
                                "results[0] " + std::string(b.column)))
            << s.tag << " " << b.column << " " << how;
      }
    }
    for (const bs::Names& n : s.names) {
      Value a = valid(s.tag);
      member(rows(a)[0], n.column) = text("no_such_name");
      EXPECT_TRUE(has_finding(
          check_schema(a), "results[0] has unknown " + std::string(n.column)))
          << s.tag << " " << n.column;
    }
    for (const bs::NotBelow& o : s.ordered) {
      Value a = valid(s.tag);
      Value& row = rows(a)[0];
      member(row, o.floor) = number(member(row, o.column).number + 1);
      EXPECT_TRUE(has_finding(check_schema(a),
                              "results[0] " + std::string(o.column)))
          << s.tag << " " << o.column << " >= " << o.floor;
    }
    Value a = valid(s.tag);
    erase(rows(a)[0], "benchmark");
    EXPECT_TRUE(has_finding(check_schema(a), "results[0] lacks a benchmark"))
        << s.tag;
  }
}

TEST(BenchSchema, EveryGatedMetricIsABoundedColumn) {
  // So the presence rule covers every gate: a fresh row without a gated
  // metric fails the schema check instead of comparing as 0.
  for (const bs::Schema& s : bs::kSchemas) {
    for (const bs::Gate& g : s.gates) {
      EXPECT_TRUE(std::any_of(
          s.columns.begin(), s.columns.end(),
          [&](const bs::Bound& b) { return b.column == g.metric; }))
          << s.tag << " " << g.metric;
    }
  }
}

TEST(BenchSchema, SimOnlyHoldsEverySimulatedColumnEqual) {
  // A simulated column is present in every valid row (it is bounded), and
  // --sim-only fails on any change to it, up or down, while the full
  // comparison lets a move inside the allowance through.
  for (const bs::Schema& s : bs::kSchemas) {
    const Value base = valid(s.tag);
    EXPECT_TRUE(compare_to_baseline(base, base, 15, true).empty()) << s.tag;
    for (const std::string_view column : s.simulated) {
      EXPECT_TRUE(std::any_of(
          s.columns.begin(), s.columns.end(),
          [&](const bs::Bound& b) { return b.column == column; }))
          << s.tag << " " << column;
      for (const double delta : {-1.0, 1.0}) {
        Value fresh = valid(s.tag);
        Value& x = member(rows(fresh).back(), column);
        x = number(x.number + delta);
        EXPECT_TRUE(has_finding(compare_to_baseline(fresh, base, 15, true),
                                std::string(column) + " changed"))
            << s.tag << " " << column << " " << delta;
        EXPECT_TRUE(compare_to_baseline(fresh, base, 15, false).empty())
            << s.tag << " " << column << " " << delta;
      }
    }
  }
}

TEST(BenchSchema, EveryCoverageRuleFails) {
  struct Mutant {
    std::string_view tag;
    std::string_view column;  // the coverage need the mutant breaks
    std::function<void(std::vector<Value>&)> mutate;
  };
  const auto drop = [](std::function<bool(const Value&)> pred) {
    return [pred](std::vector<Value>& r) { std::erase_if(r, pred); };
  };
  const Mutant mutants[] = {
      {"ioc.bench.kernels/v1", "threads", drop([](const Value& r) {
         return r.str_or("kernel") == "csym" && r.num_or("threads") > 1;
       })},
      {"ioc.bench.fleet/v2", "shards",
       drop([](const Value& r) { return r.num_or("shards") == 1; })},
      {"ioc.bench.des/v1", "impl", drop([](const Value& r) {
         return r.str_or("impl") == "ladder" &&
                r.str_or("workload") == "hold" && r.num_or("pending") == 1000;
       })},
      {"ioc.bench.svc/v1", "connections",
       [](std::vector<Value>& r) {
         for (Value& row : r) member(row, "connections") = number(255);
       }},
  };
  for (const bs::Schema& s : bs::kSchemas) {
    int found = 0;
    for (const Mutant& m : mutants) {
      if (m.tag != s.tag) continue;
      ++found;
      Value a = valid(s.tag);
      const std::size_t before = rows(a).size();
      m.mutate(rows(a));
      ASSERT_FALSE(rows(a).empty()) << s.tag;
      const auto findings = check_schema(a);
      EXPECT_TRUE(has_finding(findings, "no results row with " +
                                            std::string(m.column)))
          << s.tag << " (" << before << " -> " << rows(a).size()
          << " rows)\n"
          << joined(findings);
    }
    EXPECT_EQ(found, 1) << "no coverage mutant for " << s.tag;
  }
}

TEST(BenchSchema, EveryScaffoldCheckFails) {
  EXPECT_TRUE(has_finding(check_schema(text("x")), "not an object"));
  for (const bs::Schema& s : bs::kSchemas) {
    Value a = valid(s.tag);
    member(a, "schema") = text(std::string(s.tag) + "x");
    EXPECT_TRUE(has_finding(check_schema(a), "unknown schema")) << s.tag;

    a = valid(s.tag);
    member(a, "unit") = text("furlongs");
    EXPECT_TRUE(has_finding(check_schema(a), "unit")) << s.tag;

    a = valid(s.tag);
    erase(a, "results");
    EXPECT_TRUE(has_finding(check_schema(a), "'results'")) << s.tag;

    a = valid(s.tag);
    rows(a).clear();
    EXPECT_TRUE(has_finding(check_schema(a), "'results' is empty")) << s.tag;

    a = valid(s.tag);
    rows(a)[0] = number(1);
    EXPECT_TRUE(has_finding(check_schema(a), "results[0] is not an object"))
        << s.tag;
  }
}

TEST(BenchSchema, BaselineIsCheckedAgainstItsRow) {
  // A baseline without a gated column or without rows would leave the gate
  // nothing to compare, so it fails its schema row like a fresh artifact.
  for (const bs::Schema& s : bs::kSchemas) {
    const Value fresh = valid(s.tag);
    EXPECT_TRUE(compare_to_baseline(fresh, valid(s.tag), 15, false).empty())
        << s.tag;
    for (const bs::Gate& g : s.gates) {
      Value base = valid(s.tag);
      erase(rows(base)[0], g.metric);
      EXPECT_TRUE(has_finding(compare_to_baseline(fresh, base, 15, false),
                              "baseline results[0] " + std::string(g.metric)))
          << s.tag << " " << g.metric;
    }
    Value base = valid(s.tag);
    rows(base).clear();
    EXPECT_TRUE(has_finding(compare_to_baseline(fresh, base, 15, false),
                            "baseline 'results' is empty"))
        << s.tag;
  }
}

}  // namespace
