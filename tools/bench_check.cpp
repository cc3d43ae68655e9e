// One scaffold checks every bench artifact: it applies whichever
// bench_schemas.h row the artifact's `schema` tag selects, in the order that
// header gives, and names no schema, column or metric of its own.
#include "bench_check.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <string_view>

#include "bench_schemas.h"

namespace ioc::benchcheck {

namespace {

using benchschema::Bound;
using trace::json::Value;
using Findings = std::vector<std::string>;

const std::string kName(benchschema::kNameColumn);

std::string str(std::string_view s) { return std::string(s); }

/// Shortest text that reads back as `v`, so distinct group values never
/// share a key.
std::string fmt(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

bool in_range(double v, const Bound& b) {
  return (b.lo_open ? v > b.lo : v >= b.lo) &&
         (b.hi_open ? v < b.hi : v <= b.hi);
}

/// The range as a finding reads it: "> 0", ">= 1", "= 0", "in [1, 1024]".
std::string describe(const Bound& b) {
  if (b.lo == b.hi) return "= " + fmt(b.lo);
  if (b.hi == benchschema::kInf) return (b.lo_open ? "> " : ">= ") + fmt(b.lo);
  return std::string("in ") + (b.lo_open ? "(" : "[") + fmt(b.lo) + ", " +
         fmt(b.hi) + (b.hi_open ? ")" : "]");
}

/// `column`'s value, or nullptr when it is absent or not a number.
const double* number(const Value& v, std::string_view column) {
  const Value* x = v.find(str(column));
  return x != nullptr && x->is_number() ? &x->number : nullptr;
}

void check_bound(const Value& v, const Bound& b, const std::string& at,
                 Findings* out) {
  const double* x = number(v, b.column);
  if (x == nullptr) {
    out->push_back(at + str(b.column) + " must be present and numeric");
  } else if (!in_range(*x, b)) {
    out->push_back(at + str(b.column) + " = " + fmt(*x) + ", expected " +
                   describe(b));
  }
}

/// False, with a finding, when the row names a value its schema does not
/// know; the row's other columns are then not checked.
bool names_known(const Value& row, const benchschema::Schema& s,
                 const std::string& at, Findings* out) {
  for (const benchschema::Names& n : s.names) {
    const std::string v = row.str_or(str(n.column));
    if (std::find(n.values.begin(), n.values.end(), v) == n.values.end()) {
      out->push_back(at + "has unknown " + str(n.column) + " '" + v + "'");
      return false;
    }
  }
  return true;
}

bool meets(const Value& row, const benchschema::Need& need) {
  if (!need.name.empty()) {
    return row.str_or(str(need.bound.column)) == need.name;
  }
  const double* x = number(row, need.bound.column);
  return x != nullptr && in_range(*x, need.bound);
}

std::string describe(const benchschema::Need& need) {
  return str(need.bound.column) + " " +
         (need.name.empty() ? describe(need.bound) : "= " + str(need.name));
}

void check_coverage(const std::vector<const Value*>& rows,
                    const benchschema::Coverage& c, Findings* out) {
  // Group key ("a=x b=y" over the group_by columns; "" without them) -> which
  // of the needs some row of the group meets.
  std::map<std::string, std::vector<bool>> met;
  if (c.group_by.empty()) met[""].assign(c.needs.size(), false);
  for (const Value* r : rows) {
    std::string key;
    for (std::string_view col : c.group_by) {
      const double* x = number(*r, col);
      key += (key.empty() ? "" : " ") + str(col) + "=" +
             (x != nullptr ? fmt(*x) : r->str_or(str(col)));
    }
    auto& m = met.try_emplace(key, c.needs.size(), false).first->second;
    for (std::size_t i = 0; i < c.needs.size(); ++i) {
      m[i] = m[i] || meets(*r, c.needs[i]);
    }
  }
  std::vector<std::string> checked;
  for (std::string_view g : c.groups) {
    checked.push_back(str(c.group_by.front()) + "=" + str(g));
  }
  if (c.groups.empty()) {
    for (const auto& [key, m] : met) checked.push_back(key);
  }
  for (const std::string& key : checked) {
    const std::string at = key.empty() ? "" : key + ": ";
    const auto it = met.find(key);
    if (it == met.end()) {
      out->push_back(at + "no results rows");
      continue;
    }
    for (std::size_t i = 0; i < c.needs.size(); ++i) {
      if (!it->second[i]) {
        out->push_back(at + "no results row with " + describe(c.needs[i]));
      }
    }
  }
}

}  // namespace

std::vector<std::string> check_schema(const Value& root) {
  if (!root.is_object()) return {"top level is not an object"};
  const std::string tag = root.str_or("schema");
  const benchschema::Schema* s = benchschema::find_schema(tag);
  if (s == nullptr) return {"unknown schema '" + tag + "'"};

  Findings out;
  if (root.str_or("unit") != s->unit) {
    out.push_back("unit is '" + root.str_or("unit") + "', expected '" +
                  str(s->unit) + "'");
  }
  for (const Bound& b : s->root) check_bound(root, b, "", &out);
  const Value* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    out.push_back("missing 'results' array");
    return out;
  }
  if (results->array.empty()) {
    out.push_back("'results' is empty");
    return out;
  }
  std::vector<const Value*> rows;
  for (std::size_t i = 0; i < results->array.size(); ++i) {
    const Value& r = results->array[i];
    const std::string at = "results[" + std::to_string(i) + "] ";
    if (!r.is_object()) {
      out.push_back(at + "is not an object");
      continue;
    }
    if (r.str_or(kName).empty()) {
      out.push_back(at + "lacks a " + kName + " name");
    }
    if (!names_known(r, *s, at, &out)) continue;
    for (const Bound& b : s->columns) check_bound(r, b, at, &out);
    for (const benchschema::NotBelow& o : s->ordered) {
      const double* x = number(r, o.column);
      const double* floor = number(r, o.floor);
      if (x != nullptr && floor != nullptr && *x < *floor) {
        out.push_back(at + str(o.column) + " must be >= " + str(o.floor));
      }
    }
    rows.push_back(&r);
  }
  check_coverage(rows, s->coverage, &out);
  return out;
}

std::vector<std::string> compare_to_baseline(const Value& fresh,
                                             const Value& baseline,
                                             double max_regression_pct,
                                             bool sim_only) {
  const std::string tag = fresh.str_or("schema");
  if (baseline.str_or("schema") != tag) {
    return {"baseline schema '" + baseline.str_or("schema") +
            "' does not match fresh artifact schema '" + tag + "'"};
  }
  // A baseline that lacks a gated column or has no rows would disarm the
  // gate below, so it must pass its schema row like the fresh artifact.
  Findings out;
  for (const std::string& f : check_schema(baseline)) {
    out.push_back("baseline " + f);
  }
  const benchschema::Schema* s = benchschema::find_schema(tag);
  const Value* base_results = baseline.find("results");
  if (s == nullptr || base_results == nullptr || !base_results->is_array()) {
    return out;
  }
  std::map<std::string, const Value*> fresh_rows;
  if (const Value* results = fresh.find("results");
      results != nullptr && results->is_array()) {
    for (const Value& r : results->array) {
      if (r.is_object() && !r.str_or(kName).empty()) {
        fresh_rows[r.str_or(kName)] = &r;
      }
    }
  }
  const double allowance = 1.0 + max_regression_pct / 100.0;
  for (const Value& r : base_results->array) {
    if (!r.is_object()) continue;
    const std::string name = r.str_or(kName);
    if (name.empty()) continue;
    const auto it = fresh_rows.find(name);
    if (it == fresh_rows.end()) {
      out.push_back("baseline row '" + name +
                    "' is missing from the fresh run (coverage lost)");
      continue;
    }
    if (sim_only) {
      for (const std::string_view column : s->simulated) {
        const double* base = number(r, column);
        const double* got = number(*it->second, column);
        if (base != nullptr && got != nullptr && *base != *got) {
          out.push_back("'" + name + "' " + str(column) + " changed: " +
                        fmt(*base) + " -> " + fmt(*got) +
                        " (simulated; must equal the baseline)");
        }
      }
      continue;
    }
    for (const benchschema::Gate& g : s->gates) {
      const std::string metric = str(g.metric);
      // A metric the baseline row never carried is not gateable; one
      // present with value 0 is a real measurement and still gates.
      if (r.find(metric) == nullptr) continue;
      const double base = r.num_or(metric);
      const double got = it->second->num_or(metric);
      char buf[256];
      if (base <= 0) {
        // The percentage gate is undefined at zero; fall back to an
        // absolute-delta gate. Only meaningful in the higher-is-worse
        // direction — a throughput of zero has nothing left to collapse.
        if (g.higher_is_worse && got > g.zero_allowance) {
          std::snprintf(buf, sizeof(buf),
                        "'%s' regressed from a zero baseline: 0 -> %.1f %s "
                        "(allowed absolute delta %.1f)",
                        name.c_str(), got, metric.c_str(), g.zero_allowance);
          out.push_back(buf);
        }
        continue;
      }
      const bool regressed = g.higher_is_worse ? got > base * allowance
                                               : got * allowance < base;
      if (regressed) {
        std::snprintf(buf, sizeof(buf),
                      "'%s' regressed %.1f%%: %.1f -> %.1f %s (allowed %.0f%%)",
                      name.c_str(),
                      g.higher_is_worse ? (got / base - 1.0) * 100.0
                                        : (1.0 - got / base) * 100.0,
                      base, got, metric.c_str(), max_regression_pct);
        out.push_back(buf);
      }
    }
  }
  return out;
}

}  // namespace ioc::benchcheck
