#include "lint/diagnostics.h"

#include <algorithm>
#include <sstream>

#include "trace/json.h"

namespace ioc::lint {

const char* severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

std::size_t LintResult::errors() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

std::size_t LintResult::warnings() const {
  return diagnostics.size() - errors();
}

void LintResult::add(std::string code, Severity severity,
                     std::string container, std::string key, int line,
                     std::string message) {
  Diagnostic d;
  d.code = std::move(code);
  d.severity = severity;
  d.container = std::move(container);
  d.key = std::move(key);
  d.line = line;
  d.message = std::move(message);
  diagnostics.push_back(std::move(d));
}

void LintResult::sort() {
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.line != b.line) return a.line < b.line;
                     if (a.code != b.code) return a.code < b.code;
                     return a.container < b.container;
                   });
}

std::string to_text(const LintResult& r) {
  std::ostringstream os;
  for (const auto& d : r.diagnostics) {
    os << r.source;
    if (d.line > 0) os << ":" << d.line;
    os << ": " << severity_name(d.severity) << " [" << d.code << "] ";
    if (!d.container.empty()) os << "container '" << d.container << "': ";
    os << d.message;
    if (!d.key.empty()) os << " (key: " << d.key << ")";
    os << "\n";
  }
  os << r.source << ": " << r.errors() << " error(s), " << r.warnings()
     << " warning(s)\n";
  return os.str();
}

std::string to_json(const LintResult& r) {
  using trace::json::escape;
  std::ostringstream os;
  os << "{\"source\":\"" << escape(r.source) << "\","
     << "\"errors\":" << r.errors() << ","
     << "\"warnings\":" << r.warnings() << ",\"diagnostics\":[";
  bool first = true;
  for (const auto& d : r.diagnostics) {
    if (!first) os << ",";
    first = false;
    os << "{\"code\":\"" << escape(d.code) << "\",\"severity\":\""
       << severity_name(d.severity) << "\",\"container\":\""
       << escape(d.container) << "\",\"key\":\"" << escape(d.key)
       << "\",\"line\":" << d.line << ",\"message\":\""
       << escape(d.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ioc::lint
