#include "lint/diagnostics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

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

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string to_json(const LintResult& r) {
  std::ostringstream os;
  os << "{\"source\":\"" << json_escape(r.source) << "\","
     << "\"errors\":" << r.errors() << ","
     << "\"warnings\":" << r.warnings() << ",\"diagnostics\":[";
  bool first = true;
  for (const auto& d : r.diagnostics) {
    if (!first) os << ",";
    first = false;
    os << "{\"code\":\"" << json_escape(d.code) << "\",\"severity\":\""
       << severity_name(d.severity) << "\",\"container\":\""
       << json_escape(d.container) << "\",\"key\":\"" << json_escape(d.key)
       << "\",\"line\":" << d.line << ",\"message\":\""
       << json_escape(d.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ioc::lint
