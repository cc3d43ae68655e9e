// Diagnostic vocabulary of the ioc-lint static-analysis subsystem: a
// diagnostic is one finding (stable code, severity, message) anchored to a
// container and config key, with the config line attached when the spec
// came from a file. Results render as human text or JSON.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ioc::lint {

enum class Severity { kWarning, kError };

const char* severity_name(Severity s);

struct Diagnostic {
  std::string code;       ///< stable rule code, e.g. "IOC001"
  Severity severity = Severity::kError;
  std::string container;  ///< offending container; empty = pipeline level
  std::string key;        ///< config key implicated, e.g. "upstream"
  int line = 0;           ///< 1-based config line; 0 = unknown/synthesized
  std::string message;
};

struct LintResult {
  std::string source = "<memory>";  ///< file the spec was loaded from
  std::vector<Diagnostic> diagnostics;

  std::size_t errors() const;
  std::size_t warnings() const;
  bool ok() const { return errors() == 0; }

  void add(std::string code, Severity severity, std::string container,
           std::string key, int line, std::string message);
  /// Stable presentation order: line, then code, then container.
  void sort();
};

/// One line per diagnostic: `source:line: error [IOC001] message`.
std::string to_text(const LintResult& r);
/// Machine-readable form for CI:
/// {"source":..., "errors":N, "warnings":N, "diagnostics":[...]}.
std::string to_json(const LintResult& r);

}  // namespace ioc::lint
