#include "util/log.h"

#include <cstdio>

namespace ioc::util {

namespace {
LogLevel g_level = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return g_level; }

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
  if (level < g_level) return;
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

}  // namespace ioc::util
