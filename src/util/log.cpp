#include "util/log.h"

#include <cstdio>

namespace ioc::util {

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n",
               level == LogLevel::kWarn ? "WARN " : "ERROR", msg.c_str());
}
}  // namespace detail

}  // namespace ioc::util
