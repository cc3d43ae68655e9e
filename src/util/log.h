// Minimal leveled logger: warnings and errors, always written to stderr.
// The library runs single-threaded (the DES owns the only thread of
// control), so no locking is required.
#pragma once

#include <sstream>
#include <string>

namespace ioc::util {

enum class LogLevel { kWarn, kError };

namespace detail {
void log_emit(LogLevel level, const std::string& msg);
}

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { detail::log_emit(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <class T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace ioc::util

#define IOC_LOG(level) ::ioc::util::LogLine(::ioc::util::level)

#define IOC_WARN IOC_LOG(LogLevel::kWarn)
#define IOC_ERROR IOC_LOG(LogLevel::kError)
